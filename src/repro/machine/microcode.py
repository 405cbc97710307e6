"""Compile a synthesized design into per-cell, per-cycle microcode.

A design assigns every computation of every module a (time, cell) via its
schedule and space map.  This compiler turns the *structure* of a system
execution — which rule fires at each point and which values it reads, as
recorded by its :class:`~repro.ir.evaluate.ExecutionPlan`, never the values
themselves — into three event streams, each record naming its value by
the plan's node id (``plan.keys[node]`` is its key):

* **injections** — host inputs entering boundary cells at fixed cycles;
* **operations** — a cell applying an op to values in its register file
  (link transfers compile to ``copy`` operations at the destination);
* **hops** — a value moving over exactly one interconnect link per cycle.

Routing policy: a value departs as early as possible after production and
then waits in the destination cell's register file — the classic systolic
"move-then-hold" pattern — but the router is *capacity-aware*: each
(link, stream) channel carries one value per cycle, and a hop that would
collide is pushed later within its slack window (streams whose bandwidth
demand is below 1 always fit; genuinely over-subscribed channels raise
:class:`CapacityError` at compile time).  Multiple consumers of one value
get separate hop chains; identical (value, link, cycle) hops deduplicate,
so a shared prefix is transported once.

Everything a real array could not do raises: an operand needed before it is
produced (:class:`CausalityError`), a displacement not coverable within the
time slack (:class:`LocalityError`), a channel needed twice in one cycle
with no retiming room (:class:`CapacityError`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping

import numpy as np

from repro.ir.evaluate import SystemTrace
from repro.ir.statements import InputRule, LinkRule
from repro.machine.errors import (CapacityError, CausalityError,
                                  LocalityError, MissingOperandError)
from repro.obs import TRACER
from repro.space.diophantine import LinkDecomposer

Cell = tuple[int, ...]


@dataclass(frozen=True)
class Injection:
    """Host writes node ``node``'s value into ``cell``'s registers at
    ``cycle``."""

    node: int
    cell: Cell
    cycle: int
    input_name: str
    input_index: tuple[int, ...]


@dataclass(frozen=True)
class Operation:
    """``node := op(*operands)`` executed in ``cell`` at ``cycle``.

    ``operands`` is the plan's own tuple of node ids.  ``op`` is ``None``
    for a copy (link transfer arriving as a register rename).  Operands
    produced in this very cell and cycle are intra-cycle forwarding (the
    engines order those topologically).
    """

    node: int
    cell: Cell
    cycle: int
    op: object          # repro.ir.ops.Op or None for copy
    operands: tuple[int, ...]
    stream: tuple[str, str]   # (module, var) — the physical channel class


@dataclass(frozen=True)
class Hop:
    """Node ``node``'s value moves from ``src`` over one link to ``dst``
    during ``cycle``."""

    node: int
    src: Cell
    dst: Cell
    cycle: int
    stream: tuple[str, str]


@dataclass
class Microcode:
    """The complete compiled program of the array; ``placement[node]`` is
    the ``(cycle, cell)`` of every plan node."""

    injections: list[Injection] = field(default_factory=list)
    operations: list[Operation] = field(default_factory=list)
    hops: list[Hop] = field(default_factory=list)
    placement: list[tuple[int, Cell]] = field(default_factory=list)
    first_cycle: int = 0
    last_cycle: int = 0

    @property
    def span(self) -> int:
        """Total execution time in cycles."""
        return self.last_cycle - self.first_cycle + 1


def compile_design(trace: SystemTrace, schedules: Mapping[str, object],
                   space_maps: Mapping[str, object],
                   decomposer: LinkDecomposer) -> Microcode:
    """Lower a system execution onto the array.

    Reads only the structure of ``trace.plan`` (rules, operand edges,
    host input calls), never values, so a value-free
    ``SystemTrace(plan)`` is enough.  ``schedules`` / ``space_maps`` map
    module names to :class:`~repro.schedule.linear.LinearSchedule` /
    :class:`~repro.space.allocation.SpaceMap`.

    Placement is a ``times`` and a ``cells`` array over node ids; the
    route requests are ``(value, consumer, min_gap)`` arrays whose
    causality checks and displacements are computed in bulk; the router
    keys its channel reservations by interned cell and stream ids; the
    records are built once, at the end, from the sorted columns.
    """
    plan = trace.plan
    keys, rules, operands = plan.keys, plan.rules, plan.operands
    n = plan.node_count
    mc = Microcode()
    if n == 0:
        return mc
    # Placement of every value: one T and one S evaluation per module over
    # its domain array, read back through each node's point row.
    with TRACER.span("machine.compile.placement"):
        stream_list = keys.streams
        node_stream = keys.stream_ids.tolist()
        modules = {name: m for m, name in enumerate(dict.fromkeys(
            name for name, _ in stream_list))}
        node_module = np.asarray([modules[name] for name, _ in stream_list],
                                 dtype=np.int64)[keys.stream_ids]
        rows = np.asarray(plan.rows, dtype=np.int64)
        placed = {name: (schedules[name].times(plan.points[name]),
                         space_maps[name].cells(plan.points[name]))
                  for name in modules}
        dim = next(iter(placed.values()))[1].shape[1] if placed else 0
        times = np.zeros(n, dtype=np.int64)
        cells = np.zeros((n, dim), dtype=np.int64)
        for name, m in modules.items():
            sel = np.flatnonzero(node_module == m)
            times[sel] = placed[name][0][rows[sel]]
            cells[sel] = placed[name][1][rows[sel]]
        # Interned cells: ids in lexicographic cell order (a mixed-radix
        # code over the cells' bounding box sorts like the tuples).
        lo = cells.min(axis=0)
        extent = (cells.max(axis=0) - lo + 1).tolist()
        strides = [1] * dim
        for d in range(dim - 2, -1, -1):
            strides[d] = strides[d + 1] * extent[d + 1]
        codes = (cells - lo) @ np.asarray(strides, dtype=np.int64)
        by_code = np.argsort(codes, kind="stable")
        new_cell = np.concatenate(([True], codes[by_code][1:]
                                   != codes[by_code][:-1]))
        node_cell = np.empty(n, dtype=np.int64)
        node_cell[by_code] = np.cumsum(new_cell) - 1
        cell_list: list[Cell] = list(map(tuple,
                                         cells[by_code[new_cell]].tolist()))
        node_cell_ids = node_cell.tolist()
        node_cells = list(map(cell_list.__getitem__, node_cell_ids))
        place_times = times.tolist()
        mc.placement = list(zip(place_times, node_cells))
    mc.first_cycle = int(times.min())
    mc.last_cycle = int(times.max())

    # Every non-input node's operand edges, in plan order: a link reads its
    # source, a computation each operand.
    # Node kinds (0 input, 1 link, 2 computation), one isinstance test per
    # run of nodes that share a rule object.
    rule_ids = np.fromiter(map(id, rules), np.uint64, n)
    runs = np.flatnonzero(np.concatenate(([True],
                                          rule_ids[1:] != rule_ids[:-1])))
    run_rules = [rules[i] for i in runs.tolist()]
    run_lengths = np.diff(np.append(runs, n))
    node_kind = np.repeat([0 if isinstance(rule, InputRule)
                           else 1 if isinstance(rule, LinkRule) else 2
                           for rule in run_rules], run_lengths)
    run_ops = np.empty(len(run_rules), dtype=object)
    run_ops[:] = [getattr(rule, "op", None) for rule in run_rules]
    order = np.asarray(plan.order, dtype=np.int64)
    inputs = order[node_kind[order] == 0]
    body = order[node_kind[order] != 0]
    reads = list(map(operands.__getitem__, body.tolist()))
    widths = np.fromiter(map(len, reads), np.int64, len(reads))
    src = np.fromiter(chain.from_iterable(reads), np.int64, int(widths.sum()))
    dst = np.repeat(body, widths)
    is_link = node_kind[dst] == 1
    same_cell = node_cell[src] == node_cell[dst]
    t_src, t_dst = times[src], times[dst]
    # Same cell, same cycle: forwarding inside the cell, no transfer.  A
    # computation may not read itself, nor a value its own cell makes
    # later.
    itself = ~is_link & (src == dst)
    stale = ~is_link & same_cell & (t_src > t_dst)
    if (itself | stale).any():
        k = int(np.argmax(itself | stale))
        consumer = keys[int(dst[k])]
        if itself[k]:
            raise CausalityError(f"{consumer} depends on itself")
        raise CausalityError(
            f"{consumer} at t={int(t_dst[k])} reads {keys[int(src[k])]} "
            f"produced at t={int(t_src[k])}")
    request = is_link | ~(same_cell & (t_src == t_dst))
    min_gap = np.where(same_cell, 0, 1)
    min_gap[is_link] = [rules[nid].min_gap for nid in dst[is_link].tolist()]
    src, dst, min_gap = src[request], dst[request], min_gap[request]

    # Route earliest-deadline-first, so transfers with tight windows claim
    # channel slots before slack-rich ones push them out.
    deadline = np.lexsort((times[dst] - times[src], times[dst]))
    src, dst, min_gap = src[deadline], dst[deadline], min_gap[deadline]
    t_src, t_dst = times[src], times[dst]
    gap = t_dst - t_src
    moving = node_cell[src] != node_cell[dst]
    causal = (gap < min_gap) | ((gap == 0) & moving)
    stop = int(np.argmax(causal)) if causal.any() else len(src)

    hop_rows: list[tuple[int, int, int, int, int]] = []
    with TRACER.span("machine.compile.routing"):
        cell_ids = {cell: cid for cid, cell in enumerate(cell_list)}

        def intern(cell: Cell) -> int:
            cid = cell_ids.get(cell)
            if cid is None:
                cid = cell_ids[cell] = len(cell_list)
                cell_list.append(cell)
            return cid

        routes: dict[tuple[Cell, int], list[tuple[int, ...]] | None] = {}
        step: dict[tuple[int, tuple[int, ...]], int] = {}
        # Channel reservations: one value per (link, stream, cycle).  A
        # slot is only ever claimed once, so finding it held by this very
        # value means this hop was already recorded (a shared prefix).
        reservations: dict[tuple[int, int, int, int], int] = {}
        todo = np.flatnonzero(moving[:stop])
        disps = map(tuple, (cells[dst[todo]] - cells[src[todo]]).tolist())
        for disp, vid, cid, t_prev, t_end in zip(
                disps, src[todo].tolist(), dst[todo].tolist(),
                t_src[todo].tolist(), t_dst[todo].tolist()):
            window = t_end - t_prev
            if (disp, window) not in routes:
                routes[(disp, window)] = decomposer.decompose(disp, window)
            hops = routes[(disp, window)]
            if hops is None:
                raise LocalityError(
                    f"{keys[vid]} -> {keys[cid]}: displacement {disp} not "
                    f"coverable in {window} cycles on this interconnect")
            stream = node_stream[vid]
            pos = node_cell_ids[vid]
            # Retiming window of hop ``idx``: after the previous hop, early
            # enough that the remaining hops (one per cycle) still make the
            # deadline.
            latest = t_end - len(hops)
            for mv in hops:
                nxt = step.get((pos, mv))
                if nxt is None:
                    nxt = step[(pos, mv)] = intern(tuple(
                        a + b for a, b in zip(cell_list[pos], mv)))
                latest += 1
                cycle = t_prev + 1
                while True:
                    if cycle > latest:
                        raise CapacityError(
                            f"{keys[vid]} -> {keys[cid]}: channel "
                            f"{cell_list[pos]}->{cell_list[nxt]} of stream "
                            f"{stream_list[stream]} is saturated in cycles "
                            f"[{t_prev + 1}, {latest}]")
                    slot = (pos, nxt, stream, cycle)
                    holder = reservations.get(slot)
                    if holder is None:
                        reservations[slot] = vid
                        hop_rows.append((vid, pos, nxt, cycle, stream))
                        break
                    if holder == vid:
                        break
                    cycle += 1
                pos = nxt
                t_prev = cycle
        if stop < len(src):
            required = (max(int(min_gap[stop]), 1) if moving[stop]
                        else int(min_gap[stop]))
            raise CausalityError(
                f"{keys[int(dst[stop])]} at t={int(t_dst[stop])} needs "
                f"{keys[int(src[stop])]} produced at t={int(t_src[stop])} "
                f"(gap {int(gap[stop])} < required {required})")

    # The records, each stream sorted by (cycle, cell) — hops by (cycle,
    # src, dst) — keeping plan (hops: routing) order among ties.
    inputs = inputs[np.lexsort((node_cell[inputs], times[inputs]))].tolist()
    calls = list(map(plan.input_calls.__getitem__, inputs))
    mc.injections = list(map(
        Injection, inputs, map(node_cells.__getitem__, inputs),
        map(place_times.__getitem__, inputs), map(itemgetter(0), calls),
        map(itemgetter(1), calls)))
    body = body[np.lexsort((node_cell[body], times[body]))].tolist()
    mc.operations = list(map(
        Operation, body, map(node_cells.__getitem__, body),
        map(place_times.__getitem__, body),
        np.repeat(run_ops, run_lengths)[body].tolist(),
        map(operands.__getitem__, body),
        map(stream_list.__getitem__, map(node_stream.__getitem__, body))))
    if hop_rows:
        table = np.asarray(hop_rows, dtype=np.int64)
        # Rank every interned cell in tuple order (the router may have
        # added cells outside the placement's).
        rank = np.zeros(len(cell_list), dtype=np.int64)
        if dim:
            rank[np.lexsort(np.asarray(cell_list, dtype=np.int64).T[::-1])] = \
                np.arange(len(cell_list))
        table = table[np.lexsort((rank[table[:, 2]], rank[table[:, 1]],
                                  table[:, 3]))]
        vids, srcs, dsts, cycles, hop_streams = table.T.tolist()
        mc.hops = list(map(Hop, vids, map(cell_list.__getitem__, srcs),
                           map(cell_list.__getitem__, dsts), cycles,
                           map(stream_list.__getitem__, hop_streams)))
        mc.first_cycle = min(mc.first_cycle, cycles[0])
        mc.last_cycle = max(mc.last_cycle, max(cycles))
    return mc


def check_node_ids(mc: Microcode, node_count: int) -> None:
    """Raise :class:`MissingOperandError` if (hand-built) ``mc`` names a
    value outside ``range(node_count)``."""
    check_ids(chain(map(attrgetter("node"), chain(mc.injections,
                                                  mc.operations, mc.hops)),
                    chain.from_iterable(map(attrgetter("operands"),
                                            mc.operations))), node_count)


def check_ids(ids: Iterable, node_count: int) -> None:
    """:func:`check_node_ids` over node ids already read from the
    records."""
    bad = set(ids).difference(range(node_count))
    if bad:
        raise MissingOperandError(
            f"microcode names value {min(bad, key=repr)!r}, which is not "
            f"one of the plan's {node_count} values")
