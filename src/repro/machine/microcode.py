"""Compile a synthesized design into per-cell, per-cycle microcode.

A design assigns every computation of every module a (time, cell) via its
schedule and space map.  This compiler turns the *structure* of a system
execution — which rule fires at each point and which values it reads, as
recorded by its :class:`~repro.ir.evaluate.ExecutionPlan`, never the values
themselves — into three event streams:

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
from typing import Mapping

from repro.ir.evaluate import SystemTrace, ValueKey
from repro.ir.statements import InputRule, LinkRule
from repro.machine.errors import CapacityError, CausalityError, LocalityError
from repro.obs import TRACER
from repro.space.diophantine import LinkDecomposer

Cell = tuple[int, ...]


@dataclass(frozen=True)
class Injection:
    """Host writes ``value_of[key]`` into ``cell``'s registers at ``cycle``."""

    key: ValueKey
    cell: Cell
    cycle: int
    input_name: str
    input_index: tuple[int, ...]


@dataclass(frozen=True)
class Operation:
    """``key := op(*operands)`` executed in ``cell`` at ``cycle``.

    ``op`` is ``None`` for a copy (link transfer arriving as a register
    rename).  ``same_cycle`` flags operands produced in this very cell and
    cycle (intra-cycle forwarding; the simulator orders those topologically).
    """

    key: ValueKey
    cell: Cell
    cycle: int
    op: object          # repro.ir.ops.Op or None for copy
    operands: tuple[ValueKey, ...]
    stream: tuple[str, str]   # (module, var) — the physical channel class


@dataclass(frozen=True)
class Hop:
    """``key`` moves from ``src`` over one link to ``dst`` during ``cycle``."""

    key: ValueKey
    src: Cell
    dst: Cell
    cycle: int
    stream: tuple[str, str]


@dataclass
class Microcode:
    """The complete compiled program of the array."""

    injections: list[Injection] = field(default_factory=list)
    operations: list[Operation] = field(default_factory=list)
    hops: list[Hop] = field(default_factory=list)
    placement: dict[ValueKey, tuple[int, Cell]] = field(default_factory=dict)
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
    """
    plan = trace.plan
    keys, rules, operands = plan.keys, plan.rules, plan.operands
    mc = Microcode()
    # Placement of every value: one T and one S evaluation per module over
    # its domain array, read back through each node's point row.
    with TRACER.span("machine.compile.placement"):
        slots: dict[str, tuple[list, list]] = {}
        place: list[tuple[int, Cell]] = [None] * plan.node_count
        for nid, (key, row) in enumerate(zip(keys, plan.rows)):
            mod = key.module
            slot = slots.get(mod)
            if slot is None:
                pts = plan.points[mod]
                slot = slots[mod] = (
                    schedules[mod].times(pts).tolist(),
                    list(map(tuple, space_maps[mod].cells(pts).tolist())))
            place[nid] = (slot[0][row], slot[1][row])
        mc.placement = dict(zip(keys, place))

    times = [t for t, _ in place]
    mc.first_cycle = min(times) if times else 0
    mc.last_cycle = max(times) if times else 0

    seen_hops: set[tuple[int, Cell, Cell, int]] = set()
    # Channel reservations: one value per (link, stream, cycle).
    reservations: dict[tuple[Cell, Cell, tuple[str, str], int], int] = {}

    def route(vid: int, cid: int, min_gap: int) -> None:
        t_src, c_src = place[vid]
        t_dst, c_dst = place[cid]
        value, consumer = keys[vid], keys[cid]
        gap = t_dst - t_src
        disp = tuple(b - a for a, b in zip(c_src, c_dst))
        if gap < min_gap or (gap == 0 and any(v != 0 for v in disp)):
            raise CausalityError(
                f"{consumer} at t={t_dst} needs {value} produced at t={t_src} "
                f"(gap {gap} < required {max(min_gap, 1) if disp != tuple([0]*len(disp)) else min_gap})")
        if all(v == 0 for v in disp):
            return  # stays in the register file (or same-cycle forwarding)
        hops = decomposer.decompose(disp, gap)
        if hops is None:
            raise LocalityError(
                f"{value} -> {consumer}: displacement {disp} not coverable "
                f"in {gap} cycles on this interconnect")
        stream = (value.module, value.var)
        pos = c_src
        t_prev = t_src
        for idx, mv in enumerate(hops):
            nxt = tuple(a + b for a, b in zip(pos, mv))
            # Retiming window: after the previous hop, early enough that the
            # remaining hops (one per cycle) still make the deadline.
            earliest = t_prev + 1
            latest = t_dst - (len(hops) - 1 - idx)
            cycle = earliest
            while cycle <= latest:
                channel = (pos, nxt, stream, cycle)
                holder = reservations.get(channel)
                if holder is None or holder == vid:
                    break
                cycle += 1
            else:
                raise CapacityError(
                    f"{value} -> {consumer}: channel {pos}->{nxt} of stream "
                    f"{stream} is saturated in cycles "
                    f"[{earliest}, {latest}]")
            reservations[(pos, nxt, stream, cycle)] = vid
            tag = (vid, pos, nxt, cycle)
            if tag not in seen_hops:
                seen_hops.add(tag)
                mc.hops.append(Hop(value, pos, nxt, cycle, stream))
            pos = nxt
            t_prev = cycle

    # First pass: build operations/injections and collect route requests
    # (value id, consumer id, minimum gap).
    route_requests: list[tuple[int, int, int]] = []
    for nid in plan.order:
        key = keys[nid]
        t, cell = place[nid]
        rule = rules[nid]
        stream = (key.module, key.var)
        if isinstance(rule, InputRule):
            input_name, input_index = plan.input_calls[nid]
            mc.injections.append(Injection(key, cell, t, input_name,
                                           input_index))
            continue
        if isinstance(rule, LinkRule):
            route_requests.append((operands[nid][0], nid, rule.min_gap))
            mc.operations.append(Operation(key, cell, t, None,
                                           (keys[operands[nid][0]],), stream))
            continue
        # ComputeRule: route every cross-point operand; same-point operands
        # are intra-cycle reads.
        for op_id in operands[nid]:
            if op_id == nid:
                raise CausalityError(f"{key} depends on itself")
            t_op, c_op = place[op_id]
            if (t_op, c_op) == (t, cell):
                continue  # same cell, same cycle: forwarding inside the cell
            route_requests.append((op_id, nid, 1 if c_op != cell else 0))
            if c_op == cell and t_op >= t:
                raise CausalityError(
                    f"{key} at t={t} reads {keys[op_id]} produced at t={t_op}")
        mc.operations.append(Operation(
            key, cell, t, rule.op,
            tuple([keys[op_id] for op_id in operands[nid]]), stream))

    # Second pass: route earliest-deadline-first, so transfers with tight
    # windows claim channel slots before slack-rich ones push them out.
    def deadline(request: tuple[int, int, int]) -> tuple:
        vid, cid, _ = request
        t_dst, t_src = place[cid][0], place[vid][0]
        return (t_dst, t_dst - t_src)

    with TRACER.span("machine.compile.routing"):
        for vid, cid, min_gap in sorted(route_requests, key=deadline):
            route(vid, cid, min_gap)

    mc.injections.sort(key=lambda e: (e.cycle, e.cell))
    mc.operations.sort(key=lambda e: (e.cycle, e.cell))
    mc.hops.sort(key=lambda e: (e.cycle, e.src, e.dst))
    if mc.hops:
        mc.first_cycle = min(mc.first_cycle, min(h.cycle for h in mc.hops))
        mc.last_cycle = max(mc.last_cycle, max(h.cycle for h in mc.hops))
    return mc
