"""Compile a synthesized design into per-cell, per-cycle microcode.

A design assigns every computation of every module a (time, cell) via its
schedule and space map.  This compiler turns the *structure* of a system
execution — which rule fires at each point and which values it reads, never
the values themselves — into three event streams:

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

import numpy as np

from repro.ir.arrayeval import eval_index_int
from repro.ir.evaluate import SystemTrace, ValueKey
from repro.ir.statements import ComputeRule, InputRule, LinkRule
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
    """Lower an executed system trace onto the array.

    ``schedules`` / ``space_maps`` map module names to
    :class:`~repro.schedule.linear.LinearSchedule` /
    :class:`~repro.space.allocation.SpaceMap`.
    """
    mc = Microcode()
    # Placement of every value: batch T and S per module over the point
    # array instead of evaluating them key by key.
    with TRACER.span("machine.compile.placement"):
        by_module: dict[str, list[ValueKey]] = {}
        for key in trace.events:
            by_module.setdefault(key.module, []).append(key)
        for mod, keys in by_module.items():
            ndims = len(trace.system.modules[mod].dims)
            pts = np.array([k.point for k in keys],
                           dtype=np.int64).reshape(len(keys), ndims)
            times = schedules[mod].times(pts).tolist()
            cells = list(map(tuple, space_maps[mod].cells(pts).tolist()))
            for key, t, cell in zip(keys, times, cells):
                mc.placement[key] = (int(t), cell)

    times = [t for t, _ in mc.placement.values()]
    mc.first_cycle = min(times) if times else 0
    mc.last_cycle = max(times) if times else 0

    # Injection indices: evaluate each InputRule's index expressions over
    # the whole batch of points selecting that rule.
    inj_index: dict[ValueKey, tuple[int, ...]] = {}
    with TRACER.span("machine.compile.injections"):
        inj_groups: dict[tuple[str, int], tuple[object, list[ValueKey]]] = {}
        for key, event in trace.events.items():
            if isinstance(event.rule, InputRule):
                group = inj_groups.setdefault(
                    (key.module, id(event.rule)), (event.rule, []))
                group[1].append(key)
        for (mod, _), (rule, keys) in inj_groups.items():
            dims = trace.system.modules[mod].dims
            pts = np.array([k.point for k in keys],
                           dtype=np.int64).reshape(len(keys), len(dims))
            cols = [eval_index_int(e, dims, pts, trace.params)
                    for e in rule.index]
            rows = (map(tuple, np.column_stack(cols).tolist()) if cols
                    else (() for _ in keys))
            for key, idx in zip(keys, rows):
                inj_index[key] = idx

    seen_hops: set[tuple[ValueKey, Cell, Cell, int]] = set()
    # Channel reservations: one value per (link, stream, cycle).
    reservations: dict[tuple[Cell, Cell, tuple[str, str], int], ValueKey] = {}

    def route(value: ValueKey, consumer: ValueKey, min_gap: int) -> None:
        t_src, c_src = mc.placement[value]
        t_dst, c_dst = mc.placement[consumer]
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
                if holder is None or holder == value:
                    break
                cycle += 1
            else:
                raise CapacityError(
                    f"{value} -> {consumer}: channel {pos}->{nxt} of stream "
                    f"{stream} is saturated in cycles "
                    f"[{earliest}, {latest}]")
            reservations[(pos, nxt, stream, cycle)] = value
            tag = (value, pos, nxt, cycle)
            if tag not in seen_hops:
                seen_hops.add(tag)
                mc.hops.append(Hop(value, pos, nxt, cycle, stream))
            pos = nxt
            t_prev = cycle

    # First pass: build operations/injections and collect route requests.
    route_requests: list[tuple[ValueKey, ValueKey, int]] = []
    for key, event in trace.events.items():
        t, cell = mc.placement[key]
        rule = event.rule
        stream = (key.module, key.var)
        if isinstance(rule, InputRule):
            mc.injections.append(Injection(key, cell, t, rule.input_name,
                                           inj_index[key]))
            continue
        if isinstance(rule, LinkRule):
            src = event.operands[0]
            route_requests.append((src, key, rule.min_gap))
            mc.operations.append(Operation(key, cell, t, None,
                                           event.operands, stream))
            continue
        # ComputeRule: route every cross-point operand; same-point operands
        # are intra-cycle reads.
        for operand in event.operands:
            if operand == key:
                raise CausalityError(f"{key} depends on itself")
            t_op, c_op = mc.placement[operand]
            if (t_op, c_op) == (t, cell):
                continue  # same cell, same cycle: forwarding inside the cell
            route_requests.append((operand, key, 1 if c_op != cell else 0))
            if c_op == cell and t_op >= t:
                raise CausalityError(
                    f"{key} at t={t} reads {operand} produced at t={t_op}")
        mc.operations.append(Operation(key, cell, t, rule.op,
                                       event.operands, stream))

    # Second pass: route earliest-deadline-first, so transfers with tight
    # windows claim channel slots before slack-rich ones push them out.
    def deadline(request: tuple[ValueKey, ValueKey, int]) -> tuple:
        value, consumer, _ = request
        t_dst, _ = mc.placement[consumer]
        t_src, _ = mc.placement[value]
        return (t_dst, t_dst - t_src)

    with TRACER.span("machine.compile.routing"):
        for value, consumer, min_gap in sorted(route_requests, key=deadline):
            route(value, consumer, min_gap)

    mc.injections.sort(key=lambda e: (e.cycle, e.cell))
    mc.operations.sort(key=lambda e: (e.cycle, e.cell))
    mc.hops.sort(key=lambda e: (e.cycle, e.src, e.dst))
    if mc.hops:
        mc.first_cycle = min(mc.first_cycle, min(h.cycle for h in mc.hops))
        mc.last_cycle = max(mc.last_cycle, max(h.cycle for h in mc.hops))
    return mc
