"""The record-walking structural lowering, kept as a test oracle.

:func:`compile_design` and :func:`lower` are the bodies
:func:`repro.machine.microcode.compile_design` and
:func:`repro.machine.native.lower` had before they worked on node-id
arrays: placement, routing, arrival and last-use bookkeeping, the
``(cycle, cell)`` grouping and the event stream walk the microcode record
by record through tuple-keyed dicts.  Tests assert that the array
versions give equal microcode and field-by-field equal machines, and
raise the same errors.
"""

from __future__ import annotations

from typing import Mapping

import heapq

import numpy as np

from repro.ir.evaluate import SystemTrace
from repro.ir.statements import InputRule, LinkRule
from repro.machine.errors import (CapacityError, CausalityError,
                                  LocalityError, MissingOperandError)
from repro.machine.microcode import (Hop, Injection, Microcode, Operation,
                                     check_node_ids)
from repro.machine.native import NativeMachine, native_tier
from repro.machine.simulator import MachineStats
from repro.obs.events import MachineEvent, canonical_order
from repro.space.diophantine import LinkDecomposer
from tests.ir.plan_oracle import build_program

Cell = tuple[int, ...]

_NEVER = -(10 ** 9)


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
    slots: dict[str, tuple[list, list]] = {}
    place = mc.placement = [None] * plan.node_count
    for nid, (key, row) in enumerate(zip(keys, plan.rows)):
        mod = key.module
        slot = slots.get(mod)
        if slot is None:
            pts = plan.points[mod]
            slot = slots[mod] = (
                schedules[mod].times(pts).tolist(),
                list(map(tuple, space_maps[mod].cells(pts).tolist())))
        place[nid] = (slot[0][row], slot[1][row])

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
                mc.hops.append(Hop(vid, pos, nxt, cycle, stream))
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
            mc.injections.append(Injection(nid, cell, t, input_name,
                                           input_index))
            continue
        if isinstance(rule, LinkRule):
            route_requests.append((operands[nid][0], nid, rule.min_gap))
            mc.operations.append(Operation(nid, cell, t, None,
                                           operands[nid], stream))
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
        mc.operations.append(Operation(nid, cell, t, rule.op,
                                       operands[nid], stream))

    # Second pass: route earliest-deadline-first, so transfers with tight
    # windows claim channel slots before slack-rich ones push them out.
    def deadline(request: tuple[int, int, int]) -> tuple:
        vid, cid, _ = request
        t_dst, t_src = place[cid][0], place[vid][0]
        return (t_dst, t_dst - t_src)

    for vid, cid, min_gap in sorted(route_requests, key=deadline):
        route(vid, cid, min_gap)

    mc.injections.sort(key=lambda e: (e.cycle, e.cell))
    mc.operations.sort(key=lambda e: (e.cycle, e.cell))
    mc.hops.sort(key=lambda e: (e.cycle, e.src, e.dst))
    if mc.hops:
        mc.first_cycle = min(mc.first_cycle, min(h.cycle for h in mc.hops))
        mc.last_cycle = max(mc.last_cycle, max(h.cycle for h in mc.hops))
    return mc


def _order_group(ops: list) -> list:
    """Lexicographic topological order of one cell's same-cycle
    :class:`~repro.machine.microcode.Operation` records (smallest original
    position first among ready nodes) — the pure-python equivalent of the
    interpreter's networkx ordering."""
    if len(ops) <= 1:
        return ops
    index = {op.node: i for i, op in enumerate(ops)}
    indeg = [0] * len(ops)
    edges: list[list[int]] = [[] for _ in ops]
    for i, op in enumerate(ops):
        for oid in op.operands:
            if oid == op.node:
                continue
            j = index.get(oid)
            if j is not None:
                edges[j].append(i)
                indeg[i] += 1
    ready = [i for i in range(len(ops)) if indeg[i] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        i = heapq.heappop(ready)
        out.append(ops[i])
        for j in edges[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(out) < len(ops):
        op = ops[0]
        raise MissingOperandError(
            f"cyclic intra-cycle dependence at cell {op.cell}, "
            f"cycle {op.cycle}")
    return out


def lower(mc: Microcode, trace: SystemTrace,
          record_events: bool = False) -> NativeMachine:
    """Lower microcode to a :class:`NativeMachine`.

    Performs all structural validation the interpreter does dynamically
    (operand presence, hop sources, intra-cycle dependence cycles),
    precomputes the entire :class:`MachineStats` block and builds the
    kernel program with its encoded code.  With ``record_events`` the
    cycle-level event stream (injection, fire, hop, output,
    register-reclaim) is also derived structurally — it matches the
    interpreter's live emission event for event.  The microcode's node
    ids are the program's value ids; ``trace.plan`` supplies their keys,
    the host output keys and the never-reclaimed output values.  The
    trace's values are not read.
    """
    plan = trace.plan
    keys = plan.keys
    check_node_ids(mc, plan.node_count)
    first, last = mc.first_cycle, mc.last_cycle
    injections = [e for e in mc.injections if first <= e.cycle <= last]
    operations = [op for op in mc.operations if first <= op.cycle <= last]
    hops = [h for h in mc.hops if first <= h.cycle <= last]

    cell_ids: dict[Cell, int] = {}

    def intern_cell(cell: Cell) -> int:
        return cell_ids.setdefault(cell, len(cell_ids))

    op_records = [(op.cycle, intern_cell(op.cell), op) for op in operations]
    hop_records = [(h.cycle, intern_cell(h.src), intern_cell(h.dst), h)
                   for h in hops]
    inj_records = [(e.cycle, intern_cell(e.cell), e) for e in injections]

    # Last local use per (cell, value).  Like the interpreter's
    # ``_last_uses`` this scans the *unfiltered* event streams, so an
    # out-of-range read still pins its operand's register.
    last_use: dict[tuple[int, int], int] = {}
    for op in mc.operations:
        cid = intern_cell(op.cell)
        for oid in op.operands:
            pair = (cid, oid)
            if op.cycle > last_use.get(pair, _NEVER):
                last_use[pair] = op.cycle
    for h in mc.hops:
        pair = (intern_cell(h.src), h.node)
        if h.cycle > last_use.get(pair, _NEVER):
            last_use[pair] = h.cycle

    # -- arrival cycles per (cell, value) -----------------------------------
    arrivals: dict[tuple[int, int], list[int]] = {}
    for cycle, cid, e in inj_records:
        arrivals.setdefault((cid, e.node), []).append(cycle)
    for cycle, cid, op in op_records:
        arrivals.setdefault((cid, op.node), []).append(cycle)
    for cycle, _, did, h in hop_records:
        arrivals.setdefault((did, h.node), []).append(cycle)
    first_arrival = {pair: min(cs) for pair, cs in arrivals.items()}

    # -- hop validation + capacity replay (interpreter's phase-1 order) -----
    # A hop reads the pre-cycle register state, so its source value must
    # have arrived *strictly* earlier; reclamation can never have evicted it
    # because the hop itself is a local use.
    violations: list[tuple] = []
    strict_error: str | None = None
    hop_records.sort(key=lambda r: r[0])   # stable: original order per cycle
    link_usage: dict[tuple[int, int, tuple[str, str]], int] = {}
    current_cycle: int | None = None
    for cycle, sid, did, h in hop_records:
        if cycle != current_cycle:
            link_usage.clear()
            current_cycle = cycle
        if first_arrival.get((sid, h.node), cycle) >= cycle:
            raise MissingOperandError(
                f"cycle {cycle}: hop of {keys[h.node]} out of {h.src} but "
                f"the value is not there")
        channel = (sid, did, h.stream)
        holder = link_usage.get(channel)
        if holder is not None and holder != h.node:
            violations.append((cycle, h.src, h.dst, h.stream))
            if strict_error is None:
                strict_error = (f"cycle {cycle}: stream {h.stream} needs "
                                f"link {h.src}->{h.dst} twice")
        link_usage[channel] = h.node

    # -- operation ordering + operand validation ----------------------------
    # Cycle-major; within a cycle, cells in first-appearance order; within a
    # cell, lexicographic topological order — the interpreter's schedule.
    groups: dict[tuple[int, int], list] = {}
    for cycle, cid, op in sorted(op_records, key=lambda r: r[0]):
        groups.setdefault((cycle, cid), []).append(op)
    entries: list[tuple[int, object, tuple[int, ...]]] = []
    op_produced: list[tuple[int, int]] = []   # (cycle, value id), in order
    for (cycle, cid), group in groups.items():
        for op in _order_group(group):
            for oid in op.operands:
                arrived = first_arrival.get((cid, oid))
                if arrived is None or arrived > cycle:
                    raise MissingOperandError(
                        f"cycle {cycle}, cell {op.cell}: {keys[op.node]} "
                        f"needs {keys[oid]}, which never reaches the cell "
                        f"in time")
            entries.append((op.node, op.op, op.operands))
            op_produced.append((cycle, op.node))
    # ``values`` insertion order in the interpreter: per cycle, injections
    # (phase 2) before operations (phase 3).
    seq = [(cycle, 0, pos, e.node)
           for pos, (cycle, _, e) in enumerate(inj_records)]
    seq += [(cycle, 1, pos, vid)
            for pos, (cycle, vid) in enumerate(op_produced)]
    seq.sort()
    produced = [vid for _, _, _, vid in seq]
    produced_set = set(produced)

    # -- protected output values (never reclaimed) --------------------------
    protected = {nid for _, nid in plan.outputs}

    # -- register pressure: vectorised interval-overlap sweep ---------------
    # A value occupies a register in a cell from its first arrival until the
    # end-of-cycle reclamation after its last local use (forever when
    # protected); re-arrivals after reclamation add
    # isolated single-cycle residencies.  The interpreter measures pressure
    # at the end of every cycle *before* reclaiming, which is exactly the
    # overlap count of these closed intervals.
    max_regs = 0
    n_cells = len(cell_ids)
    span = last - first + 1
    if arrivals and n_cells:
        starts: list[int] = []
        ends: list[int] = []
        cells_of: list[int] = []
        for (cid, vid), cycles in arrivals.items():
            a0 = min(cycles)
            if vid in protected:
                release = last
            else:
                release = max(a0, last_use.get((cid, vid), _NEVER))
            starts.append(a0)
            ends.append(min(release, last))
            cells_of.append(cid)
            if len(cycles) > 1:
                for a in cycles:
                    if a > release:
                        starts.append(a)
                        ends.append(a)
                        cells_of.append(cid)
        base = np.asarray(cells_of, dtype=np.int64) * (span + 1) - first
        deltas = np.zeros(n_cells * (span + 1), dtype=np.int64)
        np.add.at(deltas, base + np.asarray(starts, dtype=np.int64), 1)
        np.add.at(deltas, base + np.asarray(ends, dtype=np.int64) + 1, -1)
        max_regs = int(np.cumsum(deltas).max())

    busy = {(cid, cycle) for cycle, cid, _ in op_records}
    used_cells = {cid for _, cid, _ in inj_records}
    used_cells.update(cid for _, cid, _ in op_records)
    for _, sid, did, _ in hop_records:
        used_cells.add(sid)
        used_cells.add(did)

    stats = MachineStats(
        cycles=mc.span, first_cycle=first, last_cycle=last,
        cells_used=len(used_cells), operations=len(op_records),
        hops=len(hop_records), injections=len(inj_records),
        max_registers_per_cell=max_regs, busy_cell_cycles=len(busy),
        capacity_violations=violations)

    # -- host outputs -------------------------------------------------------
    for _, nid in plan.outputs:
        if nid not in produced_set:
            raise MissingOperandError(f"output {keys[nid]} was never computed")

    # -- structural event stream --------------------------------------------
    # Everything the interpreter emits live is a structural property of the
    # microcode; re-derive it here so a lowered machine can replay the same
    # event log without executing a single value pass.
    events: "list[MachineEvent] | None" = None
    if record_events:
        events = []
        for cycle, _, _, h in hop_records:
            events.append(MachineEvent("hop", cycle, h.dst,
                                       repr(keys[h.node]), src=h.src,
                                       stream=h.stream))
        for cycle, _, e in inj_records:
            events.append(MachineEvent("inject", cycle, e.cell,
                                       repr(keys[e.node]),
                                       name=e.input_name))
        for cycle, _, op in op_records:
            events.append(MachineEvent(
                "fire", cycle, op.cell, repr(keys[op.node]),
                name=op.op.name if op.op is not None else "copy",
                stream=op.stream))
        for host_key, nid in plan.outputs:
            t_prod, c_prod = mc.placement[nid]
            events.append(MachineEvent("output", t_prod, c_prod,
                                       repr(keys[nid]), name=str(host_key)))
        cells_by_id = list(cell_ids)
        for (cid, vid), cycles in arrivals.items():
            if vid in protected:
                continue
            # End-of-cycle reclamation after the last local use (or on
            # arrival when the value is never read locally); re-arrivals
            # after that point are reclaimed again the cycle they land.
            release = max(min(cycles), last_use.get((cid, vid), _NEVER))
            cell = cells_by_id[cid]
            key_repr = repr(keys[vid])
            if release <= last:
                events.append(MachineEvent("reclaim", release, cell,
                                           key_repr))
            for a in sorted(set(cycles)):
                if a > release:
                    events.append(MachineEvent("reclaim", a, cell,
                                               key_repr))
        events = canonical_order(events)

    program = build_program(
        plan.node_count, entries,
        [(e.node, e.input_name, e.input_index) for _, _, e in inj_records])
    native_tier(program)
    return NativeMachine(
        program=program, keys=keys, outputs=plan.outputs,
        produced=produced, stats=stats, strict_error=strict_error,
        events=events)
