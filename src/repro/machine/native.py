"""The fast machine engine (``engine="native"``): one lowering, three tiers.

The interpreted simulator (:func:`repro.machine.simulator.run`) replays the
microcode cycle by cycle through dicts of per-cell register files — faithful,
but every hop and operand is a hash lookup and every cycle rescans all
register files for the pressure statistic.  :func:`lower` turns a
:class:`~repro.machine.microcode.Microcode` once into a
:class:`NativeMachine`:

* every :class:`~repro.ir.evaluate.ValueKey` and cell label is interned to a
  dense id;
* operand availability, hop sources, channel capacities and register
  residency are validated **structurally** — this subsumes the
  interpreter's ``_last_uses`` reclamation and its per-cycle
  ``max_registers_per_cell`` scan, which become a single vectorised
  interval-overlap sweep over (cell, value) residencies;
* every :class:`MachineStats` field, the first strict-mode capacity error
  and (on request) the cycle-level event stream are structural properties
  of the microcode, so they are precomputed; execution only computes
  values;
* the surviving work — operations in the interpreter's order
  (cycle-major, intra-cell dependence order) and host injections — goes
  straight into a level-grouped :class:`~repro.ir.vector.VectorProgram`
  (:func:`~repro.ir.vector.build_program`) and its encoded code.

Lowering raises the interpreter's error types (:class:`MissingOperandError`
for structurally impossible reads).  It is value-independent, so one
:class:`NativeMachine` serves every execution with different host inputs
(the verification engine exploits this when cross-checking a design over
many input seeds).

:func:`execute_tiered` runs one batched pass of any ``VectorProgram`` — the
machine's, or the reference evaluator's in verification — on the best tier
available:

1. **C executor** — the program, encoded as an ``int32`` instruction stream
   (:func:`~repro.codegen.encode_program`), runs on the one precompiled
   executor of :mod:`repro.codegen`, compiled once per toolchain and
   content-addressed, with checked int64 arithmetic;
2. **ndarray kernels** — with no C compiler (or ``$REPRO_NO_NATIVE`` set),
   an op outside the executor's repertoire or a failed compile, the same
   levels run as ndarray gather → ufunc → scatter kernels over the int64
   value matrix;
3. **object arrays** — non-integer inputs (``Fraction``, ``bool``,
   bignums) or an int64 overflow rerun the pass exactly on Python
   objects.

Python runs the gather phase (host input callables are arbitrary Python)
once per batch via :class:`~repro.ir.vector.HostGather`; a whole batch of
input instantiations runs through one pass (the multi-seed verification
axis).  Every tier gives the interpreter's results; counters
(``native.vector_fallbacks``, ``native.input_fallbacks``,
``native.overflow_fallbacks``, one per pass) and the shared
``vector.int64_fallbacks`` warning keep the degradation visible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple

import numpy as np

from repro.codegen.build import NativeExecutor, load_or_build
from repro.codegen.executor import UnsupportedForNative, encode_program
from repro.ir.evaluate import SystemTrace, ValueKey
from repro.ir.vector import (
    HostValues,
    IntegerFallback,
    VectorProgram,
    build_program,
    execute_gathered,
)
from repro.machine.errors import CapacityError, MissingOperandError
from repro.machine.microcode import Microcode
from repro.machine.simulator import MachineRun, MachineStats
from repro.obs import TRACER
from repro.obs.events import EventSink, MachineEvent, canonical_order

Cell = tuple[int, ...]

_NEVER = -(10 ** 9)


# -- the tier dispatcher -----------------------------------------------------

class NativeCode(NamedTuple):
    """A program's C tier: the executor and encoded code, or ``reason``
    why the program runs on the ndarray tier instead."""

    executor: "NativeExecutor | None"
    code: "np.ndarray | None"
    reason: "str | None"


def native_tier(program: VectorProgram) -> NativeCode:
    """The C tier of ``program``, built on the first call and cached on
    the program (``program.native``); the shared executor is built on
    first use through the content-addressed artifact cache."""
    if program.native is None:
        program.native = _build_native(program)
        if program.native.code is None:
            TRACER.count("native.fallback_builds")
    return program.native


def _build_native(program: VectorProgram) -> NativeCode:
    if not program.int_ok:
        return NativeCode(None, None, "program contains ops without exact "
                          "int64 kernels; the ndarray tier runs it")
    try:
        with TRACER.span("native.encode"):
            code = encode_program(program)
    except UnsupportedForNative as exc:
        return NativeCode(None, None, str(exc))
    executor, reason = load_or_build()
    if executor is None:
        return NativeCode(None, None, reason)
    return NativeCode(executor, code, None)


def execute_tiered(program: VectorProgram, host: HostValues,
                   slot: int = 0) -> np.ndarray:
    """One batched pass of ``program`` (gather slot ``slot``) over host
    values already gathered: the dense ``(seeds, node_count)`` value
    matrix.  Levels run in C; any reason the executor cannot run this
    batch exactly drops to the ndarray or object tier (counted, and warned
    once via the shared int64 fallback channel)."""
    executor, code, _ = native_tier(program)
    if code is None:
        TRACER.count("native.vector_fallbacks")
        return execute_gathered(program, host, slot)
    if host.ints is None:
        TRACER.count("native.input_fallbacks")

    def int_pass(program: VectorProgram, values: np.ndarray) -> None:
        with TRACER.span("native.exec"):
            rc = executor.run(values, code)
        if rc == 1:
            TRACER.count("native.overflow_fallbacks")
            raise IntegerFallback("int64 overflow in native kernel")
        if rc != 0:
            raise RuntimeError(
                f"native executor rejected the code stream (status {rc})")

    return execute_gathered(program, host, slot, int_pass)


# -- the lowered machine ------------------------------------------------------

@dataclass
class NativeMachine:
    """A lowered microcode program: its kernel program plus every
    structural property precomputed."""

    program: VectorProgram
    #: (host result key, value id) pairs
    outputs: list[tuple[tuple[int, ...], int]]
    #: every id that receives a value, in the interpreter's insertion order
    produced: list[int]
    #: the value key of every id in ``produced``, aligned with it — the
    #: per-execution ``values`` dict zips these instead of re-indexing
    produced_keys: list[ValueKey]
    stats: MachineStats
    #: first capacity violation, pre-formatted for the ``strict`` raise
    strict_error: str | None
    #: structural event stream (canonical order) — only when the machine
    #: was lowered with ``record_events=True``; value-independent, so one
    #: lowering serves every execution
    events: "list[MachineEvent] | None" = None

    def replay_events(self, sink: "EventSink") -> None:
        """Replay the precomputed structural event stream (requires
        ``lower(..., record_events=True)``) — the same injection / fire /
        hop / output / reclaim vocabulary the interpreter emits live."""
        if self.events is None:
            raise ValueError(
                "machine was lowered without record_events=True; "
                "no event stream to replay")
        for event in self.events:
            sink.emit(event)

    def copy_stats(self) -> MachineStats:
        """A caller-owned copy of the precomputed statistics block."""
        return replace(self.stats, capacity_violations=list(
            self.stats.capacity_violations))

    def execute(self, inputs: Mapping[str, Callable],
                strict: bool = True,
                sink: "EventSink | None" = None,
                want_values: bool = True) -> MachineRun:
        """One value pass, with the interpreter's ``values``/``results``/
        ``stats`` contract.  ``want_values=False`` skips building the full
        per-key ``values`` dict (verification only consumes ``results``).
        """
        if strict and self.strict_error is not None:
            raise CapacityError(self.strict_error)
        if sink is not None:
            self.replay_events(sink)
        host = self.program.gather().collect((inputs,))
        buf = execute_tiered(self.program, host)[0].tolist()
        values = (dict(zip(self.produced_keys,
                           (buf[vid] for vid in self.produced)))
                  if want_values else {})
        results = {host_key: buf[vid] for host_key, vid in self.outputs}
        return MachineRun(values, results, self.copy_stats())


def _order_group(ops: list) -> list:
    """Lexicographic topological order of one cell's same-cycle operations
    ``(key_id, op, operand_ids)`` (smallest original position first among
    ready nodes) — the pure-python equivalent of the interpreter's networkx
    ordering."""
    if len(ops) <= 1:
        return ops
    index = {kid: i for i, (kid, _, _) in enumerate(ops)}
    indeg = [0] * len(ops)
    edges: list[list[int]] = [[] for _ in ops]
    for i, (kid, _, operand_ids) in enumerate(ops):
        for oid in operand_ids:
            if oid == kid:
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
        _, op, _ = ops[0]
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
    interpreter's live emission event for event.  Host output keys and
    the never-reclaimed output values come from ``trace.plan.outputs``;
    the trace's values are not read.
    """
    first, last = mc.first_cycle, mc.last_cycle
    injections = [e for e in mc.injections if first <= e.cycle <= last]
    operations = [op for op in mc.operations if first <= op.cycle <= last]
    hops = [h for h in mc.hops if first <= h.cycle <= last]

    key_ids: dict[ValueKey, int] = {}
    keys: list[ValueKey] = []

    def intern(key: ValueKey) -> int:
        vid = key_ids.get(key)
        if vid is None:
            vid = key_ids[key] = len(keys)
            keys.append(key)
        return vid

    cell_ids: dict[Cell, int] = {}

    def intern_cell(cell: Cell) -> int:
        cid = cell_ids.get(cell)
        if cid is None:
            cid = cell_ids[cell] = len(cell_ids)
        return cid

    op_records = []   # (cycle, cell_id, op, key_id, operand_ids)
    for op in operations:
        cid = intern_cell(op.cell)
        operand_ids = tuple(intern(o) for o in op.operands)
        op_records.append((op.cycle, cid, op, intern(op.key), operand_ids))
    hop_records = []  # (cycle, src_id, dst_id, key_id, hop)
    for h in hops:
        hop_records.append((h.cycle, intern_cell(h.src), intern_cell(h.dst),
                            intern(h.key), h))
    inj_records = []  # (cycle, cell_id, key_id, event)
    for e in injections:
        inj_records.append((e.cycle, intern_cell(e.cell), intern(e.key), e))

    # Last local use per (cell, value).  Like the interpreter's
    # ``_last_uses`` this scans the *unfiltered* event streams, so an
    # out-of-range read still pins its operand's register.  In-window
    # events reuse their records' ids; only the others are interned here,
    # in stream order, so every id matches a single interning pass.
    last_use: dict[tuple[int, int], int] = {}
    op_iter = iter(op_records)
    for op in mc.operations:
        if first <= op.cycle <= last:
            _, cid, _, _, operand_ids = next(op_iter)
        else:
            cid = intern_cell(op.cell)
            operand_ids = tuple(intern(o) for o in op.operands)
        for oid in operand_ids:
            pair = (cid, oid)
            if op.cycle > last_use.get(pair, _NEVER):
                last_use[pair] = op.cycle
    hop_iter = iter(hop_records)
    for h in mc.hops:
        if first <= h.cycle <= last:
            _, sid, _, kid, _ = next(hop_iter)
            pair = (sid, kid)
        else:
            pair = (intern_cell(h.src), intern(h.key))
        if h.cycle > last_use.get(pair, _NEVER):
            last_use[pair] = h.cycle

    # -- arrival cycles per (cell, value) -----------------------------------
    arrivals: dict[tuple[int, int], list[int]] = {}
    for cycle, cid, vid, _ in inj_records:
        arrivals.setdefault((cid, vid), []).append(cycle)
    for cycle, cid, _, kid, _ in op_records:
        arrivals.setdefault((cid, kid), []).append(cycle)
    for cycle, _, did, kid, _ in hop_records:
        arrivals.setdefault((did, kid), []).append(cycle)
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
    for cycle, sid, did, kid, h in hop_records:
        if cycle != current_cycle:
            link_usage.clear()
            current_cycle = cycle
        if first_arrival.get((sid, kid), cycle) >= cycle:
            raise MissingOperandError(
                f"cycle {cycle}: hop of {h.key} out of {h.src} but "
                f"the value is not there")
        channel = (sid, did, h.stream)
        holder = link_usage.get(channel)
        if holder is not None and holder != kid:
            violations.append((cycle, h.src, h.dst, h.stream))
            if strict_error is None:
                strict_error = (f"cycle {cycle}: stream {h.stream} needs "
                                f"link {h.src}->{h.dst} twice")
        link_usage[channel] = kid

    # -- operation ordering + operand validation ----------------------------
    # Cycle-major; within a cycle, cells in first-appearance order; within a
    # cell, lexicographic topological order — the interpreter's schedule.
    groups: dict[tuple[int, int], list] = {}
    group_order: list[tuple[int, int]] = []
    for rec in sorted(op_records, key=lambda r: r[0]):
        gk = (rec[0], rec[1])
        if gk not in groups:
            groups[gk] = []
            group_order.append(gk)
        groups[gk].append((rec[3], rec[2], rec[4]))
    entries: list[tuple[int, object, tuple[int, ...]]] = []
    op_produced: list[tuple[int, int]] = []   # (cycle, value id), in order
    for gk in group_order:
        cycle, cid = gk
        for kid, op, operand_ids in _order_group(groups[gk]):
            for oid, operand in zip(operand_ids, op.operands):
                arrived = first_arrival.get((cid, oid))
                if arrived is None or arrived > cycle:
                    raise MissingOperandError(
                        f"cycle {cycle}, cell {op.cell}: {op.key} needs "
                        f"{operand}, which never reaches the cell in time")
            entries.append((kid, op.op, operand_ids))
            op_produced.append((cycle, kid))
    # ``values`` insertion order in the interpreter: per cycle, injections
    # (phase 2) before operations (phase 3).
    seq = [(cycle, 0, pos, vid)
           for pos, (cycle, _, vid, _) in enumerate(inj_records)]
    seq += [(cycle, 1, pos, vid)
            for pos, (cycle, vid) in enumerate(op_produced)]
    seq.sort()
    produced = [vid for _, _, _, vid in seq]
    produced_set = set(produced)

    # -- protected output values (never reclaimed) --------------------------
    plan = trace.plan
    output_keys = [(plan.keys[nid], host_key)
                   for host_key, nid in plan.outputs]
    protected = {key_ids[key] for key, _ in output_keys if key in key_ids}

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

    busy = {(cid, cycle) for cycle, cid, _, _, _ in op_records}
    used_cells = {cid for _, cid, _, _ in inj_records}
    used_cells.update(cid for _, cid, _, _, _ in op_records)
    for _, sid, did, _, _ in hop_records:
        used_cells.add(sid)
        used_cells.add(did)

    stats = MachineStats(
        cycles=mc.span, first_cycle=first, last_cycle=last,
        cells_used=len(used_cells), operations=len(op_records),
        hops=len(hop_records), injections=len(inj_records),
        max_registers_per_cell=max_regs, busy_cell_cycles=len(busy),
        capacity_violations=violations)

    # -- host outputs -------------------------------------------------------
    outputs: list[tuple[tuple[int, ...], int]] = []
    for key, host_key in output_keys:
        vid = key_ids.get(key)
        if vid is None or vid not in produced_set:
            raise MissingOperandError(f"output {key} was never computed")
        outputs.append((host_key, vid))

    # -- structural event stream --------------------------------------------
    # Everything the interpreter emits live is a structural property of the
    # microcode; re-derive it here so a lowered machine can replay the same
    # event log without executing a single value pass.
    events: "list[MachineEvent] | None" = None
    if record_events:
        events = []
        for cycle, _, _, _, h in hop_records:
            events.append(MachineEvent("hop", cycle, h.dst, repr(h.key),
                                       src=h.src, stream=h.stream))
        for cycle, _, _, e in inj_records:
            events.append(MachineEvent("inject", cycle, e.cell, repr(e.key),
                                       name=e.input_name))
        for cycle, _, op, _, _ in op_records:
            events.append(MachineEvent(
                "fire", cycle, op.cell, repr(op.key),
                name=op.op.name if op.op is not None else "copy",
                stream=op.stream))
        for key, host_key in output_keys:
            t_prod, c_prod = mc.placement[key]
            events.append(MachineEvent("output", t_prod, c_prod, repr(key),
                                       name=str(host_key)))
        cells_by_id = [None] * len(cell_ids)
        for cell, cid in cell_ids.items():
            cells_by_id[cid] = cell
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
        len(keys), entries,
        [(vid, e.input_name, e.input_index) for _, _, vid, e in inj_records])
    native_tier(program)
    return NativeMachine(
        program=program, outputs=outputs, produced=produced,
        produced_keys=[keys[vid] for vid in produced], stats=stats,
        strict_error=strict_error, events=events)
