"""The fast machine engine (``engine="native"``): one lowering, three tiers.

The interpreted simulator (:func:`repro.machine.simulator.run`) replays the
microcode cycle by cycle through dicts of per-cell register files — faithful,
but every hop and operand is a hash lookup and every cycle rescans all
register files for the pressure statistic.  :func:`lower` turns a
:class:`~repro.machine.microcode.Microcode` once into a
:class:`NativeMachine`:

* values keep the dense node ids the microcode already names them by (the
  :class:`~repro.ir.evaluate.ExecutionPlan`'s); only cell labels are
  interned;
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
for structurally impossible reads and for node ids outside the plan).  It
is value-independent, so one :class:`NativeMachine` serves every
execution with different host inputs
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
from itertools import chain
from operator import attrgetter
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
from repro.machine.microcode import Microcode, check_ids
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
    #: the plan's value keys, indexed by node id
    keys: list[ValueKey]
    #: (host result key, node id) pairs
    outputs: list[tuple[tuple[int, ...], int]]
    #: every id that receives a value, in the interpreter's insertion order
    produced: list[int]
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
        keys = self.keys
        values = ({keys[vid]: buf[vid] for vid in self.produced}
                  if want_values else {})
        results = {host_key: buf[vid] for host_key, vid in self.outputs}
        return MachineRun(values, results, self.copy_stats())


def _order_group(nodes: list[int], operands: list[tuple[int, ...]],
                 where: str) -> list[int]:
    """Lexicographic topological order (positions into ``nodes``) of one
    cell's same-cycle operations: smallest original position first among
    ready nodes — the pure-python equivalent of the interpreter's networkx
    ordering.  ``where`` names the cell and cycle in the cycle error."""
    index = {node: i for i, node in enumerate(nodes)}
    indeg = [0] * len(nodes)
    edges: list[list[int]] = [[] for _ in nodes]
    for i, (node, ops) in enumerate(zip(nodes, operands)):
        for oid in ops:
            if oid == node:
                continue
            j = index.get(oid)
            if j is not None:
                edges[j].append(i)
                indeg[i] += 1
    ready = [i for i in range(len(nodes)) if indeg[i] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        i = heapq.heappop(ready)
        out.append(i)
        for j in edges[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(out) < len(nodes):
        raise MissingOperandError(f"cyclic intra-cycle dependence at {where}")
    return out


def _column(records, attr: str) -> np.ndarray:
    """One int attribute of every record as an int64 array."""
    return np.fromiter(map(attrgetter(attr), records), np.int64,
                       len(records))


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Positions where a new value starts in the sorted array ``ordered``
    (``np.unique`` without its hashing overhead)."""
    if len(ordered) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True],
                                          ordered[1:] != ordered[:-1])))


def _first_per_code(codes: np.ndarray, values: np.ndarray, last: bool = False
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``codes`` with the least (``last``: the greatest)
    of their ``values``."""
    if len(codes) == 0:
        return codes, values
    order = np.lexsort((values, codes))
    codes, values = codes[order], values[order]
    change = codes[1:] != codes[:-1]
    keep = (np.append(change, True) if last
            else np.concatenate(([True], change)))
    return codes[keep], values[keep]


def _lookup(table: tuple[np.ndarray, np.ndarray], codes: np.ndarray,
            default: int) -> np.ndarray:
    """``table``'s value at every code, ``default`` where it has none."""
    keys, values = table
    if len(keys) == 0:
        return np.full(len(codes), default, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, codes), len(keys) - 1)
    return np.where(keys[pos] == codes, values[pos], default)


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

    The records are read into int columns once (cells and streams
    interned); arrivals, last uses, hop sources, link collisions, the
    ``(cycle, cell)`` grouping and operand arrivals are array operations
    over ``cell * node_count + node`` pair codes.
    """
    plan = trace.plan
    keys = plan.keys
    n = plan.node_count
    first, last = mc.first_cycle, mc.last_cycle

    # -- int columns ----------------------------------------------------------
    all_ops, all_hops = mc.operations, mc.hops
    op_nodes = list(map(attrgetter("node"), all_ops))
    hop_nodes = list(map(attrgetter("node"), all_hops))
    op_args = list(map(attrgetter("operands"), all_ops))
    check_ids(chain(map(attrgetter("node"), mc.injections), op_nodes,
                    hop_nodes, chain.from_iterable(op_args)), n)
    injections = [e for e in mc.injections if first <= e.cycle <= last]
    op_cells = list(map(attrgetter("cell"), all_ops))
    hop_srcs = list(map(attrgetter("src"), all_hops))
    hop_dsts = list(map(attrgetter("dst"), all_hops))
    inj_cells = list(map(attrgetter("cell"), injections))
    cells = list(dict.fromkeys(chain(op_cells, hop_srcs, hop_dsts,
                                     inj_cells)))
    cell_ids = {cell: cid for cid, cell in enumerate(cells)}
    n_cells = len(cells)

    def cell_column(labels: list) -> np.ndarray:
        return np.fromiter(map(cell_ids.__getitem__, labels), np.int64,
                           len(labels))

    op_cycle, op_cell = _column(all_ops, "cycle"), cell_column(op_cells)
    op_node = np.asarray(op_nodes, dtype=np.int64)
    widths = np.fromiter(map(len, op_args), np.int64, len(all_ops))
    args = np.fromiter(chain.from_iterable(op_args), np.int64,
                       int(widths.sum()))
    arg_op = np.repeat(np.arange(len(all_ops)), widths)
    arg_start = np.cumsum(widths) - widths
    hop_cycle = _column(all_hops, "cycle")
    hop_node = np.asarray(hop_nodes, dtype=np.int64)
    hop_src, hop_dst = cell_column(hop_srcs), cell_column(hop_dsts)
    inj_cycle = _column(injections, "cycle")
    inj_node = _column(injections, "node")
    inj_cell = cell_column(inj_cells)
    op_in = np.flatnonzero((op_cycle >= first) & (op_cycle <= last))
    hop_in = np.flatnonzero((hop_cycle >= first) & (hop_cycle <= last))

    # Last local use per (cell, value).  Like the interpreter's
    # ``_last_uses`` this scans the *unfiltered* streams, so an
    # out-of-range read still pins its operand's register.
    last_use = _first_per_code(
        np.concatenate((op_cell[arg_op] * n + args, hop_src * n + hop_node)),
        np.concatenate((op_cycle[arg_op], hop_cycle)), last=True)

    # -- arrival cycles per (cell, value) -------------------------------------
    arr_code = np.concatenate((inj_cell * n + inj_node,
                               op_cell[op_in] * n + op_node[op_in],
                               hop_dst[hop_in] * n + hop_node[hop_in]))
    arr_cycle = np.concatenate((inj_cycle, op_cycle[op_in], hop_cycle[hop_in]))
    first_arrival = _first_per_code(arr_code, arr_cycle)

    # -- hop validation + capacity replay (interpreter's phase-1 order) -------
    # A hop reads the pre-cycle register state, so its source value must
    # have arrived *strictly* earlier; reclamation can never have evicted it
    # because the hop itself is a local use.
    hops_seq = hop_in[np.argsort(hop_cycle[hop_in], kind="stable")]
    seq_cycle = hop_cycle[hops_seq]
    arrived = _lookup(first_arrival,
                      hop_src[hops_seq] * n + hop_node[hops_seq], _NEVER)
    stale = (arrived == _NEVER) | (arrived >= seq_cycle)
    if stale.any():
        h = all_hops[hops_seq[int(np.argmax(stale))]]
        raise MissingOperandError(
            f"cycle {h.cycle}: hop of {keys[h.node]} out of {h.src} but "
            f"the value is not there")
    # A channel (link, stream) carries one value per cycle: a hop collides
    # when the hop before it on the same channel in that cycle carries
    # another value.
    streams: dict[tuple[str, str], int] = {}
    hop_stream = np.fromiter(
        (streams.setdefault(all_hops[i].stream, len(streams))
         for i in hops_seq.tolist()), np.int64, len(hops_seq))
    channel = (hop_src[hops_seq] * n_cells + hop_dst[hops_seq]) \
        * max(len(streams), 1) + hop_stream
    by_channel = np.lexsort((channel, seq_cycle))
    ch_cycle, ch_code = seq_cycle[by_channel], channel[by_channel]
    ch_node = hop_node[hops_seq][by_channel]
    collide = ((ch_cycle[1:] == ch_cycle[:-1]) & (ch_code[1:] == ch_code[:-1])
               & (ch_node[1:] != ch_node[:-1]))
    violations: list[tuple] = []
    for pos in np.sort(by_channel[1:][collide]).tolist():
        h = all_hops[hops_seq[pos]]
        violations.append((h.cycle, h.src, h.dst, h.stream))
    strict_error: str | None = None
    if violations:
        cycle, src, dst, stream = violations[0]
        strict_error = (f"cycle {cycle}: stream {stream} needs link "
                        f"{src}->{dst} twice")

    # -- operation ordering + operand validation ------------------------------
    # Cycle-major; within a cycle, cells in first-appearance order; within a
    # cell, lexicographic topological order — the interpreter's schedule.
    by_cycle = op_in[np.argsort(op_cycle[op_in], kind="stable")]
    code = op_cycle[by_cycle] * n_cells + op_cell[by_cycle]
    by_code = np.argsort(code, kind="stable")
    starts = _run_starts(code[by_code])
    rank = np.empty(len(starts), dtype=np.int64)
    rank[np.argsort(by_code[starts])] = np.arange(len(starts))
    code_rank = np.repeat(rank, np.diff(np.append(starts, len(code))))
    regroup = np.argsort(code_rank, kind="stable")
    seq, group = by_cycle[by_code[regroup]], code_rank[regroup]
    bounds = np.searchsorted(group, np.arange(len(starts) + 1)).tolist()
    # A group whose record order already runs every operand edge inside
    # it forward is its own lexicographic topological order; only the
    # others need :func:`_order_group`.  An operand's producer is the last
    # record of the group that makes it.
    at = np.full(len(all_ops), -1, dtype=np.int64)
    at[seq] = np.arange(len(seq))
    inside = at[arg_op] >= 0
    arg_at = at[arg_op[inside]]
    producer = _lookup(_first_per_code(group * n + op_node[seq],
                                       np.arange(len(seq)), last=True),
                       group[arg_at] * n + args[inside], -1)
    backward = (producer > arg_at) & (args[inside] != op_node[seq][arg_at])
    tangled = sorted(set(group[arg_at[backward]].tolist()))
    def check_operands(order: list[int]) -> None:
        """Raise for the first operand, in execution order, that has not
        reached its operation's cell by the operation's cycle."""
        ops = np.asarray(order, dtype=np.int64)
        count = widths[ops]
        owner = np.repeat(ops, count)
        at = np.repeat(arg_start[ops] - (np.cumsum(count) - count),
                       count) + np.arange(int(count.sum()))
        arrived = _lookup(first_arrival, op_cell[owner] * n + args[at],
                          _NEVER)
        late = (arrived == _NEVER) | (arrived > op_cycle[owner])
        if late.any():
            k = int(np.argmax(late))
            op = all_ops[int(owner[k])]
            raise MissingOperandError(
                f"cycle {op.cycle}, cell {op.cell}: {keys[op.node]} "
                f"needs {keys[int(args[at[k]])]}, which never reaches the "
                f"cell in time")

    order = seq.tolist()
    for g in tangled:
        lo, hi = int(bounds[g]), int(bounds[g + 1])
        ops = [all_ops[i] for i in order[lo:hi]]
        try:
            perm = _order_group([op.node for op in ops],
                                [op.operands for op in ops],
                                f"cell {ops[0].cell}, cycle {ops[0].cycle}")
        except MissingOperandError:
            check_operands(order[:lo])
            raise
        order[lo:hi] = [order[lo + i] for i in perm]
    check_operands(order)
    order_arr = np.asarray(order, dtype=np.int64)
    entries = list(zip(op_node[order_arr].tolist(),
                       map(attrgetter("op"), map(all_ops.__getitem__, order)),
                       map(op_args.__getitem__, order)))

    # ``values`` insertion order in the interpreter: per cycle, injections
    # (phase 2) before operations (phase 3).
    prod_cycle = np.concatenate((inj_cycle, op_cycle[order_arr]))
    prod_node = np.concatenate((inj_node, op_node[order_arr]))
    prod_kind = np.repeat([0, 1], [len(injections), len(order)])
    produced = prod_node[np.lexsort((prod_kind, prod_cycle))].tolist()

    # -- protected output values (never reclaimed) ----------------------------
    protected = np.zeros(n, dtype=bool)
    protected[[nid for _, nid in plan.outputs]] = True

    # -- register pressure: vectorised interval-overlap sweep -----------------
    # A value occupies a register in a cell from its first arrival until the
    # end-of-cycle reclamation after its last local use (forever when
    # protected); re-arrivals after reclamation add isolated single-cycle
    # residencies.  The interpreter measures pressure at the end of every
    # cycle *before* reclaiming, which is exactly the overlap count of these
    # closed intervals.
    pair_code, pair_start = first_arrival
    release = np.where(protected[pair_code % n], last,
                       np.maximum(pair_start,
                                  _lookup(last_use, pair_code, _NEVER)))
    rearrive = arr_cycle > _lookup((pair_code, release), arr_code, 0)
    max_regs = 0
    span = last - first + 1
    if len(arr_code) and n_cells:
        cid = np.concatenate((pair_code // n, arr_code[rearrive] // n))
        starts = np.concatenate((pair_start, arr_cycle[rearrive]))
        ends = np.concatenate((np.minimum(release, last), arr_cycle[rearrive]))
        base = cid * (span + 1) - first
        deltas = np.zeros(n_cells * (span + 1), dtype=np.int64)
        np.add.at(deltas, base + starts, 1)
        np.add.at(deltas, base + ends + 1, -1)
        max_regs = int(np.cumsum(deltas).max())

    busy = len(_run_starts(np.sort(op_cycle[op_in] * n_cells
                                   + op_cell[op_in])))
    used_cells = len(_run_starts(np.sort(np.concatenate((
        inj_cell, op_cell[op_in], hop_src[hop_in], hop_dst[hop_in])))))

    stats = MachineStats(
        cycles=mc.span, first_cycle=first, last_cycle=last,
        cells_used=used_cells, operations=len(op_in),
        hops=len(hop_in), injections=len(injections),
        max_registers_per_cell=max_regs, busy_cell_cycles=busy,
        capacity_violations=violations)

    # -- host outputs ---------------------------------------------------------
    made = np.zeros(n, dtype=bool)
    made[prod_node] = True
    for _, nid in plan.outputs:
        if not made[nid]:
            raise MissingOperandError(f"output {keys[nid]} was never computed")

    # -- structural event stream ----------------------------------------------
    # Everything the interpreter emits live is a structural property of the
    # microcode; re-derive it here so a lowered machine can replay the same
    # event log without executing a single value pass.
    events: "list[MachineEvent] | None" = None
    if record_events:
        events = []
        for i in hops_seq.tolist():
            h = all_hops[i]
            events.append(MachineEvent("hop", h.cycle, h.dst,
                                       repr(keys[h.node]), src=h.src,
                                       stream=h.stream))
        for e in injections:
            events.append(MachineEvent("inject", e.cycle, e.cell,
                                       repr(keys[e.node]),
                                       name=e.input_name))
        for i in op_in.tolist():
            op = all_ops[i]
            events.append(MachineEvent(
                "fire", op.cycle, op.cell, repr(keys[op.node]),
                name=op.op.name if op.op is not None else "copy",
                stream=op.stream))
        for host_key, nid in plan.outputs:
            t_prod, c_prod = mc.placement[nid]
            events.append(MachineEvent("output", t_prod, c_prod,
                                       repr(keys[nid]), name=str(host_key)))
        # End-of-cycle reclamation after the last local use (or on arrival
        # when the value is never read locally); re-arrivals after that
        # point are reclaimed again the cycle they land.
        freed = ~protected[pair_code % n]
        kept = np.maximum(pair_start, _lookup(last_use, pair_code, _NEVER))
        again = arr_cycle > _lookup((pair_code, kept), arr_code, 0)
        again &= ~protected[arr_code % n]
        reclaims = np.unique(np.stack((
            np.concatenate((pair_code[freed & (kept <= last)],
                            arr_code[again])),
            np.concatenate((kept[freed & (kept <= last)],
                            arr_cycle[again])))), axis=1)
        for code, cycle in reclaims.T.tolist():
            events.append(MachineEvent("reclaim", cycle, cells[code // n],
                                       repr(keys[code % n])))
        events = canonical_order(events)

    program = build_program(n, entries, map(
        attrgetter("node", "input_name", "input_index"), injections))
    native_tier(program)
    return NativeMachine(
        program=program, keys=keys, outputs=plan.outputs,
        produced=produced, stats=stats, strict_error=strict_error,
        events=events)

