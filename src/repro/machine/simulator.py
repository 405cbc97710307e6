"""The clocked systolic array machine.

Executes compiled :class:`~repro.machine.microcode.Microcode` with strictly
local semantics — this is the substrate standing in for the paper's
(hypothetical) VLSI hardware:

* every cell owns a register file; an operation may read only registers
  present *in its own cell* at its cycle (same-cycle values produced earlier
  in the cell's topological order are visible — combinational forwarding);
* values move between cells only as explicit one-link-per-cycle hops;
* per cycle, per link, per named stream (module, variable) at most one value
  may cross — one physical channel per stream, the standard systolic wiring
  (violations are recorded; ``strict=True`` raises);
* host data enters only through injection events.

The machine recomputes every value from injected inputs; it never peeks at
the reference trace's values.  Registers hold values by plan node id, the
name the microcode gives them; :func:`run` returns every value under its
:class:`~repro.ir.evaluate.ValueKey` and the machine's results keyed like
the system outputs, plus execution statistics.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.util.lazyimport import lazy_import

nx = lazy_import("networkx")

from repro.ir.evaluate import SystemTrace, ValueKey
from repro.machine.engines import Engine, coerce_engine
from repro.machine.errors import CapacityError, MissingOperandError
from repro.machine.microcode import Microcode, check_node_ids
from repro.obs.events import EventSink, MachineEvent

Cell = tuple[int, ...]


@dataclass
class MachineStats:
    """Execution statistics of one machine run."""

    cycles: int = 0
    first_cycle: int = 0
    last_cycle: int = 0
    cells_used: int = 0
    operations: int = 0
    hops: int = 0
    injections: int = 0
    max_registers_per_cell: int = 0
    busy_cell_cycles: int = 0
    capacity_violations: list[tuple] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        """Busy (cell, cycle) slots over the whole space-time volume."""
        volume = self.cells_used * max(self.cycles, 1)
        return self.busy_cell_cycles / volume if volume else 0.0


@dataclass
class MachineRun:
    """Results + stats of a machine execution."""

    values: dict[ValueKey, object]
    results: dict[tuple[int, ...], object]
    stats: MachineStats


def _order_same_cycle(ops: list) -> list:
    """Topologically order a cell's same-cycle operations along their
    intra-cycle operand edges (a' and b' feed c' within one cell action)."""
    if len(ops) <= 1:
        return ops
    g = nx.DiGraph()
    g.add_nodes_from(range(len(ops)))
    index = {op.node: i for i, op in enumerate(ops)}
    for i, op in enumerate(ops):
        for operand in op.operands:
            if operand in index and operand != op.node:
                g.add_edge(index[operand], i)
    try:
        # Lexicographic topological order: deterministic, keeps original
        # relative order among independent operations.
        order = list(nx.lexicographical_topological_sort(g))
    except nx.NetworkXUnfeasible as exc:
        raise MissingOperandError(
            f"cyclic intra-cycle dependence at cell {ops[0].cell}, "
            f"cycle {ops[0].cycle}") from exc
    return [ops[i] for i in order]


def _last_uses(mc: Microcode) -> dict[tuple[Cell, int], int]:
    """Last cycle each value (node id) is read in each cell — drives
    register reclamation, so the reported register pressure reflects what
    a real register file would need, not the whole history."""
    last: dict[tuple[Cell, int], int] = {}
    for op in mc.operations:
        for operand in op.operands:
            key = (op.cell, operand)
            if last.get(key, mc.first_cycle - 1) < op.cycle:
                last[key] = op.cycle
    for hop in mc.hops:
        key = (hop.src, hop.node)
        if last.get(key, mc.first_cycle - 1) < hop.cycle:
            last[key] = hop.cycle
    return last


def run(mc: Microcode, trace: SystemTrace,
        inputs: Mapping[str, Callable], strict: bool = True,
        engine: "Engine | str" = "interpreted",
        sink: "EventSink | None" = None) -> MachineRun:
    """Execute the microcode cycle by cycle.

    ``inputs`` binds host input names to callables (same binding as the
    reference evaluator).  ``trace`` supplies the plan (the keys of the
    microcode's node ids) and output bookkeeping (which values are
    results) — not values.  A value's register is freed after its last
    local use, so ``stats.max_registers_per_cell`` measures true register
    pressure.

    ``engine`` selects the execution strategy: ``"interpreted"`` is this
    cycle-by-cycle loop — the semantic oracle; ``"native"`` lowers the
    microcode once to a kernel program (:func:`repro.machine.native.lower`)
    and runs it on the shared C executor, the ndarray kernels or exact
    object arrays.  Both produce identical output.

    ``sink`` opts into the cycle-level event log: every injection, fire,
    hop, output and register reclamation is emitted as a
    :class:`~repro.obs.events.MachineEvent` (``native`` replays the
    identical stream, derived structurally at lowering time).
    """
    if coerce_engine(engine) == "native":
        from repro.machine.native import lower

        return lower(mc, trace, record_events=sink is not None).execute(
            inputs, strict, sink=sink)
    keys = trace.plan.keys
    check_node_ids(mc, len(keys))
    # Register files spring into being on first write: explicit .get()
    # probes keep cells that merely relay or read from materialising empty
    # files (a defaultdict here used to inflate the per-cycle pressure scan).
    registers: dict[Cell, dict[int, object]] = {}
    values: dict[ValueKey, object] = {}
    stats = MachineStats()
    last_use = _last_uses(mc)
    # Output values must survive to the end regardless of local use.  They
    # come from the system's output spec, not from ``plan.outputs``, so the
    # oracle does not share the plan's output bookkeeping.
    system, params = trace.system, trace.params
    outputs = [(out, p) for out in system.outputs
               for p in out.domain.points(params)]
    output_keys = {ValueKey(out.module, out.var, p) for out, p in outputs}
    output_ids = {key: nid for nid, key in enumerate(keys)
                  if key in output_keys}
    protected = set(output_ids.values())

    inj_by_cycle: dict[int, list] = defaultdict(list)
    for e in mc.injections:
        inj_by_cycle[e.cycle].append(e)
    hops_by_cycle: dict[int, list] = defaultdict(list)
    for h in mc.hops:
        hops_by_cycle[h.cycle].append(h)
    ops_by_cycle: dict[int, dict[Cell, list]] = defaultdict(
        lambda: defaultdict(list))
    for op in mc.operations:
        ops_by_cycle[op.cycle][op.cell].append(op)

    busy: set[tuple[Cell, int]] = set()
    all_cells: set[Cell] = set()

    for cycle in range(mc.first_cycle, mc.last_cycle + 1):
        # Phase 1 — link transfers (reads see the pre-cycle register state).
        link_usage: dict[tuple[Cell, Cell, tuple[str, str]], int] = {}
        arrivals: list[tuple[Cell, int, object]] = []
        for hop in hops_by_cycle.get(cycle, ()):
            src_regs = registers.get(hop.src)
            if src_regs is None or hop.node not in src_regs:
                raise MissingOperandError(
                    f"cycle {cycle}: hop of {keys[hop.node]} out of "
                    f"{hop.src} but the value is not there")
            channel = (hop.src, hop.dst, hop.stream)
            if channel in link_usage and link_usage[channel] != hop.node:
                stats.capacity_violations.append(
                    (cycle, hop.src, hop.dst, hop.stream))
                if strict:
                    raise CapacityError(
                        f"cycle {cycle}: stream {hop.stream} needs link "
                        f"{hop.src}->{hop.dst} twice")
            link_usage[channel] = hop.node
            arrivals.append((hop.dst, hop.node, src_regs[hop.node]))
            all_cells.update((hop.src, hop.dst))
            if sink is not None:
                sink.emit(MachineEvent("hop", cycle, hop.dst,
                                       repr(keys[hop.node]), src=hop.src,
                                       stream=hop.stream))
        for dst, nid, value in arrivals:
            registers.setdefault(dst, {})[nid] = value
        stats.hops += len(arrivals)

        # Phase 2 — host injections.
        for e in inj_by_cycle.get(cycle, ()):
            value = inputs[e.input_name](*e.input_index)
            registers.setdefault(e.cell, {})[e.node] = value
            values[keys[e.node]] = value
            stats.injections += 1
            all_cells.add(e.cell)
            if sink is not None:
                sink.emit(MachineEvent("inject", cycle, e.cell,
                                       repr(keys[e.node]),
                                       name=e.input_name))

        # Phase 3 — cell operations (topologically ordered within a cell).
        for cell, ops in ops_by_cycle.get(cycle, {}).items():
            for op in _order_same_cycle(ops):
                regs = registers.get(cell)
                operand_values = []
                for operand in op.operands:
                    if regs is None or operand not in regs:
                        held = sorted(repr(keys[nid]) for nid in regs or ())
                        raise MissingOperandError(
                            f"cycle {cycle}, cell {cell}: {keys[op.node]} "
                            f"needs {keys[operand]}, register file has "
                            f"{held[:6]}...")
                    operand_values.append(regs[operand])
                if op.op is None:
                    result = operand_values[0]
                else:
                    result = op.op(*operand_values)
                if regs is None:
                    regs = registers[cell] = {}
                regs[op.node] = result
                values[keys[op.node]] = result
                busy.add((cell, cycle))
                stats.operations += 1
                all_cells.add(cell)
                if sink is not None:
                    sink.emit(MachineEvent(
                        "fire", cycle, cell, repr(keys[op.node]),
                        name=op.op.name if op.op is not None else "copy",
                        stream=op.stream))
        if registers:
            stats.max_registers_per_cell = max(
                stats.max_registers_per_cell,
                max((len(r) for r in registers.values()), default=0))
        # Reclaim registers whose last local use has passed; drop register
        # files that empty out so they stop contributing to the scan above.
        reclaimed: list[tuple[Cell, str]] = []
        for cell in list(registers):
            regs = registers[cell]
            dead = [nid for nid in regs
                    if nid not in protected
                    and last_use.get((cell, nid), -10**9) <= cycle]
            for nid in dead:
                del regs[nid]
                if sink is not None:
                    reclaimed.append((cell, repr(keys[nid])))
            if not regs:
                del registers[cell]
        if sink is not None:
            # Canonical within-cycle order (cell, then the key's repr):
            # register-file iteration order is an implementation detail
            # the log must not leak.
            for cell, key_repr in sorted(reclaimed):
                sink.emit(MachineEvent("reclaim", cycle, cell, key_repr))

    stats.first_cycle = mc.first_cycle
    stats.last_cycle = mc.last_cycle
    stats.cycles = mc.span
    stats.cells_used = len(all_cells)
    stats.busy_cell_cycles = len(busy)

    # Collect host results exactly as the system's output spec defines them.
    results: dict[tuple[int, ...], object] = {}
    for out, p in outputs:
        binding = {**params, **dict(zip(out.domain.dims, p))}
        host_key = tuple(e.evaluate_int(binding) for e in out.key)
        key = ValueKey(out.module, out.var, p)
        if key not in values:
            raise MissingOperandError(f"output {key} was never computed")
        results[host_key] = values[key]
        if sink is not None:
            t_prod, c_prod = mc.placement[output_ids[key]]
            sink.emit(MachineEvent("output", t_prod, c_prod, repr(key),
                                   name=str(host_key)))
    return MachineRun(values, results, stats)
