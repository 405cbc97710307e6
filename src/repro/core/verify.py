"""Independent verification of a synthesized design.

A design passes when *both* of these agree:

1. **Symbolic checks** — condition (1) per module, condition (2)
   conflict-freedom over the enumerated domains, the global timing gaps of
   every link instance (read from the system's execution plan by
   :func:`~repro.core.globals.link_constraints`, so a design rebuilt from
   its payload is checked exactly like a fresh one), and flow
   realisability of every dependence;
2. **Physical execution** — the design compiles to microcode (placement +
   routing raise on any causality/locality violation) and the cycle-accurate
   machine, fed only host inputs at the boundary, reproduces the reference
   evaluator's results bit for bit.

The checks are deliberately independent of the solvers: they re-derive
everything from the system and the (T, S) assignments.  The native engine
reuses the execution plan and the microcode the synthesis pipeline handed
the design (or builds and caches the plan and compiles the microcode
once, as for a design rebuilt from its payload); the interpreted oracle
builds and compiles its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.design import Design
from repro.core.globals import link_constraints
from repro.deps.extract import system_dependence_matrices
from repro.ir.evaluate import (
    ExecutionPlan,
    SystemTrace,
    build_execution_plan,
    trace_execution,
)
from repro.ir.vector import HostGather, lower_plan
from repro.machine.engines import Engine, coerce_engine
from repro.machine.errors import CapacityError
from repro.machine.microcode import compile_design
from repro.machine.native import execute_tiered, lower
from repro.machine.simulator import MachineStats, run
from repro.obs import TRACER
from repro.space.allocation import conflict_free, flows_realisable


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_design`."""

    schedule_valid: bool = True
    conflict_free: bool = True
    global_gaps_ok: bool = True
    flows_ok: bool = True
    machine_matches_reference: bool = True
    failures: list[str] = field(default_factory=list)
    machine_stats: MachineStats | None = None
    seeds_checked: int = 1

    @property
    def ok(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:
        status = "OK" if self.ok else "FAILED: " + "; ".join(self.failures)
        return f"VerificationReport({status})"


def _symbolic_checks(design: Design, report: VerificationReport,
                     decomposer, plan: ExecutionPlan) -> None:
    """Conditions (1)–(3) and the global gaps — value-independent."""
    deps = system_dependence_matrices(design.system)
    for name in design.system.modules:
        sched = design.schedules[name]
        smap = design.space_maps[name]
        if not sched.satisfies(deps[name]):
            report.schedule_valid = False
            report.failures.append(
                f"module {name}: T violates condition (1) on "
                f"{sched.violated(deps[name])}")
        pts = design.module_points(name)
        if not conflict_free(sched, smap, pts):
            report.conflict_free = False
            report.failures.append(
                f"module {name}: two computations share (time, cell)")
        if len(deps[name]) and not flows_realisable(
                deps[name], sched, smap, decomposer):
            report.flows_ok = False
            report.failures.append(
                f"module {name}: some dependence flow is not realisable")

    for gc in link_constraints(plan):
        dst_t = design.schedules[gc.dst_module].times(gc.dst_points)
        src_t = design.schedules[gc.src_module].times(gc.src_points)
        if not gc.timing_ok(dst_t, src_t):
            report.global_gaps_ok = False
            report.failures.append(
                f"global constraint {gc.name}: gap below {gc.min_gap}")


def _cached_plan(design: Design, cache: dict) -> ExecutionPlan:
    """The design's execution plan, built at most once."""
    plan = cache.get("plan")
    if plan is None:
        plan = cache["plan"] = build_execution_plan(design.system,
                                                    design.params)
    return plan


def _annotate_machine(stats: MachineStats) -> None:
    """Attach the machine's headline numbers to the active tracer span so a
    recorded run carries them without any caller plumbing."""
    TRACER.annotate(cycles=stats.cycles, cells=stats.cells_used,
                   operations=stats.operations, hops=stats.hops,
                   utilization=round(stats.utilization, 3))


def _check_results(report: VerificationReport, machine_results: Mapping,
                   reference_results: Mapping, prefix: str) -> None:
    if machine_results != reference_results:
        report.machine_matches_reference = False
        diffs = [k for k in reference_results
                 if machine_results.get(k) != reference_results[k]]
        report.failures.append(
            f"{prefix}machine results differ from reference at {diffs[:5]}")


def _verify_looped(design: Design, report: VerificationReport, decomposer,
                   input_sets, prefixes) -> None:
    """The interpreted oracle: a from-scratch reference evaluation and a
    cycle-by-cycle machine run per input set, nothing cached."""
    for prefix, inputs in zip(prefixes, input_sets):
        with TRACER.span("verify.reference"):
            trace = trace_execution(design.system, design.params, inputs)
        try:
            with TRACER.span("verify.compile"):
                mc = compile_design(trace, design.schedules,
                                    design.space_maps, decomposer)
            with TRACER.span("verify.machine"):
                machine = run(mc, trace, inputs)
                _annotate_machine(machine.stats)
        except Exception as exc:  # machine errors are design failures
            report.machine_matches_reference = False
            report.failures.append(
                f"{prefix}machine: {type(exc).__name__}: {exc}")
            return
        if report.machine_stats is None:
            report.machine_stats = machine.stats
        _check_results(report, machine.results, trace.results, prefix)


def _verify_batched(design: Design, report: VerificationReport, decomposer,
                    cache, input_sets, prefixes) -> None:
    """All input sets through one batched value pass, reference and
    machine alike (the native engine); per-seed mismatches are reported
    with their prefix.

    One shared gather evaluates every distinct host fetch once per seed
    for both passes.  Only the output columns are compared — no per-seed
    trace or result dict is materialized, so the whole batch costs two
    level passes plus one array comparison.  Both passes go through one
    tier dispatcher (:func:`repro.machine.native.execute_tiered`): the
    shared C executor, degrading to the ndarray and object tiers wherever
    it cannot run."""
    if not input_sets:
        return
    with TRACER.span("verify.reference"):
        plan = _cached_plan(design, cache)
        vplan = cache.get("vplan")
        if vplan is None:
            vplan = cache["vplan"] = lower_plan(plan)
    try:
        with TRACER.span("verify.compile"):
            machine = cache.get("nmachine")
            if machine is None:
                # Popped: once lowered, the design keeps only the machine.
                trace = SystemTrace(plan)
                mc = cache.pop("microcode", None)
                if mc is None:
                    mc = compile_design(trace, design.schedules,
                                        design.space_maps, decomposer)
                machine = cache["nmachine"] = lower(mc, trace)
            if machine.strict_error is not None:
                raise CapacityError(machine.strict_error)
    except Exception as exc:  # machine errors are design failures
        report.machine_matches_reference = False
        report.failures.append(
            f"{prefixes[0]}machine: {type(exc).__name__}: {exc}")
        return
    gather = cache.get("gather")
    if gather is None:
        gather = cache["gather"] = HostGather((vplan, machine.program))
    host = gather.collect(input_sets)
    with TRACER.span("verify.reference"):
        ref_matrix = execute_tiered(vplan, host, 0)
    try:
        with TRACER.span("verify.machine"):
            mach_matrix = execute_tiered(machine.program, host, 1)
            stats = machine.copy_stats()
            _annotate_machine(stats)
    except Exception as exc:  # machine errors are design failures
        report.machine_matches_reference = False
        report.failures.append(
            f"{prefixes[0]}machine: {type(exc).__name__}: {exc}")
        return
    report.machine_stats = stats
    # Both passes name values by the plan's node ids.
    cols = [nid for _, nid in plan.outputs]
    eq = ref_matrix[:, cols] == mach_matrix[:, cols]
    seed_ok = np.asarray(eq.all(axis=1), dtype=bool)
    for s in np.flatnonzero(~seed_ok).tolist():
        report.machine_matches_reference = False
        diffs = [host_key
                 for (host_key, _), ok in zip(plan.outputs, eq[s]) if not ok]
        report.failures.append(f"{prefixes[s]}machine results differ "
                               f"from reference at {diffs[:5]}")


def verify_design(design: Design, inputs,
                  engine: "Engine | str" = "native",
                  seeds=None) -> VerificationReport:
    """Run all symbolic and physical checks; never raises on a *design*
    failure (the report carries it), only on infrastructure errors.

    ``engine="native"`` (default) evaluates the reference through a
    precomputed execution plan and runs the machine through its lowered
    kernel program, both as level-grouped passes on one C executor
    that is compiled once per toolchain and kept in a persistent
    shared-object cache (:mod:`repro.machine.native`); without a
    toolchain the passes run as ndarray kernels, and inputs outside exact
    int64 range run on object arrays.  Every value-independent artifact
    (the plans, the lowered machine, the symbolic-check outcome) is
    cached on the design, so repeated verification — sweeps
    cross-checking many input seeds — only redoes the value passes; the
    microcode is lowered once and then dropped.
    ``engine="interpreted"`` is the from-scratch oracle: reference
    evaluation plus the cycle-by-cycle simulator, nothing cached.

    ``seeds`` turns one verification into a multi-seed cross-check: pass a
    sequence of seeds and make ``inputs`` a factory ``seed -> input
    mapping``.  Every seed's machine results are compared to its own
    reference run; failures are prefixed with the offending seed.  The
    native engine runs *all* seeds through a single batched pass on
    ``(seeds, nodes)`` arrays, with each host input evaluated once per
    seed for both passes — multi-seed verification at roughly the cost
    of one execution; the interpreter loops.
    """
    engine = coerce_engine(engine)
    report = VerificationReport()
    decomposer = design.interconnect.decomposer()
    cache = design._exec_cache if engine == "native" else None

    with TRACER.span("verify.symbolic"):
        if cache is not None and "symbolic" in cache:
            flags, failures = cache["symbolic"]
            (report.schedule_valid, report.conflict_free,
             report.global_gaps_ok, report.flows_ok) = flags
            report.failures.extend(failures)
        else:
            plan = (build_execution_plan(design.system, design.params)
                    if cache is None else _cached_plan(design, cache))
            _symbolic_checks(design, report, decomposer, plan)
            if cache is not None:
                cache["symbolic"] = (
                    (report.schedule_valid, report.conflict_free,
                     report.global_gaps_ok, report.flows_ok),
                    list(report.failures))

    # Physical execution against the reference evaluator.
    if seeds is None:
        input_sets = [inputs]
        prefixes = [""]
    else:
        if not callable(inputs):
            raise TypeError(
                "with seeds=..., 'inputs' must be a factory callable "
                "mapping a seed to an input binding")
        seeds = list(seeds)
        if not seeds:
            raise ValueError(
                "seeds=[] would check nothing and report ok; pass seeds=None "
                "for a single-input verification or a non-empty sequence")
        input_sets = [inputs(s) for s in seeds]
        prefixes = [f"seed {s}: " for s in seeds]
        report.seeds_checked = len(seeds)

    if cache is not None:
        _verify_batched(design, report, decomposer, cache, input_sets,
                        prefixes)
    else:
        _verify_looped(design, report, decomposer, input_sets, prefixes)
    return report
