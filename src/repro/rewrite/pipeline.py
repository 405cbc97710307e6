"""The default lowering, as named passes over :class:`PipelineState`.

The historical one-shot ``synthesize`` body is re-expressed as:

1. ``decompose-chains`` — ingest: restructure a
   :class:`~repro.ir.program.HighLevelSpec` into the system of mutually
   dependent recurrences (chain decomposition + coarse timing), or accept
   an already-canonic :class:`~repro.ir.program.RecurrenceSystem`.
2. ``fuse-accumulators`` — attach composed exact int64 kernels to the
   accumulator composites of the system (ndarray fast path); values and
   event streams are unchanged.
3. ``schedule`` — per-module dependence matrices, the system's
   :class:`~repro.ir.evaluate.ExecutionPlan` (built once per synthesis; a
   cyclic system has no schedule), the global link constraints read from
   it, and joint linear time functions (with the paper's offset
   escalation), normalised to start at cycle 0.
4. ``allocate`` — joint space maps under flow realisability,
   conflict-freedom and adjacency, with plan escalation; each plan's
   candidate that beats the incumbent (the translated plan is searched
   only below the plain plan's cell count) is compile-checked on the
   plan's value-free trace (link bandwidth is outside the solvers' model)
   and the winning candidate's microcode skeleton is kept on the state.
5. ``lower-microcode`` — package the :class:`~repro.core.design.Design`,
   handing it the execution plan and the cell program the ``allocate``
   pass compiled, so native verification lowers that program instead of
   compiling it again.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.core.design import Design
from repro.core.globals import link_constraints
from repro.core.restructure import restructure
from repro.deps.extract import system_dependence_matrices
from repro.ir.evaluate import (
    CyclicDependence,
    SystemTrace,
    build_execution_plan,
)
from repro.ir.program import HighLevelSpec, Module, RecurrenceSystem
from repro.ir.statements import ComputeRule
from repro.ir.vector import fused_int_kernel
from repro.machine.errors import MachineError
from repro.machine.microcode import compile_design
from repro.obs import TRACER
from repro.rewrite.passes import Pass, PassError, PassPipeline, PipelineState
from repro.schedule.multimodule import (
    ModuleSchedulingProblem,
    normalise_start,
    solve_multimodule,
)
from repro.schedule.solver import NoScheduleExists
from repro.space.multimodule import (
    CandidatePool,
    ModuleSpaceProblem,
    NoSpaceMapExists,
    solve_multimodule_space,
)


class DecomposeChainsPass(Pass):
    name = "decompose-chains"
    description = ("restructure a high-level spec into mutually dependent "
                   "chain recurrences (no-op for canonic systems)")

    def run(self, state: PipelineState) -> PipelineState:
        if state.system is not None:
            return state
        if state.spec is None:
            raise PassError(
                "state has neither a spec nor a system; pass one of them "
                "to the pipeline entry point")
        return state.replace(
            system=restructure(state.spec, params=dict(state.params)))


def _fused(rule):
    """``rule`` with the composed int64 kernel attached, or ``None``.

    Only accumulator composites built by
    :func:`~repro.ir.ops.compose_accumulate` (``op.components`` set, no
    kernel yet) whose components are both stock ops qualify; custom
    components stay on the object path.
    """
    if not isinstance(rule, ComputeRule):
        return None
    op = rule.op
    if op.components is None or op.int_kernel is not None:
        return None
    kernel = fused_int_kernel(*op.components)
    if kernel is None:
        return None
    return dataclasses.replace(
        rule, op=dataclasses.replace(op, int_kernel=kernel))


class FuseAccumulatorsPass(Pass):
    name = "fuse-accumulators"
    description = ("attach composed exact int64 kernels to accumulator "
                   "composites (ndarray fast path; values and event "
                   "streams unchanged)")

    def run(self, state: PipelineState) -> PipelineState:
        system: RecurrenceSystem = state.require("system", "decompose-chains")
        modules, changed = [], False
        for module in system.modules.values():
            equations, module_changed = [], False
            for eqn in module.equations.values():
                rules = tuple(_fused(rule) or rule for rule in eqn.rules)
                if any(new is not old for new, old in zip(rules, eqn.rules)):
                    eqn = dataclasses.replace(eqn, rules=rules)
                    module_changed = True
                equations.append(eqn)
            if module_changed:
                module = Module(module.name, module.dims, module.domain,
                                equations)
                changed = True
            modules.append(module)
        if not changed:
            return state
        return state.replace(system=RecurrenceSystem(
            system.name, modules, system.outputs,
            input_names=system.input_names, params=system.params))


class SchedulePass(Pass):
    name = "schedule"
    description = ("build the execution plan, take the link constraints "
                   "from it, jointly solve linear time functions (offset "
                   "escalation on demand), normalise start to cycle 0")

    def run(self, state: PipelineState) -> PipelineState:
        system: RecurrenceSystem = state.require("system", "decompose-chains")
        opts = state.options
        deps = system_dependence_matrices(system)

        with TRACER.span("synthesize.enumerate"):
            try:
                plan = build_execution_plan(system, state.params)
            except CyclicDependence as exc:
                # A value that depends on itself has no time to run at.
                raise NoScheduleExists(
                    f"cyclic dependence: {exc}") from exc
            constraints = link_constraints(plan)
            problems = [ModuleSchedulingProblem(name, module.dims, deps[name],
                                                plan.points[name])
                        for name, module in system.modules.items()]

        with TRACER.span("synthesize.schedule"):
            try:
                time_solution = solve_multimodule(
                    problems, constraints, bound=opts.time_bound,
                    offsets=(0,))
            except NoScheduleExists:
                time_solution = solve_multimodule(
                    problems, constraints, bound=opts.time_bound,
                    offsets=range(-opts.time_bound, opts.time_bound + 1))
        schedules = normalise_start(time_solution.schedules, problems,
                                    start=0)
        return state.replace(plan=plan, deps=deps,
                             constraints=tuple(constraints),
                             schedules=schedules)


class AllocatePass(Pass):
    name = "allocate"
    description = ("jointly solve space maps (adjacency, conflict-freedom, "
                   "flow realisability; plan escalation), compile-checking "
                   "every candidate's placement and routing on a value-free "
                   "trace")

    def run(self, state: PipelineState) -> PipelineState:
        system: RecurrenceSystem = state.require("system", "decompose-chains")
        schedules = state.require("schedules", "schedule")
        deps = state.require("deps", "schedule")
        constraints = state.require("constraints", "schedule")
        check_trace = SystemTrace(state.require("plan", "schedule"))
        points = check_trace.plan.points
        space_bound = state.options.space_bound
        interconnect = state.interconnect
        decomposer = interconnect.decomposer()

        def offsets_for(name: str, plan: str) -> Sequence[int]:
            if plan == "plain":
                return (0,)
            # "translated" plan: allow small offsets for low-dimensional
            # modules (combine statements) where a translation can fold
            # their cells onto another module's region — the Section VI
            # design maps A5 to cell (i+1, i).  High-dimensional modules
            # keep offset 0: a common translation never reduces their own
            # cell count.
            module = system.modules[name]
            if len(module.dims) <= interconnect.label_dim:
                return (-1, 0, 1)
            return (0,)

        best = None
        best_mc = None
        last_error: NoSpaceMapExists | None = None

        def lowering(candidate):
            """Physical feasibility of a candidate beyond the solvers'
            model.

            The space solver enforces adjacency and conflict-freedom but
            not link *bandwidth*: a minimal-cells solution can still need
            one physical channel twice in the same cycle.  Compile the
            candidate's placement and routing over a value-free trace;
            returns ``(microcode, None)`` or ``(None, failure)``."""
            try:
                mc = compile_design(check_trace, schedules, candidate.maps,
                                    decomposer)
            except MachineError as exc:
                return None, NoSpaceMapExists(
                    f"space solution does not lower: "
                    f"{type(exc).__name__}: {exc}")
            return mc, None

        # One pool for every solve below: each module's candidates are
        # enumerated once.  The translated plan replaces the plain one only
        # with strictly fewer cells, so the plain count bounds its search.
        pool = CandidatePool(decomposer, interconnect.label_dim)
        with TRACER.span("synthesize.space"):
            for plan in ("plain", "translated"):
                space_problems = [
                    ModuleSpaceProblem(name, system.modules[name].dims,
                                       deps[name], points[name],
                                       schedules[name], bound=space_bound,
                                       offsets=offsets_for(name, plan))
                    for name in system.modules]
                try:
                    candidate = solve_multimodule_space(
                        space_problems, constraints, decomposer,
                        interconnect.label_dim, pool=pool,
                        below=None if best is None else best.total_cells)
                except NoSpaceMapExists as exc:
                    last_error = exc
                    continue
                if candidate is None:       # nothing beats the incumbent
                    continue
                mc, failure = lowering(candidate)
                if failure is not None:
                    last_error = failure
                    continue
                best, best_mc = candidate, mc
            if best is None:
                # Final escalation: offsets everywhere.
                space_problems = [
                    ModuleSpaceProblem(name, system.modules[name].dims,
                                       deps[name], points[name],
                                       schedules[name], bound=space_bound,
                                       offsets=(-1, 0, 1))
                    for name in system.modules]
                try:
                    best = solve_multimodule_space(
                        space_problems, constraints, decomposer,
                        interconnect.label_dim, pool=pool)
                except NoSpaceMapExists as exc:
                    error = last_error if last_error is not None else exc
                    raise error from exc
                best_mc, failure = lowering(best)
                if failure is not None:
                    raise failure
        return state.replace(space_maps=best.maps, microcode=best_mc)


class LowerMicrocodePass(Pass):
    name = "lower-microcode"
    description = ("package the Design and hand it the execution plan and "
                   "the value-free cell program the allocate pass "
                   "compiled for the chosen placement")

    def run(self, state: PipelineState) -> PipelineState:
        system: RecurrenceSystem = state.require("system", "decompose-chains")
        schedules = state.require("schedules", "schedule")
        space_maps = state.require("space_maps", "allocate")
        plan = state.require("plan", "schedule")
        microcode = state.require("microcode", "allocate")
        design = Design(system=system, params=dict(state.params),
                        interconnect=state.interconnect,
                        schedules=dict(schedules),
                        space_maps=dict(space_maps))
        # Native verification reads both from here instead of building
        # them again; nothing in the cache is persisted.
        design._exec_cache.update(plan=plan, microcode=microcode)
        return state.replace(design=design)


#: The passes of the default lowering, in order.
PASS_REGISTRY: dict[str, type[Pass]] = {
    cls.name: cls for cls in (DecomposeChainsPass, FuseAccumulatorsPass,
                              SchedulePass, AllocatePass, LowerMicrocodePass)
}

#: Pass names of the default lowering, in order.
DEFAULT_PASS_NAMES: tuple[str, ...] = tuple(PASS_REGISTRY)


def make_pass(name: str) -> Pass:
    """Instantiate a registered pass by name."""
    try:
        return PASS_REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown pass {name!r}; available: "
                       f"{sorted(PASS_REGISTRY)}") from None


def available_passes() -> list[tuple[str, str]]:
    """``(name, description)`` for every pass, in pipeline order."""
    return [(name, cls.description) for name, cls in PASS_REGISTRY.items()]


def default_pipeline() -> PassPipeline:
    """The pipeline equivalent to the historical one-shot lowering.

    Byte-identical contract: on every input the resulting design and the
    canonical event streams of both engines match the pre-pipeline
    ``synthesize`` exactly.
    """
    return PassPipeline([make_pass(name) for name in DEFAULT_PASS_NAMES])


def run_pipeline(source: "RecurrenceSystem | HighLevelSpec",
                 params: Mapping[str, int], interconnect,
                 options, pipeline: PassPipeline | None = None
                 ) -> PipelineState:
    """Thread ``source`` through ``pipeline`` (default: the full lowering).

    ``source`` may be a canonic :class:`RecurrenceSystem` (the historical
    entry point) or a :class:`HighLevelSpec`, in which case the
    ``decompose-chains`` pass performs the Section III restructuring
    first.  Returns the final state; the packaged design (if the pipeline
    lowered that far) is ``state.design``.
    """
    if pipeline is None:
        pipeline = default_pipeline()
    state = PipelineState(params=dict(params), interconnect=interconnect,
                          options=options)
    if isinstance(source, HighLevelSpec):
        state = state.replace(spec=source)
    elif isinstance(source, RecurrenceSystem):
        state = state.replace(system=source)
    else:
        raise TypeError(
            f"source must be a RecurrenceSystem or HighLevelSpec, "
            f"got {type(source).__name__}")
    return pipeline.run(state)
