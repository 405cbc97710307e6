"""The default lowering, as named passes over :class:`PipelineState`.

The historical one-shot ``synthesize`` body is re-expressed as:

1. ``decompose-chains`` — ingest: restructure a
   :class:`~repro.ir.program.HighLevelSpec` into the system of mutually
   dependent recurrences (chain decomposition + coarse timing), or accept
   an already-canonic :class:`~repro.ir.program.RecurrenceSystem`; lift it
   into the typed rewrite IR.
2. ``fuse-accumulators`` — pattern pass attaching composed exact int64
   kernels to accumulator composites (vector-engine fast path); replaces
   the fused-kernel wiring the restructurer used to hard-code.
3. ``schedule`` — per-module dependence matrices, global link
   constraints, joint linear time functions (with the paper's offset
   escalation), normalised to start at cycle 0.
4. ``allocate`` — joint space maps under flow realisability,
   conflict-freedom and adjacency, with plan escalation; every candidate
   is compile-checked on a value-free trace (link bandwidth is outside
   the solvers' model) and the winning candidate's microcode skeleton is
   kept on the state.
5. ``lower-microcode`` — package the :class:`~repro.core.design.Design`
   and guarantee the cell program exists (compiling it if a custom
   pipeline skipped the allocate-time check).

``cse`` (cross-chain common-subexpression elimination) is available from
the registry but *not* part of :func:`default_pipeline`: merging duplicate
carrier chains changes the synthesized design, which callers opt into via
``default_pipeline().with_pass(make_pass("cse"), after="fuse-accumulators")``.
``lower-native`` is likewise registry-only: it encodes the design's
machine program for the shared native executor (``engine="native"``),
building that executor through the content-addressed artifact cache if
this process has not loaded it yet, so later verification starts warm — a
deployment step, not part of the synthesis contract, and a no-op fallback
without a C toolchain.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.design import Design
from repro.core.globals import link_constraints
from repro.core.restructure import restructure
from repro.deps.extract import system_dependence_matrices
from repro.ir.evaluate import structural_trace
from repro.ir.program import HighLevelSpec, RecurrenceSystem
from repro.machine.errors import MachineError
from repro.machine.microcode import compile_design
from repro.rewrite.ir import ir_to_system, system_to_ir, verify_ir
from repro.rewrite.passes import Pass, PassError, PassPipeline, PipelineState
from repro.rewrite.patterns import (
    CrossChainCSE,
    FuseAccumulatorKernels,
    apply_patterns,
)
from repro.schedule.multimodule import (
    ModuleSchedulingProblem,
    normalise_start,
    solve_multimodule,
)
from repro.schedule.solver import NoScheduleExists
from repro.space.multimodule import (
    ModuleSpaceProblem,
    NoSpaceMapExists,
    solve_multimodule_space,
)
from repro.util.instrument import STATS


class DecomposeChainsPass(Pass):
    name = "decompose-chains"
    description = ("restructure a high-level spec into mutually dependent "
                   "chain recurrences (no-op for canonic systems) and lift "
                   "it into the rewrite IR")

    def run(self, state: PipelineState) -> PipelineState:
        if state.system is None:
            if state.spec is None:
                raise PassError(
                    "state has neither a spec nor a system; pass one of "
                    "them to the pipeline entry point")
            state = state.replace(
                system=restructure(state.spec, params=dict(state.params)))
        if state.ir is None:
            state = state.replace(ir=system_to_ir(state.system))
        return state


class PatternPass(Pass):
    """A pass that drives rewrite patterns to fixpoint over the system IR.

    Subclasses set ``patterns``.  The evaluation-side system is rebuilt
    only when something was actually rewritten, so a no-op pattern pass
    keeps the caller's system object untouched.
    """

    patterns: tuple = ()

    def run(self, state: PipelineState) -> PipelineState:
        ir = state.ir
        if ir is None:
            system = state.require("system", "decompose-chains")
            ir = system_to_ir(system)
        new_ir, counts = apply_patterns(ir, self.patterns)
        if not counts:
            return state.replace(ir=ir)
        verify_ir(new_ir)
        return state.replace(ir=new_ir, system=ir_to_system(new_ir))


class FuseAccumulatorsPass(PatternPass):
    name = "fuse-accumulators"
    description = ("attach composed exact int64 kernels to accumulator "
                   "composites (vector-engine fast path; values and event "
                   "streams unchanged)")
    patterns = (FuseAccumulatorKernels(),)


class CrossChainCSEPass(PatternPass):
    name = "cse"
    description = ("merge structurally identical equations within each "
                   "module and redirect references (changes the design; "
                   "opt-in)")
    patterns = (CrossChainCSE(),)


class SchedulePass(Pass):
    name = "schedule"
    description = ("extract dependence matrices and link constraints, "
                   "jointly solve linear time functions (offset escalation "
                   "on demand), normalise start to cycle 0")

    def run(self, state: PipelineState) -> PipelineState:
        system: RecurrenceSystem = state.require("system", "decompose-chains")
        opts = state.options
        params = dict(state.params)
        deps = system_dependence_matrices(system)
        constraints = link_constraints(system, params)

        problems = []
        with STATS.stage("synthesize.enumerate"):
            for name, module in system.modules.items():
                arr = module.domain.points_array(params)
                problems.append(ModuleSchedulingProblem(
                    name, module.dims, deps[name], arr))

        with STATS.stage("synthesize.schedule"):
            try:
                time_solution = solve_multimodule(
                    problems, constraints, bound=opts.time_bound,
                    offsets=opts.schedule_offsets)
            except NoScheduleExists:
                if tuple(opts.schedule_offsets) == (0,):
                    time_solution = solve_multimodule(
                        problems, constraints, bound=opts.time_bound,
                        offsets=range(-opts.time_bound, opts.time_bound + 1))
                else:
                    raise
        schedules = normalise_start(time_solution.schedules, problems,
                                    start=0)
        return state.replace(deps=deps, constraints=tuple(constraints),
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
        opts = state.options
        params = dict(state.params)
        interconnect = state.interconnect
        space_bound = opts.space_bound
        space_offsets = opts.space_offsets
        decomposer = interconnect.decomposer()
        points = {name: module.domain.points_array(params)
                  for name, module in system.modules.items()}

        def offsets_for(name: str, plan: str) -> Sequence[int]:
            if space_offsets is not None:
                return space_offsets
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

        plans = (["plain"] if space_offsets is not None
                 else ["plain", "translated"])
        best = None
        best_mc = None
        last_error: NoSpaceMapExists | None = None
        check_trace = None

        def lowering(candidate):
            """Physical feasibility of a candidate beyond the solvers'
            model.

            The space solver enforces adjacency and conflict-freedom but
            not link *bandwidth*: a minimal-cells solution can still need
            one physical channel twice in the same cycle.  Compile the
            candidate's placement and routing over a value-free trace;
            returns ``(microcode, None)`` or ``(None, failure)``."""
            nonlocal check_trace
            if check_trace is None:
                check_trace = structural_trace(system, params)
            try:
                mc = compile_design(check_trace, schedules, candidate.maps,
                                    decomposer)
            except MachineError as exc:
                return None, NoSpaceMapExists(
                    f"space solution does not lower: "
                    f"{type(exc).__name__}: {exc}")
            return mc, None

        with STATS.stage("synthesize.space"):
            for plan in plans:
                space_problems = [
                    ModuleSpaceProblem(name, system.modules[name].dims,
                                       deps[name], points[name],
                                       schedules[name], bound=space_bound,
                                       offsets=offsets_for(name, plan))
                    for name in system.modules]
                try:
                    candidate = solve_multimodule_space(
                        space_problems, constraints, decomposer,
                        interconnect.label_dim)
                except NoSpaceMapExists as exc:
                    last_error = exc
                    continue
                mc, failure = lowering(candidate)
                if failure is not None:
                    last_error = failure
                    continue
                if best is None or candidate.total_cells < best.total_cells:
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
                        interconnect.label_dim)
                except NoSpaceMapExists as exc:
                    error = last_error if last_error is not None else exc
                    raise error from exc
                best_mc, failure = lowering(best)
                if failure is not None:
                    raise failure
        return state.replace(space_maps=best.maps, microcode=best_mc)


class LowerMicrocodePass(Pass):
    name = "lower-microcode"
    description = ("package the Design and guarantee the value-free cell "
                   "program (injections, operations, hops) exists for the "
                   "chosen placement")

    def run(self, state: PipelineState) -> PipelineState:
        system: RecurrenceSystem = state.require("system", "decompose-chains")
        schedules = state.require("schedules", "schedule")
        space_maps = state.require("space_maps", "allocate")
        params = dict(state.params)
        microcode = state.microcode
        if microcode is None:
            # A custom pipeline skipped the allocate-time compile check.
            trace = structural_trace(system, params)
            microcode = compile_design(trace, schedules, space_maps,
                                       state.interconnect.decomposer())
        design = Design(system=system, params=params,
                        interconnect=state.interconnect,
                        schedules=dict(schedules),
                        space_maps=dict(space_maps),
                        constraints=list(state.constraints or ()))
        return state.replace(microcode=microcode, design=design)


class LowerNativePass(Pass):
    name = "lower-native"
    description = ("encode the design's machine program for the shared "
                   "native C executor (compiled once per toolchain; "
                   "degrades to ndarray kernels without one; opt-in)")

    def run(self, state: PipelineState) -> PipelineState:
        design = state.require("design", "lower-microcode")
        microcode = state.require("microcode", "lower-microcode")
        # Local imports keep the machine layer a run-time dependency.
        from repro.machine.compiled import lower
        from repro.machine.native import nativize

        trace = structural_trace(design.system, dict(design.params))
        # Primes the slot verify_design(engine="native") reads, so
        # verification after this pass starts warm — program encoded and
        # the executor loaded (compiled, or found on disk).
        design._exec_cache["nmachine"] = nativize(lower(microcode, trace))
        return state


#: Every pass the CLI and callers can name, in presentation order.
PASS_REGISTRY: dict[str, type[Pass]] = {
    DecomposeChainsPass.name: DecomposeChainsPass,
    FuseAccumulatorsPass.name: FuseAccumulatorsPass,
    CrossChainCSEPass.name: CrossChainCSEPass,
    SchedulePass.name: SchedulePass,
    AllocatePass.name: AllocatePass,
    LowerMicrocodePass.name: LowerMicrocodePass,
    LowerNativePass.name: LowerNativePass,
}

#: Pass names of the default lowering, in order.
DEFAULT_PASS_NAMES: tuple[str, ...] = (
    DecomposeChainsPass.name,
    FuseAccumulatorsPass.name,
    SchedulePass.name,
    AllocatePass.name,
    LowerMicrocodePass.name,
)


def make_pass(name: str) -> Pass:
    """Instantiate a registered pass by name."""
    try:
        return PASS_REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown pass {name!r}; available: "
                       f"{sorted(PASS_REGISTRY)}") from None


def available_passes() -> list[tuple[str, str, bool]]:
    """``(name, description, in_default_pipeline)`` for every pass."""
    return [(name, cls.description, name in DEFAULT_PASS_NAMES)
            for name, cls in PASS_REGISTRY.items()]


def default_pipeline(print_ir_after: Sequence[str] = (),
                     emit=print) -> PassPipeline:
    """The pipeline equivalent to the historical one-shot lowering.

    Byte-identical contract: on every input the resulting design and the
    canonical event streams of all three engines match the pre-pipeline
    ``synthesize`` exactly.
    """
    return PassPipeline([make_pass(name) for name in DEFAULT_PASS_NAMES],
                        print_ir_after=print_ir_after, emit=emit)


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
