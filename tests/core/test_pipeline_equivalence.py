"""The default pass pipeline must reproduce the historical one-shot lowering
byte for byte.

``_legacy_synthesize`` below is the pre-pipeline ``core.nonuniform``
implementation, vendored verbatim (over the exhaustive allocator oracle of
``tests/space/allocator_oracle.py``): the acceptance oracle.  For every
problem the new pipeline must produce the identical design dict *and*
the identical canonical compiled event stream.
"""

from typing import Sequence

import pytest

from repro.arrays.interconnect import resolve_interconnect
from repro.core.design import Design
from repro.core.globals import link_constraints
from repro.core.nonuniform import synthesize
from repro.core.options import SynthesisOptions
from repro.deps.extract import system_dependence_matrices
from repro.ir.evaluate import (
    SystemTrace,
    build_execution_plan,
    trace_execution,
)
from repro.machine.errors import MachineError
from repro.machine.microcode import compile_design
from repro.machine.simulator import run
from repro.obs.events import EventLog, canonical_order
from repro.problems import (
    convolution_backward,
    dp_system,
    matmul_system,
    random_inputs,
)
from repro.schedule.multimodule import (
    ModuleSchedulingProblem,
    normalise_start,
    solve_multimodule,
)
from repro.schedule.solver import NoScheduleExists
from repro.space.multimodule import ModuleSpaceProblem, NoSpaceMapExists

from tests.space.allocator_oracle import solve_multimodule_space


def _legacy_synthesize(system, params, interconnect,
                       opts: SynthesisOptions) -> Design:
    """The pre-pipeline one-shot lowering, vendored as the oracle."""
    time_bound = opts.time_bound
    space_bound = opts.space_bound
    # The offset ranges were options then; these are the defaults every
    # caller used, which the pipeline now fixes.
    schedule_offsets = (0,)
    space_offsets = None
    params = dict(params)
    deps = system_dependence_matrices(system)
    constraints = link_constraints(system, params)

    points = {}
    problems = []
    for name, module in system.modules.items():
        arr = module.domain.points_array(params)
        points[name] = arr
        problems.append(ModuleSchedulingProblem(name, module.dims,
                                                deps[name], arr))

    try:
        time_solution = solve_multimodule(problems, constraints,
                                          bound=time_bound,
                                          offsets=schedule_offsets)
    except NoScheduleExists:
        if tuple(schedule_offsets) == (0,):
            time_solution = solve_multimodule(
                problems, constraints, bound=time_bound,
                offsets=range(-time_bound, time_bound + 1))
        else:
            raise
    schedules = normalise_start(time_solution.schedules, problems, start=0)

    decomposer = interconnect.decomposer()

    def offsets_for(name: str, plan: str) -> Sequence[int]:
        if space_offsets is not None:
            return space_offsets
        if plan == "plain":
            return (0,)
        module = system.modules[name]
        if len(module.dims) <= interconnect.label_dim:
            return (-1, 0, 1)
        return (0,)

    plans = ["plain"] if space_offsets is not None else ["plain", "translated"]
    best = None
    last_error = None
    check_trace = None

    def lowering_failure(candidate):
        nonlocal check_trace
        if check_trace is None:
            check_trace = SystemTrace(build_execution_plan(system, params))
        try:
            compile_design(check_trace, schedules, candidate.maps, decomposer)
        except MachineError as exc:
            return NoSpaceMapExists(
                f"space solution does not lower: {type(exc).__name__}: {exc}")
        return None

    for plan in plans:
        space_problems = [
            ModuleSpaceProblem(name, system.modules[name].dims, deps[name],
                               points[name], schedules[name],
                               bound=space_bound,
                               offsets=offsets_for(name, plan))
            for name in system.modules]
        try:
            candidate = solve_multimodule_space(
                space_problems, constraints, decomposer,
                interconnect.label_dim)
        except NoSpaceMapExists as exc:
            last_error = exc
            continue
        failure = lowering_failure(candidate)
        if failure is not None:
            last_error = failure
            continue
        if best is None or candidate.total_cells < best.total_cells:
            best = candidate
    if best is None:
        space_problems = [
            ModuleSpaceProblem(name, system.modules[name].dims, deps[name],
                               points[name], schedules[name],
                               bound=space_bound, offsets=(-1, 0, 1))
            for name in system.modules]
        try:
            best = solve_multimodule_space(
                space_problems, constraints, decomposer,
                interconnect.label_dim)
        except NoSpaceMapExists as exc:
            error = last_error if last_error is not None else exc
            raise error from exc
        failure = lowering_failure(best)
        if failure is not None:
            raise failure

    return Design(system=system, params=params, interconnect=interconnect,
                  schedules=schedules, space_maps=best.maps,
                  constraints=constraints)


def _compiled_stream(design, inputs) -> str:
    trace = trace_execution(design.system, design.params, inputs)
    mc = compile_design(trace, design.schedules, design.space_maps,
                        design.interconnect.decomposer())
    log = EventLog()
    run(mc, trace, inputs, strict=True, engine="native", sink=log)
    log.events = canonical_order(log.events)
    return log.to_jsonl()


CASES = (
    ("dp", dp_system, {"n": 6}, "fig1"),
    ("conv-backward", convolution_backward, {"n": 6, "s": 3}, "linear"),
    ("matmul", matmul_system, {"n": 3}, "mesh"),
)


@pytest.mark.parametrize("problem,builder,params,ic_name",
                         CASES, ids=[c[0] for c in CASES])
class TestPipelineMatchesLegacyOneShot:
    def test_design_dict_identical(self, problem, builder, params, ic_name):
        system, ic = builder(), resolve_interconnect(ic_name)
        opts = SynthesisOptions()
        legacy = _legacy_synthesize(system, params, ic, opts)
        piped = synthesize(system, params, ic, opts)
        assert piped.to_dict() == legacy.to_dict()

    def test_compiled_event_stream_identical(self, problem, builder, params,
                                             ic_name):
        system, ic = builder(), resolve_interconnect(ic_name)
        opts = SynthesisOptions()
        inputs = random_inputs(problem, params, seed=0)
        legacy = _legacy_synthesize(system, params, ic, opts)
        piped = synthesize(system, params, ic, opts)
        assert _compiled_stream(piped, inputs) == \
            _compiled_stream(legacy, inputs)
