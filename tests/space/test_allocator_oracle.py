"""The branch-and-bound allocator against the exhaustive oracle.

Every comparison asserts the same ``maps`` (order included), the same
``total_cells`` and the same ``NoSpaceMapExists`` verdicts and messages,
and the same ``candidates_examined`` as the per-candidate branch and bound.
Allocation problems come from four places: the Fig. 1/Fig. 2 dp setups,
every solve the pinned fuzz corpus reaches, a Hypothesis family of small
random multi-module problems, and the pinned paper designs.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rewrite.pipeline as pipeline
from repro.arrays import (
    FIG1_UNIDIRECTIONAL,
    FIG2_EXTENDED,
    LINEAR_BIDIR,
    resolve_interconnect,
)
from repro.chains.decompose import ChainDecompositionError
from repro.core import link_constraints, restructure, synthesize
from repro.core.restructure import RestructureError
from repro.core.options import SynthesisOptions
from repro.deps import DependenceMatrix, system_dependence_matrices
from repro.fuzz import build_spec, load_corpus
from repro.fuzz.oracle import OracleReject, evaluate
from repro.ir.evaluate import build_execution_plan
from repro.problems import (
    convolution_backward,
    convolution_forward,
    dp_spec,
    dp_system,
)
from repro.schedule import (
    LinearSchedule,
    ModuleSchedulingProblem,
    solve_multimodule,
)
from repro.schedule.constraints import GlobalConstraint
from repro.schedule.solver import valid_candidates
from repro.space import (
    LinkDecomposer,
    ModuleSpaceProblem,
    NoSpaceMapExists,
    SpaceMap,
    cells_used,
    enumerate_space_maps,
    solve_multimodule_space,
)
from repro.space.multimodule import CandidatePool
from repro.util.errors import SynthesisError

from tests.space import allocator_oracle as oracle

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except NoSpaceMapExists as exc:
        return exc


def assert_matches_oracle(problems, constraints, decomposer, label_dim,
                          below=None):
    """The new solver, unbounded and (when ``below`` is given) bounded,
    agrees with one oracle solve."""
    want = _outcome(oracle.solve_multimodule_space, problems, constraints,
                    decomposer, label_dim)
    for bound in (None, below) if below is not None else (None,):
        got = _outcome(solve_multimodule_space, problems, constraints,
                       decomposer, label_dim, below=bound)
        local = isinstance(want, Exception) and "no locally" in str(want)
        if bound is not None and not local and (
                isinstance(want, Exception) or want.total_cells >= bound):
            # Bounded: only a strictly smaller optimum counts.
            assert got is None
        elif isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert not isinstance(got, Exception), got
            assert list(got.maps.items()) == list(want.maps.items())
            assert got.total_cells == want.total_cells
        assert_same_search(got, _outcome(
            oracle.solve_multimodule_space_bounded, problems, constraints,
            decomposer, label_dim, below=bound))


def assert_same_search(got, ref):
    """The solver and the per-candidate branch and bound agree on the
    outcome and on how many joint assignments they examined."""
    if isinstance(ref, Exception):
        assert type(got) is type(ref) and str(got) == str(ref)
    elif ref is None:
        assert got is None
    else:
        assert list(got.maps.items()) == list(ref.maps.items())
        assert got.total_cells == ref.total_cells
        assert got.candidates_examined == ref.candidates_examined


class Recorder:
    """Stands in for the pipeline's solver and keeps every call."""

    def __init__(self):
        self.calls = []
        self.results = []

    def __call__(self, problems, constraints, decomposer, label_dim,
                 **kwargs):
        self.calls.append((list(problems), list(constraints), decomposer,
                           label_dim, kwargs.get("below")))
        result = solve_multimodule_space(problems, constraints, decomposer,
                                         label_dim, **kwargs)
        self.results.append(result)
        return result

    def check(self):
        for call in self.calls:
            assert_matches_oracle(*call)


@pytest.fixture
def recorder(monkeypatch):
    rec = Recorder()
    monkeypatch.setattr(pipeline, "solve_multimodule_space", rec)
    return rec


# -- Fig. 1 / Fig. 2 dp setups -----------------------------------------------


@pytest.fixture(scope="module")
def dp_setup():
    n = 8
    system = dp_system()
    params = {"n": n}
    deps = system_dependence_matrices(system)
    pts = {name: np.array(list(m.domain.points(params)), dtype=np.int64)
           for name, m in system.modules.items()}
    sched_problems = [
        ModuleSchedulingProblem(name, m.dims, deps[name], pts[name])
        for name, m in system.modules.items()]
    constraints = link_constraints(build_execution_plan(system, params))
    schedules = solve_multimodule(sched_problems, constraints,
                                  bound=3).schedules
    return system, deps, pts, constraints, schedules


def dp_problems(setup, comb_offsets):
    system, deps, pts, _, schedules = setup
    return [ModuleSpaceProblem(
        name, m.dims, deps[name], pts[name], schedules[name],
        bound=1, offsets=comb_offsets if name == "comb" else (0,))
        for name, m in system.modules.items()]


DP_CASES = [(FIG1_UNIDIRECTIONAL, (0,)), (FIG2_EXTENDED, (0,)),
            (FIG2_EXTENDED, (-1, 0, 1))]


@pytest.mark.parametrize("interconnect,offsets", DP_CASES,
                         ids=["fig1", "fig2-plain", "fig2-translated"])
def test_dp_setups_match_oracle(dp_setup, interconnect, offsets):
    assert_matches_oracle(dp_problems(dp_setup, offsets), dp_setup[3],
                          interconnect.decomposer(), 2)


class TestBound:
    """``below`` is a strict upper bound on the cell count."""

    def test_bound_equal_to_optimum_is_no_improvement(self, dp_setup):
        args = (dp_problems(dp_setup, (-1, 0, 1)), dp_setup[3],
                FIG2_EXTENDED.decomposer(), 2)
        best = solve_multimodule_space(*args)
        assert solve_multimodule_space(*args, below=best.total_cells) is None

    def test_bound_above_optimum_changes_nothing(self, dp_setup):
        args = (dp_problems(dp_setup, (-1, 0, 1)), dp_setup[3],
                FIG2_EXTENDED.decomposer(), 2)
        best = solve_multimodule_space(*args)
        bounded = solve_multimodule_space(*args, below=best.total_cells + 1)
        assert bounded.maps == best.maps
        assert bounded.total_cells == best.total_cells

    def test_bound_does_not_hide_local_infeasibility(self, dp_setup):
        from repro.arrays import Interconnect

        crippled = Interconnect("no-stay-up-only", ((0, 1),))
        with pytest.raises(NoSpaceMapExists, match="no locally feasible"):
            solve_multimodule_space(dp_problems(dp_setup, (0,)),
                                    dp_setup[3], crippled.decomposer(), 2,
                                    below=100)


# -- the pinned fuzz corpus ---------------------------------------------------


@pytest.mark.parametrize("artifact", load_corpus(CORPUS),
                         ids=lambda a: a["path"].stem)
def test_corpus_solves_match_oracle(artifact, recorder):
    desc = artifact["descriptor"]
    try:
        evaluate(desc)
        system = restructure(build_spec(desc), params={"n": desc.n})
    except (OracleReject, RestructureError, ChainDecompositionError,
            SynthesisError, ValueError):
        pytest.skip("rejected before allocation")
    try:
        synthesize(system, {"n": desc.n},
                   resolve_interconnect(desc.interconnect),
                   SynthesisOptions(time_bound=desc.time_bound))
    except SynthesisError:
        pass                  # an infeasible case still checks its solves
    recorder.check()


# -- small random multi-module problems ---------------------------------------


@st.composite
def random_problem(draw):
    label_dim = draw(st.integers(1, 2))
    dims_per = 2 if label_dim == 1 else 1
    n_modules = draw(st.integers(2, 3 if label_dim == 1 else 2))
    link = st.tuples(*[st.integers(-1, 1)] * label_dim)
    delta = draw(st.lists(link, min_size=1, max_size=3, unique=True))
    dims = tuple("ijk"[:dims_per])
    problems = []
    for m in range(n_modules):
        lo = draw(st.tuples(*[st.integers(0, 1)] * dims_per))
        size = draw(st.tuples(*[st.integers(1, 3)] * dims_per))
        axes = [np.arange(a, a + s) for a, s in zip(lo, size)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"),
                       axis=-1).reshape(-1, dims_per)
        coeffs = draw(st.tuples(*[st.integers(1, 2)] * dims_per))
        deps = None
        if draw(st.booleans()):
            vec = draw(st.tuples(*[st.integers(0, 1)] * dims_per)
                       .filter(any))
            deps = DependenceMatrix.from_dict({"v": [vec]})
        offsets = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=3,
                                unique=True))
        problems.append(ModuleSpaceProblem(
            f"m{m}", dims, deps, pts, LinearSchedule(dims, coeffs),
            bound=1, offsets=tuple(offsets)))
    constraints = []
    for c in range(draw(st.integers(0, 3))):
        dst, src = draw(st.permutations(range(n_modules)))[:2]
        k = draw(st.integers(0, 3))
        picks = [draw(st.tuples(
            st.integers(0, len(problems[dst].points) - 1),
            st.integers(0, len(problems[src].points) - 1)))
            for _ in range(k)]
        constraints.append(GlobalConstraint(
            f"g{c}", f"m{dst}", f"m{src}",
            problems[dst].points[[p for p, _ in picks]].reshape(
                k, dims_per),
            problems[src].points[[q for _, q in picks]].reshape(
                k, dims_per)))
    decomposer = LinkDecomposer(np.array(delta, dtype=np.int64).T)
    below = draw(st.none() | st.integers(1, 12))
    return problems, constraints, decomposer, label_dim, below


@settings(max_examples=200, deadline=None)
@given(random_problem())
def test_random_problems_match_oracle(case):
    assert_matches_oracle(*case)


# -- the pinned paper designs -------------------------------------------------

CONV = {"n": 16, "s": 4}


@pytest.mark.parametrize("build,params,interconnect", [
    (convolution_backward, CONV, LINEAR_BIDIR),
    (convolution_forward, CONV, LINEAR_BIDIR),
    (dp_system, {"n": 12}, FIG1_UNIDIRECTIONAL),
    (dp_system, {"n": 12}, FIG2_EXTENDED),
], ids=["T1", "T2", "F1", "F2"])
def test_paper_design_solves_match_oracle(build, params, interconnect,
                                          recorder):
    synthesize(build(), params, interconnect)
    assert recorder.calls
    recorder.check()


@pytest.mark.parametrize("interconnect", [FIG1_UNIDIRECTIONAL, FIG2_EXTENDED],
                         ids=["F1", "F2"])
def test_translated_plan_is_bounded_by_the_plain_plan(interconnect,
                                                      recorder):
    design = synthesize(dp_system(), {"n": 8}, interconnect)
    (*_, plain_below), (*_, translated_below) = recorder.calls
    plain, translated = recorder.results
    assert plain_below is None
    assert translated_below == plain.total_cells
    chosen = plain if translated is None else translated
    assert design.space_maps == chosen.maps


@pytest.mark.parametrize("build", [convolution_backward, convolution_forward],
                         ids=["T1", "T2"])
def test_paper_design_space_enumerations_match_oracle(build):
    """Tables 1 and 2 come from exploring every (schedule, space map) pair;
    the enumeration order and content must not move."""
    system = build()
    (name, module), = system.modules.items()
    deps = system_dependence_matrices(system)[name]
    pts = module.domain.points_array(CONV)
    decomposer = LINEAR_BIDIR.decomposer()
    for row in valid_candidates(deps, len(module.dims), 2):
        schedule = LinearSchedule(module.dims, tuple(int(c) for c in row))
        for offsets in ((0,), (-1, 0, 1)):
            want = list(oracle.enumerate_space_maps(
                module.dims, 1, deps, schedule, decomposer, pts,
                offsets=offsets))
            got = list(enumerate_space_maps(
                module.dims, 1, deps, schedule, decomposer,
                offsets=offsets))
            assert got == want



# -- the allocate pass's plans on one shared pool ------------------------------


def scheduled(build, params, interconnect):
    """The pipeline state the allocate pass starts from."""
    return pipeline.run_pipeline(
        build(), params, interconnect, SynthesisOptions(),
        pipeline=pipeline.PassPipeline([pipeline.make_pass(name) for name in
                                        ("decompose-chains",
                                         "fuse-accumulators", "schedule")]))


def plan_problems(state, offsets_for):
    return [ModuleSpaceProblem(name, module.dims, state.deps[name],
                               state.plan.points[name], state.schedules[name],
                               bound=1, offsets=offsets_for(module))
            for name, module in state.system.modules.items()]


@pytest.mark.parametrize("build,n,interconnect", [
    (dp_system, 6, FIG1_UNIDIRECTIONAL),
    (dp_system, 6, FIG2_EXTENDED),
    (dp_spec, 6, FIG2_EXTENDED),
], ids=["dp-fig1", "dp-fig2", "dp-spec-fig2"])
def test_offset_plans_match_oracle(build, n, interconnect):
    """Plain, translated and escalation plans on one pool, as the allocate
    pass runs them: offset pairs reach the adjacency memo through their
    difference, and every verdict, cut and count matches the oracles."""
    state = scheduled(build, {"n": n}, interconnect)
    label_dim = interconnect.label_dim
    decomposer = interconnect.decomposer()
    constraints = list(state.constraints)
    pool = CandidatePool(decomposer, label_dim)
    plain = plan_problems(state, lambda m: (0,))
    translated = plan_problems(
        state, lambda m: (-1, 0, 1) if len(m.dims) <= label_dim else (0,))
    escalation = plan_problems(state, lambda m: (-1, 0, 1))
    first = solve_multimodule_space(plain, constraints, decomposer,
                                    label_dim, pool=pool)
    assert_matches_oracle(plain, constraints, decomposer, label_dim)
    for problems, below in ((translated, first.total_cells),
                            (translated, None), (escalation, None)):
        got = _outcome(solve_multimodule_space, problems, constraints,
                       decomposer, label_dim, below=below, pool=pool)
        assert_same_search(got, _outcome(
            oracle.solve_multimodule_space_bounded, problems, constraints,
            decomposer, label_dim, below=below))
    assert_matches_oracle(translated, constraints, decomposer, label_dim,
                          below=first.total_cells)


# -- cell bitmasks --------------------------------------------------------------


@pytest.mark.parametrize("interconnect", [LINEAR_BIDIR, FIG2_EXTENDED],
                         ids=["1d", "2d"])
def test_shared_cells_count_once(interconnect):
    """Two modules on the same points: the union counts each shared cell
    once, and an offset that moves one module's cells overlaps the rest.
    One pool serves every solve; the offsets of 3 widen its frame."""
    pts = np.array([(i, j) for i in range(3) for j in range(3)])
    schedule = LinearSchedule(("i", "j"), (1, 1))
    label_dim = interconnect.label_dim
    decomposer = interconnect.decomposer()
    pool = CandidatePool(decomposer, label_dim)
    for offsets in ((0,), (1,), (-1, 0, 1), (3,), (-3,), (0,)):
        problems = [
            ModuleSpaceProblem(name, ("i", "j"), None, pts, schedule,
                               offsets=offs)
            for name, offs in (("a", (0,)), ("b", offsets))]
        got = solve_multimodule_space(problems, [], decomposer, label_dim,
                                      pool=pool)
        a, b = (cells_used(got.maps[name], pts) for name in "ab")
        assert got.total_cells == len(a | b) < len(a) + len(b)
        if offsets == (0,):
            assert a == b
        assert_matches_oracle(problems, [], decomposer, label_dim)


def test_one_space_map_per_module_per_solution(monkeypatch):
    """A solve builds a ``SpaceMap`` for each module of its winner, and
    none for the candidates that lose."""
    built = []
    post_init = SpaceMap.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SpaceMap, "__post_init__", counting)
    solves = []

    def solve(problems, *args, **kwargs):
        before = len(built)
        result = solve_multimodule_space(problems, *args, **kwargs)
        solves.append((len(problems), result, len(built) - before))
        return result

    monkeypatch.setattr(pipeline, "solve_multimodule_space", solve)
    synthesize(dp_system(), {"n": 6}, FIG2_EXTENDED)
    assert solves
    for modules, result, count in solves:
        assert count == (0 if result is None else modules)
