"""The joint schedule solver against the per-pair backtracker it replaced.

Every comparison asserts the same schedules (module order included), the
same ``makespan`` and ``candidates_examined``, and the same
``NoScheduleExists`` verdicts and messages.  The problems are the ones
the schedule pass solves for every paper design, the offset escalation of
each, a module with a self-constraint and an infeasible system.
"""

import numpy as np
import pytest

import repro.rewrite.pipeline as pipeline
from repro.arrays import resolve_interconnect
from repro.core import synthesize
from repro.problems import (
    convolution_backward,
    convolution_forward,
    dp_spec,
    dp_system,
    matmul_system,
    parenthesization_spec,
    shortest_path_spec,
)
from repro.schedule import (
    GlobalConstraint,
    ModuleSchedulingProblem,
    NoScheduleExists,
    solve_multimodule,
)
from repro.util.errors import SynthesisError

from tests.schedule.reference import solve_multimodule_reference


def _outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except NoScheduleExists as exc:
        return exc


def assert_matches_reference(problems, constraints, bound, offsets):
    want = _outcome(solve_multimodule_reference, problems, constraints,
                    bound=bound, offsets=offsets)
    got = _outcome(solve_multimodule, problems, constraints, bound=bound,
                   offsets=offsets)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert list(got.schedules.items()) == list(want.schedules.items())
    assert got.makespan == want.makespan
    assert got.candidates_examined == want.candidates_examined


@pytest.fixture
def solves(monkeypatch):
    """Every ``solve_multimodule`` call of the schedule pass."""
    calls = []

    def solve(problems, constraints, bound, offsets):
        calls.append((list(problems), list(constraints), bound, offsets))
        return solve_multimodule(problems, constraints, bound=bound,
                                 offsets=offsets)

    monkeypatch.setattr(pipeline, "solve_multimodule",
                        lambda p, c, *, bound, offsets: solve(p, c, bound,
                                                              offsets))
    return calls


PAPER_DESIGNS = [
    (dp_system, {"n": 6}, "fig2"),
    (dp_spec, {"n": 6}, "fig2"),
    (parenthesization_spec, {"n": 6}, "fig1"),
    (shortest_path_spec, {"n": 6}, "fig2"),
    (convolution_backward, {"n": 8, "s": 3}, "linear"),
    (convolution_forward, {"n": 8, "s": 3}, "linear"),
    (matmul_system, {"n": 3}, "hex"),
]


@pytest.mark.parametrize("build,params,interconnect", PAPER_DESIGNS,
                         ids=lambda v: getattr(v, "__name__", None))
def test_paper_design_solves_match_reference(build, params, interconnect,
                                             solves):
    try:
        synthesize(build(), params, resolve_interconnect(interconnect))
    except SynthesisError:
        pass                  # an infeasible allocation still checks its solves
    assert solves
    for problems, constraints, bound, offsets in solves:
        assert_matches_reference(problems, constraints, bound, offsets)
        # The offset escalation, on a smaller box so the reference is quick.
        assert_matches_reference(problems, constraints, 2, range(-2, 3))


def test_dp_escalation_at_the_pass_bound_matches_reference(solves):
    """The schedule pass's own escalation box: bound 3, offsets -3..3."""
    synthesize(dp_system(), {"n": 6}, resolve_interconnect("fig2"))
    (problems, constraints, bound, _), = solves
    assert bound == 3
    assert_matches_reference(problems, constraints, bound,
                             range(-bound, bound + 1))


def _line(name, lo, hi):
    return ModuleSchedulingProblem(
        name, ("i",), None, np.arange(lo, hi).reshape(-1, 1))


def test_self_constraint_takes_the_diagonal():
    """``a`` feeds itself two steps on, and ``b`` reads ``a``: the
    self-constraint depends on the candidate of ``a`` alone."""
    a, b = _line("a", 0, 5), _line("b", 0, 3)
    constraints = [
        GlobalConstraint("self", "a", "a", np.arange(2, 5).reshape(-1, 1),
                         np.arange(0, 3).reshape(-1, 1), min_gap=2),
        GlobalConstraint("ab", "b", "a", np.arange(0, 3).reshape(-1, 1),
                         np.arange(2, 5).reshape(-1, 1)),
    ]
    for order in ([a, b], [b, a]):
        for offsets in ((0,), range(-2, 3)):
            assert_matches_reference(order, constraints, 2, offsets)
    sol = solve_multimodule([a, b], constraints, bound=2,
                            offsets=range(-2, 3))
    assert sol.schedules["a"].coeffs[0] >= 1


def test_infeasible_system_raises_like_the_reference():
    """Each module must run strictly after the other: no schedule fits."""
    a, b = _line("a", 0, 3), _line("b", 0, 3)
    pts = np.arange(0, 3).reshape(-1, 1)
    constraints = [GlobalConstraint("ab", "a", "b", pts, pts),
                   GlobalConstraint("ba", "b", "a", pts, pts)]
    for offsets in ((0,), range(-2, 3)):
        assert_matches_reference([a, b], constraints, 2, offsets)
        with pytest.raises(NoScheduleExists, match="global constraints"):
            solve_multimodule([a, b], constraints, bound=2, offsets=offsets)
