"""Optimal schedule search: the paper's worked solutions + LP cross-checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps import DependenceMatrix, dependence_dag, levels
from repro.ir.indexset import Polyhedron, ge, le
from repro.ir.affine import var
from repro.schedule import (
    NoScheduleExists,
    fastest_free_schedule,
    lp_lower_bound,
    optimal_schedule,
    valid_coefficient_vectors,
)

from tests.schedule.reference import optimal_schedule_reference

CONV_DOMAIN = Polyhedron.box({"i": (1, "n"), "k": (1, "s")},
                             params=("n", "s"))
CONV_PARAMS = {"n": 12, "s": 4}


def conv4_deps():
    return DependenceMatrix.from_dict(
        {"y": [(0, 1)], "x": [(1, 1)], "w": [(1, 0)]})


def conv5_deps():
    return DependenceMatrix.from_dict(
        {"y": [(0, -1)], "x": [(1, 1)], "w": [(1, 0)]})


class TestPaperSolutions:
    def test_convolution_backward_T(self):
        """Recurrence (4): optimal T(i,k) = i + k."""
        sol = optimal_schedule(conv4_deps(), CONV_DOMAIN, CONV_PARAMS)
        assert sol.schedule.coeffs == (1, 1)

    def test_convolution_forward_T(self):
        """Recurrence (5): optimal T(i,k) = 2i - k."""
        sol = optimal_schedule(conv5_deps(), CONV_DOMAIN, CONV_PARAMS)
        assert sol.schedule.coeffs == (2, -1)

    def test_dp_coarse_T(self):
        """Section IV: D^c gives T(i,j) = j - i."""
        i, j = var("i"), var("j")
        dom = Polyhedron(("i", "j"), [ge(i, 1), le(j, "n"), ge(j - i, 1)],
                         params=("n",))
        D = DependenceMatrix.from_dict({"c": [(0, 1), (-1, 0)]})
        sol = optimal_schedule(D, dom, {"n": 10})
        assert sol.schedule.coeffs == (-1, 1)

    def test_optimum_stable_across_sizes(self):
        for params in ({"n": 6, "s": 3}, {"n": 20, "s": 6}):
            sol = optimal_schedule(conv4_deps(), CONV_DOMAIN, params)
            assert sol.schedule.coeffs == (1, 1)


class TestSearchMechanics:
    def test_all_candidates_valid(self):
        D = conv4_deps()
        for coeffs in valid_coefficient_vectors(D, 2, 2):
            assert all(sum(c * x for c, x in zip(coeffs, d.vector)) >= 1
                       for d in D.vectors)

    def test_infeasible_system(self):
        D = DependenceMatrix.from_dict({"x": [(1,)], "y": [(-1,)]})
        dom = Polyhedron.box({"i": (1, 5)})
        with pytest.raises(NoScheduleExists):
            optimal_schedule(D, dom, {})

    def test_optima_all_achieve_makespan(self):
        sol = optimal_schedule(conv4_deps(), CONV_DOMAIN, CONV_PARAMS)
        pts = list(CONV_DOMAIN.points(CONV_PARAMS))
        for cand in sol.optima:
            times = [cand.time(p) for p in pts]
            assert max(times) - min(times) == sol.makespan

    def test_deterministic(self):
        a = optimal_schedule(conv5_deps(), CONV_DOMAIN, CONV_PARAMS)
        b = optimal_schedule(conv5_deps(), CONV_DOMAIN, CONV_PARAMS)
        assert a.schedule == b.schedule


class TestLowerBounds:
    def test_lp_bound_at_most_integer_optimum(self):
        for deps in (conv4_deps(), conv5_deps()):
            sol = optimal_schedule(deps, CONV_DOMAIN, CONV_PARAMS)
            bound = lp_lower_bound(deps, CONV_DOMAIN, CONV_PARAMS)
            assert bound <= sol.makespan + 1e-9

    def test_lp_bound_tight_for_conv4(self):
        sol = optimal_schedule(conv4_deps(), CONV_DOMAIN, CONV_PARAMS)
        bound = lp_lower_bound(conv4_deps(), CONV_DOMAIN, CONV_PARAMS)
        assert abs(bound - sol.makespan) < 1e-6

    def test_critical_path_bounds_any_schedule(self):
        deps = conv4_deps()
        depth = fastest_free_schedule(deps, CONV_DOMAIN, CONV_PARAMS)
        sol = optimal_schedule(deps, CONV_DOMAIN, CONV_PARAMS)
        assert depth <= sol.makespan

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
            lambda d: d != (0, 0)),
        min_size=1, max_size=4, unique=True))
    def test_random_systems_lp_vs_enumeration(self, vectors):
        """For random dependence sets: whenever enumeration finds an optimum,
        the LP relaxation never exceeds it, and every schedule respects the
        concrete dependence DAG."""
        deps = DependenceMatrix.from_dict({"v": vectors})
        dom = Polyhedron.box({"i": (1, 5), "j": (1, 5)})
        try:
            sol = optimal_schedule(deps, dom, {}, bound=3)
        except NoScheduleExists:
            return
        bound = lp_lower_bound(deps, dom, {})
        assert bound <= sol.makespan + 1e-9
        try:
            dag = dependence_dag(dom, deps, {})
        except ValueError:
            return  # cyclic dependence sets can still admit T when sources
            # fall outside the box; the DAG check does not apply
        lv = levels(dag)
        for node, level in lv.items():
            assert sol.schedule.time(node) >= level + min(
                sol.schedule.time(p) for p in lv)


class TestZeroVectorRejection:
    """Eq. (2) requires a nonsingular transformation: the all-zero time
    vector can never be part of one, even when there are no dependences to
    rule it out."""

    def test_empty_dependence_matrix_excludes_zero(self):
        deps = DependenceMatrix()
        vectors = list(valid_coefficient_vectors(deps, 2, 1))
        assert (0, 0) not in vectors
        assert len(vectors) == 3 ** 2 - 1

    def test_none_is_treated_as_no_deps(self):
        vectors = list(valid_coefficient_vectors(None, 2, 1))
        assert (0, 0) not in vectors

    def test_with_deps_unchanged(self):
        vectors = list(valid_coefficient_vectors(conv4_deps(), 2, 3))
        assert (0, 0) not in vectors
        assert all(any(c != 0 for c in v) for v in vectors)

    def test_schedule_without_deps_is_not_constant(self):
        dom = Polyhedron.box({"i": (1, 4), "k": (1, 4)})
        sol = optimal_schedule(DependenceMatrix(), dom, {})
        assert any(c != 0 for c in sol.schedule.coeffs)
        # Best a single nonzero unit vector can do on a 4x4 box.
        assert sol.makespan == 3


class TestVectorizedEquivalence:
    """The vectorised solver must be bit-identical to the original
    per-candidate loop (kept as ``tests.schedule.reference``)."""

    CASES = [
        (conv4_deps, CONV_PARAMS),
        (conv5_deps, CONV_PARAMS),
        (conv4_deps, {"n": 6, "s": 3}),
        (conv5_deps, {"n": 20, "s": 6}),
    ]

    @pytest.mark.parametrize("make_deps,params", CASES)
    def test_identical_solutions(self, make_deps, params):
        fast = optimal_schedule(make_deps(), CONV_DOMAIN, params)
        slow = optimal_schedule_reference(make_deps(), CONV_DOMAIN, params)
        assert fast == slow  # full dataclass: schedule, makespan,
        # optima (order included) and candidates_examined

    @settings(max_examples=20, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
            lambda d: d != (0, 0)),
        min_size=1, max_size=3, unique=True))
    def test_random_systems_identical(self, vectors):
        deps = DependenceMatrix.from_dict({"v": vectors})
        dom = Polyhedron.box({"i": (1, 5), "j": (1, 5)})
        try:
            slow = optimal_schedule_reference(deps, dom, {}, bound=2)
        except NoScheduleExists:
            with pytest.raises(NoScheduleExists):
                optimal_schedule(deps, dom, {}, bound=2)
            return
        fast = optimal_schedule(deps, dom, {}, bound=2)
        assert fast == slow
