"""Fourier–Motzkin elimination: soundness against brute force."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import fourier_motzkin as fm
from repro.ir.affine import AffineExpr, var
from repro.ir.indexset import ge, le


def brute_satisfiable(constraints, names, lo=-8, hi=8):
    for point in itertools.product(range(lo, hi + 1), repeat=len(names)):
        binding = dict(zip(names, point))
        if all(e.evaluate(binding) >= 0 for e in constraints):
            return True
    return False


class TestEliminate:
    def test_simple_projection(self):
        i, j = var("i"), var("j")
        # 0 <= i <= j, j <= 5  --> projection on j: 0 <= j <= 5.
        cons = [ge(i, 0), le(i, j), le(j, 5)]
        projected = fm.eliminate(cons, "i")
        for j_value in range(-2, 8):
            holds = all(e.evaluate({"j": j_value}) >= 0 for e in projected)
            assert holds == (0 <= j_value <= 5)

    def test_combination(self):
        i = var("i")
        # i >= 2 and i <= 1: infeasible after elimination.
        cons = [ge(i, 2), le(i, 1)]
        with pytest.raises(fm.Infeasible):
            fm.deduplicate(fm.eliminate(cons, "i"))

    def test_free_constraints_pass_through(self):
        i, j = var("i"), var("j")
        cons = [ge(j, 3), ge(i, 0), le(i, 2)]
        projected = fm.eliminate(cons, "i")
        assert any(e == ge(j, 3) for e in projected)


class TestSatisfiability:
    def test_feasible(self):
        i, j = var("i"), var("j")
        assert fm.is_satisfiable([ge(i, 0), le(i, j), le(j, 3)], ["i", "j"])

    def test_infeasible(self):
        i, j = var("i"), var("j")
        assert not fm.is_satisfiable(
            [ge(i, j + 1), ge(j, i + 1)], ["i", "j"])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-6, 6)),
        min_size=1, max_size=5))
    def test_matches_brute_force_over_box(self, rows):
        """Random small systems inside a bounding box: FM agrees with
        exhaustive search (rational relaxation can only be *more*
        permissive, so only the unsat direction is asserted strictly)."""
        names = ["i", "j"]
        cons = [AffineExpr({"i": a, "j": b}, c) for a, b, c in rows]
        box = [ge(var("i"), -8), le(var("i"), 8),
               ge(var("j"), -8), le(var("j"), 8)]
        fm_result = fm.is_satisfiable(cons + box, names)
        brute = brute_satisfiable(cons, names)
        if brute:
            assert fm_result
