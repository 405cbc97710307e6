"""Smith normal form and exact rank: invariants on random matrices."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import smith_normal_form

from tests.space.allocator_oracle import int_rank


def is_unimodular(M) -> bool:
    """Square with determinant ±1, by exact Gaussian elimination."""
    rows = [[Fraction(int(v)) for v in row] for row in np.asarray(M)]
    n = len(rows)
    if any(len(row) != n for row in rows):
        return False
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if pivot is None:
            return False
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for r in range(k + 1, n):
            f = rows[r][k] / rows[k][k]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
    return abs(det) == 1


def int_matrices(max_dim=4, lo=-6, hi=6):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                min_size=m, max_size=m)))


class TestRank:
    def test_known(self):
        assert int_rank([[1, 2], [2, 4]]) == 1
        assert int_rank([[1, 0, 0], [0, 1, 0]]) == 2
        assert int_rank([[0, 0], [0, 0]]) == 0

    @settings(max_examples=40, deadline=None)
    @given(int_matrices())
    def test_matches_numpy(self, rows):
        ours = int_rank(rows)
        theirs = np.linalg.matrix_rank(np.array(rows, dtype=float))
        assert ours == theirs


class TestSmith:
    @settings(max_examples=50, deadline=None)
    @given(int_matrices())
    def test_uav_diagonal_divisibility(self, rows):
        A = np.array(rows, dtype=object)
        U, D, V = smith_normal_form(A)
        assert (U @ A @ V == D).all()
        assert is_unimodular(U) and is_unimodular(V)
        m, n = D.shape
        diag = [int(D[k, k]) for k in range(min(m, n))]
        # Off-diagonal zero.
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i, j] == 0
        # Non-negative, divisibility chain, zeros trail.
        for k, d in enumerate(diag):
            assert d >= 0
            if k + 1 < len(diag) and d != 0 and diag[k + 1] != 0:
                assert diag[k + 1] % d == 0
            if d == 0 and k + 1 < len(diag):
                assert diag[k + 1] == 0

    def test_known_example(self):
        A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        U, D, V = smith_normal_form(A)
        assert [int(D[i, i]) for i in range(3)] == [2, 2, 156]
