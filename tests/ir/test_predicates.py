"""Predicate atoms and conjunctions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.affine import var
from repro.ir.predicates import (
    TRUE,
    at_least,
    at_most,
    equals,
    greater,
)

I, J, K = var("i"), var("j"), var("k")


class TestComparisons:
    def test_equals(self):
        p = equals(K, I + 1)
        assert p.holds({"i": 2, "k": 3})
        assert not p.holds({"i": 2, "k": 4})

    def test_greater_strict(self):
        p = greater(K, I)
        assert p.holds({"i": 1, "k": 2})
        assert not p.holds({"i": 2, "k": 2})

    def test_less_at_most(self):
        # i < j is spelled greater(j, i).
        assert greater(J, I).holds({"i": 1, "j": 2})
        assert at_most(I, J).holds({"i": 2, "j": 2})
        assert not greater(J, I).holds({"i": 2, "j": 2})

    def test_at_least(self):
        p = at_least(2 * K, I + J)
        assert p.holds({"i": 1, "j": 3, "k": 2})
        assert not p.holds({"i": 1, "j": 4, "k": 2})

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_trichotomy(self, a, b):
        point = {"i": a, "j": b}
        assert (greater(I, J).holds(point) + greater(J, I).holds(point)
                + equals(I, J).holds(point)) == 1


class TestQuasi:
    def test_equals_floor(self):
        head = equals(K, (I + J).floordiv(2))
        assert head.holds({"i": 2, "j": 6, "k": 4})
        assert head.holds({"i": 2, "j": 7, "k": 4})
        assert not head.holds({"i": 2, "j": 7, "k": 5})

    def test_greater_floor(self):
        p = greater(K, (I + J).floordiv(2))
        assert p.holds({"i": 2, "j": 6, "k": 5})
        assert not p.holds({"i": 2, "j": 6, "k": 4})

    def test_at_most_floor(self):
        p = at_most(K, (I + J).floordiv(2))
        assert p.holds({"i": 1, "j": 4, "k": 2})
        assert not p.holds({"i": 1, "j": 4, "k": 3})

    def test_less_and_at_least(self):
        fl = (I + J).floordiv(2)
        # k < floor(x) is spelled at_most(k + 1, floor(x)).
        assert at_most(K + 1, fl).holds({"i": 2, "j": 6, "k": 3})
        assert not at_most(K + 1, fl).holds({"i": 2, "j": 6, "k": 4})
        assert at_least(K, fl).holds({"i": 2, "j": 6, "k": 4})


class TestConjunction:
    def test_true(self):
        assert TRUE.holds({})
        assert TRUE.is_true()

    def test_and(self):
        p = equals(K, I + 1) & at_least(J, I + 3)
        assert p.holds({"i": 1, "j": 4, "k": 2})
        assert not p.holds({"i": 1, "j": 3, "k": 2})

    def test_repr_smoke(self):
        assert "TRUE" in repr(TRUE)
        assert "&" in repr(equals(I, 0) & equals(J, 0))
