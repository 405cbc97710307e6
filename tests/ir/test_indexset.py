"""Polyhedron (index set) enumeration, membership and projection."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.affine import var
from repro.ir.indexset import Polyhedron, eq, ge, le


def dp_triangle(param="n"):
    i, j, k = var("i"), var("j"), var("k")
    return Polyhedron(("i", "j", "k"),
                      [ge(i, 1), le(j, param), le(i + 1, j), le(i + 1, k),
                       le(k + 1, j)],
                      params=(param,))


class TestConstructors:
    def test_box(self):
        p = Polyhedron.box({"i": (1, 4), "j": (0, 2)})
        assert p.count() == 4 * 3

    def test_parametric_box(self):
        p = Polyhedron.box({"i": (1, "n")}, params=("n",))
        assert p.count({"n": 7}) == 7

    def test_duplicate_dims_rejected(self):
        with pytest.raises(ValueError):
            Polyhedron(("i", "i"))

    def test_dim_param_clash_rejected(self):
        with pytest.raises(ValueError):
            Polyhedron(("i",), params=("i",))

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            Polyhedron(("i",), [ge(var("z"), 0)])


class TestComparators:
    def test_eq_pair(self):
        i = var("i")
        p = Polyhedron(("i",), list(eq(i, 2)))
        assert list(p.points()) == [(2,)]


class TestEnumeration:
    def test_triangle_matches_brute_force(self):
        n = 7
        p = dp_triangle()
        pts = set(p.points({"n": n}))
        brute = {(i, j, k)
                 for i in range(1, n + 1) for j in range(1, n + 1)
                 for k in range(1, n + 1)
                 if i < j and i < k < j}
        assert pts == brute

    def test_lexicographic_order(self):
        p = Polyhedron.box({"i": (1, 2), "j": (1, 2)})
        assert list(p.points()) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_empty_domain(self):
        i = var("i")
        p = Polyhedron(("i",), [ge(i, 5), le(i, 4)])
        assert list(p.points()) == []
        assert p.is_empty()

    def test_unbound_parameter_rejected(self):
        p = dp_triangle()
        with pytest.raises(KeyError):
            list(p.points())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6))
    def test_box_count(self, a, b):
        p = Polyhedron.box({"i": (1, a), "j": (1, b)})
        assert p.count() == a * b


class TestContains:
    def test_tuple_and_dict(self):
        p = dp_triangle()
        assert p.contains((1, 4, 2), {"n": 5})
        assert p.contains({"i": 1, "j": 4, "k": 2}, {"n": 5})
        assert not p.contains((1, 4, 4), {"n": 5})

    def test_wrong_arity(self):
        p = Polyhedron.box({"i": (1, 3)})
        with pytest.raises(ValueError):
            p.contains((1, 2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 8))
    def test_contains_agrees_with_points(self, n):
        p = dp_triangle()
        pts = set(p.points({"n": n}))
        for cand in itertools.product(range(0, n + 2), repeat=3):
            assert p.contains(cand, {"n": n}) == (cand in pts)


class TestOperations:
    def test_bind_params(self):
        p = dp_triangle()
        bound = p.bind_params({"n": 5})
        assert bound.params == ()
        assert set(bound.points()) == set(p.points({"n": 5}))

    def test_with_constraints(self):
        p = Polyhedron.box({"i": (1, 6)})
        narrowed = p.with_constraints(ge(var("i"), 4))
        assert list(narrowed.points()) == [(4,), (5,), (6,)]

    def test_project(self):
        p = dp_triangle()
        proj = p.project(("i", "j"))
        # (i, j) appears iff there is a valid k: j - i >= 2.
        pts = set(proj.points({"n": 5}))
        assert (1, 3) in pts
        assert (1, 5) in pts

    def test_count_matches_len_points(self):
        p = dp_triangle()
        assert p.count({"n": 6}) == len(list(p.points({"n": 6})))


class TestPointsArray:
    def test_matches_points_order(self):
        p = dp_triangle()
        arr = p.points_array({"n": 6})
        assert arr.dtype == np.int64
        assert [tuple(row) for row in arr] == list(p.points({"n": 6}))

    def test_cached_and_readonly(self):
        p = dp_triangle()
        a = p.points_array({"n": 6})
        b = p.points_array({"n": 6})
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 99

    def test_cache_shared_across_equal_polyhedra(self):
        a = dp_triangle().points_array({"n": 5})
        b = dp_triangle().points_array({"n": 5})
        assert a is b

    def test_empty_domain_array(self):
        i = var("i")
        p = Polyhedron(("i", "j"), [ge(i, 5), le(i, 4), ge(var("j"), 0),
                                    le(var("j"), 3)])
        arr = p.points_array()
        assert arr.shape == (0, 2)
        assert p.count() == 0

    def test_zero_dimensional_domain(self):
        p = Polyhedron(())
        assert list(p.points()) == [()]
        assert p.points_array().shape == (1, 0)
        assert p.count() == 1

    def test_unbounded_domain_rejected(self):
        p = Polyhedron(("i",), [ge(var("i"), 0)])
        with pytest.raises(ValueError, match="unbounded"):
            list(p.points())
        with pytest.raises(ValueError, match="unbounded"):
            p.points_array()

    def test_unbounded_below_rejected(self):
        p = Polyhedron(("i",), [le(var("i"), 10)])
        with pytest.raises(ValueError, match="unbounded"):
            p.points_array()

    def test_unbound_parameter_still_keyerror(self):
        p = dp_triangle()
        with pytest.raises(KeyError):
            p.points_array()
