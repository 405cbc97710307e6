"""Non-constant dependence analysis: expansion and intersection (Section III)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps import affine_max, affine_min, constant_dependence_set
from repro.ir.affine import var
from repro.ir.indexset import Polyhedron, ge, le
from repro.problems import dp_spec

I, J = var("i"), var("j")


class TestAffineExtrema:
    def test_box(self):
        dom = Polyhedron.box({"i": (1, 5), "j": (2, 4)})
        assert (affine_min(dom, I + J), affine_max(dom, I + J)) == (3, 9)
        assert (affine_min(dom, I - J), affine_max(dom, I - J)) == (-3, 3)

    def test_triangle(self):
        dom = Polyhedron(("i", "j"), [ge(I, 1), le(J, 9), ge(J - I, 2)],
                         params=())
        assert affine_min(dom, J - I) == 2
        assert affine_max(dom, J - I) == 8

    def test_parametric_min_is_constant(self):
        dom = Polyhedron(("i", "j"), [ge(I, 1), le(J, "n"), ge(J - I, 2)],
                         params=("n",))
        assert affine_min(dom, J - I) == 2

    def test_parametric_max_needs_params(self):
        dom = Polyhedron(("i", "j"), [ge(I, 1), le(J, "n"), ge(J - I, 2)],
                         params=("n",))
        with pytest.raises(ValueError):
            affine_max(dom, J - I)
        assert affine_max(dom, J - I, {"n": 9}) == 8

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6))
    def test_matches_enumeration(self, a, b):
        dom = Polyhedron.box({"i": (1, a), "j": (1, b)})
        expr = 2 * I - 3 * J
        values = [expr.evaluate(dict(zip(("i", "j"), p)))
                  for p in dom.points()]
        lo, hi = affine_min(dom, expr), affine_max(dom, expr)
        assert lo == min(values) and hi == max(values)


class TestIntersection:
    def test_dp_constant_set(self):
        """D^c = {(0,1), (-1,0)} — the paper's matrix."""
        spec = dp_spec()
        assert constant_dependence_set(spec).vector_set() == {(0, 1), (-1, 0)}

    def test_intersection_stable_across_sizes(self):
        spec = dp_spec()
        for n in (5, 9, 16):
            assert constant_dependence_set(spec, {"n": n}).vector_set() \
                == {(0, 1), (-1, 0)}

    def test_every_constant_vector_in_every_point_set(self):
        """Definition check: D^c ⊆ D^c_(i,j) at every domain point, where
        D^c_(i,j) holds one column per argument and reduction index."""
        spec = dp_spec()
        dc = constant_dependence_set(spec).vector_set()
        for point in spec.domain.points({"n": 7}):
            binding = dict(zip(spec.dims, point))
            expanded = {
                tuple(p - q for p, q in zip(point, arg.operand_point(point, k)))
                for arg in spec.args for k in spec.k_range(binding)}
            assert dc <= expanded
