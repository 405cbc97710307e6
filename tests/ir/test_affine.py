"""Unit and property tests for affine / quasi-affine expressions."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.affine import AffineExpr, QuasiAffineExpr, const, var

NAMES = ("i", "j", "k")


def exprs():
    coeff = st.integers(-6, 6).map(Fraction)
    return st.builds(
        AffineExpr,
        st.dictionaries(st.sampled_from(NAMES), coeff, max_size=3),
        st.integers(-10, 10))


def points():
    return st.fixed_dictionaries({n: st.integers(-20, 20) for n in NAMES})


class TestConstruction:
    def test_var(self):
        e = var("i")
        assert e.coeff("i") == 1
        assert e.const_term == 0

    def test_const(self):
        assert const(5).evaluate({}) == 5

    def test_zero_coefficients_dropped(self):
        e = AffineExpr({"i": 0, "j": 1})
        assert e.variables() == frozenset({"j"})

    def test_coerce_string(self):
        assert AffineExpr.coerce("i") == var("i")

    def test_coerce_rejects_quasi(self):
        with pytest.raises(TypeError):
            AffineExpr.coerce(var("i").floordiv(2))

    def test_from_vector(self):
        e = AffineExpr.from_vector(("i", "j"), (2, -1), 3)
        assert e.evaluate({"i": 1, "j": 1}) == 4

    def test_from_vector_length_mismatch(self):
        with pytest.raises(ValueError):
            AffineExpr.from_vector(("i",), (1, 2))


class TestArithmetic:
    def test_add_sub(self):
        i, j = var("i"), var("j")
        e = 2 * i + j - 3
        assert e.evaluate({"i": 4, "j": 1}) == 6

    def test_rsub(self):
        i = var("i")
        assert (5 - i).evaluate({"i": 2}) == 3

    def test_neg(self):
        i = var("i")
        assert (-i).coeff("i") == -1

    def test_scalar_division(self):
        i = var("i")
        assert (i / 2).evaluate({"i": 3}) == Fraction(3, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            var("i") / 0

    @given(exprs(), exprs(), points())
    def test_add_commutative(self, a, b, p):
        assert (a + b).evaluate(p) == (b + a).evaluate(p)

    @given(exprs(), exprs(), exprs(), points())
    def test_add_associative(self, a, b, c, p):
        assert ((a + b) + c).evaluate(p) == (a + (b + c)).evaluate(p)

    @given(exprs(), st.integers(-5, 5), points())
    def test_scalar_distributes(self, a, s, p):
        assert (a * s).evaluate(p) == s * a.evaluate(p)

    @given(exprs(), points())
    def test_sub_self_is_zero(self, a, p):
        assert (a - a).evaluate(p) == 0

    @given(exprs(), exprs(), points())
    def test_evaluation_is_linear(self, a, b, p):
        assert (a + b).evaluate(p) == a.evaluate(p) + b.evaluate(p)


class TestEvaluation:
    def test_unbound_variable(self):
        with pytest.raises(KeyError):
            var("i").evaluate({"j": 1})

    def test_evaluate_int_rejects_fraction(self):
        e = var("i") / 2
        with pytest.raises(ValueError):
            e.evaluate_int({"i": 3})

    def test_evaluate_int(self):
        assert (var("i") / 2).evaluate_int({"i": 4}) == 2

    def test_partial(self):
        e = var("i") + var("j")
        assert e.partial({"i": 3}) == var("j") + 3


class TestSubstitution:
    def test_simultaneous(self):
        i, j = var("i"), var("j")
        e = i + j
        # i -> j, j -> i simultaneously.
        swapped = e.substitute({"i": j, "j": i})
        assert swapped == e

    def test_substitute_expression(self):
        i, j = var("i"), var("j")
        e = 2 * i
        assert e.substitute({"i": j - 1}) == 2 * j - 2

    @given(exprs(), points())
    def test_substitute_constants_equals_evaluate(self, a, p):
        result = a.substitute({k: AffineExpr.const(v) for k, v in p.items()})
        assert result.is_constant()
        assert result.const_term == a.evaluate(p)


class TestCoefficientVector:
    def test_order(self):
        e = 2 * var("i") - var("k")
        assert e.coefficient_vector(("i", "j", "k")) == [2, 0, -1]

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            var("z").coefficient_vector(("i", "j"))


class TestQuasiAffine:
    def test_floordiv(self):
        e = (var("i") + var("j")).floordiv(2)
        assert e.evaluate_int({"i": 1, "j": 2}) == 1
        assert e.evaluate_int({"i": 2, "j": 2}) == 2

    def test_floor_negative(self):
        e = var("i").floordiv(2)
        assert e.evaluate_int({"i": -3}) == -2

    def test_ceildiv(self):
        e = var("i").ceildiv(2)
        assert e.evaluate_int({"i": 3}) == 2
        assert e.evaluate_int({"i": 4}) == 2

    def test_bad_divisor(self):
        with pytest.raises(ValueError):
            QuasiAffineExpr(var("i"), 0)

    @given(st.integers(-50, 50), st.integers(1, 7))
    def test_floordiv_matches_python(self, v, d):
        e = var("i").floordiv(d)
        assert e.evaluate_int({"i": v}) == v // d

    @given(st.integers(-50, 50), st.integers(1, 7))
    def test_ceildiv_matches_python(self, v, d):
        e = var("i").ceildiv(d)
        assert e.evaluate_int({"i": v}) == -((-v) // d)

    def test_substitute(self):
        e = (var("i") + var("j")).floordiv(2)
        shifted = e.substitute({"j": var("j") - 1})
        assert shifted.evaluate_int({"i": 2, "j": 5}) == 3


class TestEqualityHash:
    @given(exprs())
    def test_equal_hash(self, a):
        b = AffineExpr(a.coeffs, a.const_term)
        assert a == b
        assert hash(a) == hash(b)

    def test_constant_compare_with_int(self):
        assert const(3) == 3
        assert const(3) != 4

    def test_repr_roundtrip_smoke(self):
        e = -var("i") + 2 * var("j") - 1
        text = repr(e)
        assert "i" in text and "j" in text
