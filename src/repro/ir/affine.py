"""Affine (and quasi-affine) expressions over named index variables.

The synthesis method of the paper is built entirely out of affine machinery:
index sets are defined by affine bounds, dependence vectors are differences of
affine index maps, time functions and space maps are affine, and the chain
boundaries of Section IV involve the quasi-affine forms ``floor((i+j)/2)`` and
``ceil((i+j)/2)``.  This module provides exact-arithmetic expressions for all
of those.

An :class:`AffineExpr` is ``sum_k c_k * x_k + c0`` with rational coefficients
(held as :class:`fractions.Fraction` so that intermediate forms such as
``(i+j)/2`` are exact).  A :class:`QuasiAffineExpr` is
``floor((affine) / divisor)``, the only non-affine construct the paper needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

Number = Union[int, Fraction]
ExprLike = Union["AffineExpr", "QuasiAffineExpr", int, Fraction, str]


def _as_fraction(value: Number) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class AffineExpr:
    """An immutable affine form ``sum coeffs[name] * name + const``.

    Construct with :meth:`var`, :meth:`const`, or arithmetic on existing
    expressions; plain ints/Fractions and bare variable-name strings coerce
    automatically in arithmetic.
    """

    __slots__ = ("_coeffs", "_const", "_hash")

    def __init__(self, coeffs: Mapping[str, Number] | None = None,
                 const: Number = 0) -> None:
        items = {}
        if coeffs:
            for name, c in coeffs.items():
                frac = _as_fraction(c)
                if frac != 0:
                    items[str(name)] = frac
        self._coeffs: dict[str, Fraction] = items
        self._const: Fraction = _as_fraction(const)
        self._hash: int | None = None

    # -- constructors -----------------------------------------------------
    @staticmethod
    def var(name: str) -> "AffineExpr":
        """The expression consisting of a single variable."""
        return AffineExpr({name: 1})

    @staticmethod
    def const(value: Number) -> "AffineExpr":
        """A constant expression."""
        return AffineExpr({}, value)

    @staticmethod
    def coerce(value: ExprLike) -> "AffineExpr":
        """Coerce ints, Fractions and variable-name strings to AffineExpr."""
        if isinstance(value, AffineExpr):
            return value
        if isinstance(value, QuasiAffineExpr):
            raise TypeError("quasi-affine expression used where affine required")
        if isinstance(value, str):
            return AffineExpr.var(value)
        return AffineExpr.const(value)

    @staticmethod
    def from_vector(names: Iterable[str], coeffs: Iterable[Number],
                    const: Number = 0) -> "AffineExpr":
        """Build ``sum coeffs[k]*names[k] + const`` from parallel sequences."""
        names = list(names)
        coeffs = list(coeffs)
        if len(names) != len(coeffs):
            raise ValueError("names and coeffs must have equal length")
        return AffineExpr(dict(zip(names, coeffs)), const)

    # -- accessors ---------------------------------------------------------
    @property
    def coeffs(self) -> Mapping[str, Fraction]:
        return dict(self._coeffs)

    @property
    def const_term(self) -> Fraction:
        return self._const

    def coeff(self, name: str) -> Fraction:
        """Coefficient of ``name`` (0 if absent)."""
        return self._coeffs.get(name, Fraction(0))

    def variables(self) -> frozenset[str]:
        return frozenset(self._coeffs)

    def is_constant(self) -> bool:
        return not self._coeffs

    def coefficient_vector(self, names: Iterable[str]) -> list[Fraction]:
        """Coefficients in the order given by ``names``.

        Raises if the expression mentions a variable not in ``names``.
        """
        names = list(names)
        missing = self.variables() - set(names)
        if missing:
            raise ValueError(f"expression mentions unknown variables {sorted(missing)}")
        return [self.coeff(n) for n in names]

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: ExprLike) -> "AffineExpr":
        other = AffineExpr.coerce(other)
        coeffs = dict(self._coeffs)
        for name, c in other._coeffs.items():
            coeffs[name] = coeffs.get(name, Fraction(0)) + c
        return AffineExpr(coeffs, self._const + other._const)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr({n: -c for n, c in self._coeffs.items()}, -self._const)

    def __sub__(self, other: ExprLike) -> "AffineExpr":
        return self + (-AffineExpr.coerce(other))

    def __rsub__(self, other: ExprLike) -> "AffineExpr":
        return AffineExpr.coerce(other) - self

    def __mul__(self, scalar: Number) -> "AffineExpr":
        scalar = _as_fraction(scalar)
        return AffineExpr({n: c * scalar for n, c in self._coeffs.items()},
                          self._const * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Number) -> "AffineExpr":
        scalar = _as_fraction(scalar)
        if scalar == 0:
            raise ZeroDivisionError("division of affine expression by zero")
        return self * (Fraction(1) / scalar)

    def floordiv(self, divisor: int) -> "QuasiAffineExpr":
        """``floor(self / divisor)`` as a quasi-affine expression."""
        return QuasiAffineExpr(self, divisor)

    def ceildiv(self, divisor: int) -> "QuasiAffineExpr":
        """``ceil(self / divisor)`` via ``floor((e + d - 1) / d)``."""
        divisor = int(divisor)
        if divisor <= 0:
            raise ValueError("ceildiv requires a positive divisor")
        return QuasiAffineExpr(self + (divisor - 1), divisor)

    # -- evaluation / substitution -------------------------------------------
    def evaluate(self, point: Mapping[str, Number]) -> Fraction:
        """Exact value at ``point`` (every variable must be bound)."""
        total = self._const
        for name, c in self._coeffs.items():
            if name not in point:
                raise KeyError(f"unbound variable {name!r}")
            total += c * _as_fraction(point[name])
        return total

    def evaluate_int(self, point: Mapping[str, Number]) -> int:
        """Evaluate and assert the result is an integer."""
        value = self.evaluate(point)
        if value.denominator != 1:
            raise ValueError(f"{self} is not integral at {dict(point)}: {value}")
        return int(value)

    def substitute(self, binding: Mapping[str, ExprLike]) -> "AffineExpr":
        """Replace variables by affine expressions (simultaneous)."""
        result = AffineExpr.const(self._const)
        for name, c in self._coeffs.items():
            replacement = (AffineExpr.coerce(binding[name])
                           if name in binding else AffineExpr.var(name))
            result = result + replacement * c
        return result

    def partial(self, point: Mapping[str, Number]) -> "AffineExpr":
        """Substitute *some* variables with numeric values."""
        return self.substitute({k: AffineExpr.const(_as_fraction(v))
                                for k, v in point.items()})

    def is_integer_form(self) -> bool:
        """True if all coefficients and the constant are integers."""
        return (self._const.denominator == 1
                and all(c.denominator == 1 for c in self._coeffs.values()))

    # -- comparison --------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = AffineExpr.const(other)
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self._coeffs == other._coeffs and self._const == other._const

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self._coeffs.items()), self._const))
        return self._hash

    def __repr__(self) -> str:
        parts: list[str] = []
        for name in sorted(self._coeffs):
            c = self._coeffs[name]
            if c == 1:
                parts.append(f"+ {name}")
            elif c == -1:
                parts.append(f"- {name}")
            elif c < 0:
                parts.append(f"- {-c}*{name}")
            else:
                parts.append(f"+ {c}*{name}")
        if self._const != 0 or not parts:
            sign = "-" if self._const < 0 else "+"
            parts.append(f"{sign} {abs(self._const)}")
        text = " ".join(parts)
        if text.startswith("+ "):
            text = text[2:]
        elif text.startswith("- "):
            text = "-" + text[2:]
        return text


@dataclass(frozen=True)
class QuasiAffineExpr:
    """``floor(numerator / divisor)`` for an affine numerator.

    This is the only non-affine index form the paper's method needs: the chain
    split points of Section IV are ``floor((i+j)/2)`` and ``ceil`` variants.
    """

    numerator: AffineExpr
    divisor: int

    def __post_init__(self) -> None:
        if int(self.divisor) <= 0:
            raise ValueError("divisor must be a positive integer")
        object.__setattr__(self, "divisor", int(self.divisor))

    def evaluate_int(self, point: Mapping[str, Number]) -> int:
        value = self.numerator.evaluate(point)
        scaled = value / self.divisor
        # Exact floor of a Fraction.
        return scaled.numerator // scaled.denominator

    # Affine-compatible alias so bounds code can treat both kinds uniformly.
    evaluate = evaluate_int

    def variables(self) -> frozenset[str]:
        return self.numerator.variables()

    def substitute(self, binding: Mapping[str, ExprLike]) -> "QuasiAffineExpr":
        return QuasiAffineExpr(self.numerator.substitute(binding), self.divisor)

    def __repr__(self) -> str:
        return f"floor(({self.numerator}) / {self.divisor})"


def var(name: str) -> AffineExpr:
    """Shorthand for :meth:`AffineExpr.var`."""
    return AffineExpr.var(name)


def const(value: Number) -> AffineExpr:
    """Shorthand for :meth:`AffineExpr.const`."""
    return AffineExpr.const(value)
