"""Fourier–Motzkin elimination over systems of rational affine inequalities.

The index sets of the paper (rectangles for convolution, the triangle
``1 <= i < k < j <= n`` for dynamic programming) are integer polyhedra.  We
need three operations on them: emptiness testing, projection (variable
elimination) and per-variable bounds for lattice-point enumeration.  All three
reduce to Fourier–Motzkin elimination, which is exact and fast for the small
dimensionalities (<= 4 variables) that systolic synthesis manipulates.

A constraint is an :class:`~repro.ir.affine.AffineExpr` ``e`` interpreted as
``e >= 0``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from repro.ir.affine import AffineExpr


class Infeasible(Exception):
    """Raised when a system of inequalities is discovered to be empty."""


def _split_on(constraints: Iterable[AffineExpr], name: str):
    """Partition constraints into (lower, upper, free) w.r.t. ``name``.

    For ``c*name + rest >= 0``: if ``c > 0`` the constraint lower-bounds
    ``name`` (``name >= -rest/c``); if ``c < 0`` it upper-bounds it.
    """
    lowers: list[tuple[Fraction, AffineExpr]] = []
    uppers: list[tuple[Fraction, AffineExpr]] = []
    free: list[AffineExpr] = []
    for e in constraints:
        c = e.coeff(name)
        rest = e - AffineExpr({name: c})
        if c > 0:
            lowers.append((c, rest))
        elif c < 0:
            uppers.append((c, rest))
        else:
            free.append(e)
    return lowers, uppers, free


def eliminate(constraints: Sequence[AffineExpr], name: str) -> list[AffineExpr]:
    """Project out ``name``: return constraints on the remaining variables
    whose rational solutions are exactly the projection of the input system.
    """
    lowers, uppers, free = _split_on(constraints, name)
    result = list(free)
    # lower: name >= -rl/cl  (cl > 0);  upper: name <= -ru/cu (cu < 0 so
    # -ru/cu = ru/(-cu)).  Combination: -rl/cl <= ru/(-cu)
    #   <=>  rl*(-cu) + ru*cl >= 0.
    for cl, rl in lowers:
        for cu, ru in uppers:
            combined = rl * (-cu) + ru * cl
            result.append(combined)
    return result


def eliminate_all(constraints: Sequence[AffineExpr],
                  names: Iterable[str]) -> list[AffineExpr]:
    """Eliminate several variables in sequence."""
    current = list(constraints)
    for name in names:
        current = eliminate(current, name)
        current = deduplicate(current)
    return current


def deduplicate(constraints: Sequence[AffineExpr]) -> list[AffineExpr]:
    """Drop duplicate constraints (after normalising positive scale) and
    trivially-true constant constraints; raise :class:`Infeasible` on a
    trivially-false one.
    """
    seen: set[AffineExpr] = set()
    result: list[AffineExpr] = []
    for e in constraints:
        if e.is_constant():
            if e.const_term < 0:
                raise Infeasible(f"constant constraint violated: {e} >= 0")
            continue
        scale = None
        for c in e.coeffs.values():
            scale = abs(c)
            break
        normalised = e / scale if scale not in (None, 0) else e
        if normalised not in seen:
            seen.add(normalised)
            result.append(e)
    return result


def is_satisfiable(constraints: Sequence[AffineExpr],
                   names: Sequence[str]) -> bool:
    """Rational satisfiability of the system over the given variables."""
    try:
        remaining = eliminate_all(deduplicate(constraints), names)
    except Infeasible:
        return False
    for e in remaining:
        if e.is_constant() and e.const_term < 0:
            return False
        if not e.is_constant():
            raise ValueError(
                f"constraint {e} mentions variables outside {list(names)}")
    return True


# -- compiled bound rows (vectorised enumeration support) ---------------------
#
# Lattice-point enumeration evaluates per-dimension bounds at every node of
# the search tree.  Doing that through AffineExpr.partial builds thousands of
# throw-away Fraction expressions.  Instead, the eliminations are performed
# once symbolically and each resulting bound is frozen into an integer *bound
# row* ``(div, const, coeffs)`` meaning
#
#     div * x  +  coeffs . prefix  +  const  >=  0        (div != 0, integer)
#
# so a concrete prefix yields the bound with two integer ops — and a whole
# batch of candidate prefixes can be evaluated with one matrix product.

class BoundRows:
    """Integer lower/upper bound rows of one dimension over a prefix."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: list[tuple[int, int, tuple[int, ...]]],
                 upper: list[tuple[int, int, tuple[int, ...]]]) -> None:
        self.lower = lower   # div > 0:  x >= ceil(-(coeffs.prefix + const)/div)
        self.upper = upper   # div < 0:  x <= floor((coeffs.prefix + const)/-div)

    def evaluate(self, prefix: Sequence[int]) -> tuple[int | None, int | None]:
        """Exact integer (lo, hi) for one prefix; ``None`` = unbounded."""
        lo: int | None = None
        hi: int | None = None
        for div, const, coeffs in self.lower:
            rest = const
            for c, v in zip(coeffs, prefix):
                rest += c * v
            bound = -(rest // div)
            if lo is None or bound > lo:
                lo = bound
        for div, const, coeffs in self.upper:
            rest = const
            for c, v in zip(coeffs, prefix):
                rest += c * v
            bound = rest // -div
            if hi is None or bound < hi:
                hi = bound
        return lo, hi


def _integer_row(coeff: Fraction, rest: AffineExpr,
                 prefix_names: Sequence[str]
                 ) -> tuple[int, int, tuple[int, ...]]:
    """Scale ``coeff * x + rest >= 0`` to integer coefficients."""
    denoms = [coeff.denominator, rest.const_term.denominator]
    denoms += [c.denominator for c in rest.coeffs.values()]
    scale = 1
    for d in denoms:
        scale = scale * d // math.gcd(scale, d)
    div = int(coeff * scale)
    const = int(rest.const_term * scale)
    coeffs = tuple(int(rest.coeff(n) * scale) for n in prefix_names)
    return div, const, coeffs


def compile_bound_rows(constraints: Sequence[AffineExpr], name: str,
                       later_names: Sequence[str],
                       prefix_names: Sequence[str]) -> BoundRows:
    """Project out ``later_names`` and freeze the bounds of ``name`` into
    integer rows over ``prefix_names``.

    Free constant constraints of the projection are checked here (a violated
    one means the whole system is empty → :class:`Infeasible`); free
    non-constant constraints are redundant for enumeration — they are implied
    by the bounds enforced at the prefix dimensions' own levels, because
    Fourier–Motzkin projections are exact over the rationals.
    """
    projected = eliminate_all(deduplicate(constraints), later_names)
    lowers, uppers, free = _split_on(projected, name)
    for e in free:
        if e.is_constant() and e.const_term < 0:
            raise Infeasible(f"{e} >= 0 violated")
    lower_rows = [_integer_row(c, rest, prefix_names) for c, rest in lowers]
    upper_rows = [_integer_row(c, rest, prefix_names) for c, rest in uppers]
    return BoundRows(lower_rows, upper_rows)
