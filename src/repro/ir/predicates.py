"""Index predicates for conditional assignments.

The paper's computational model (Section II.A) restricts conditional
assignments to predicates that "depend only on the values of the loop indices
and not on the values of the variables".  The dynamic-programming system of
Section IV needs two atom kinds:

* affine comparisons (``k = i + 1``, ``k > i + 1``),
* quasi-affine comparisons (``k = floor((i+j)/2)``).

A :class:`Predicate` is a conjunction of such atoms; disjunctions are not
needed (guards of distinct rules supply the case split).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from repro.ir.affine import AffineExpr, ExprLike, Number, QuasiAffineExpr


class Atom:
    """Base class of predicate atoms."""

    def holds(self, point: Mapping[str, Number]) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Compare(Atom):
    """``expr rel 0`` with ``rel`` in {'==', '>=', '>'}; expr affine."""

    expr: AffineExpr
    rel: str

    def __post_init__(self) -> None:
        if self.rel not in ("==", ">=", ">"):
            raise ValueError(f"unsupported relation {self.rel!r}")

    def holds(self, point: Mapping[str, Number]) -> bool:
        value = self.expr.evaluate(point)
        if self.rel == "==":
            return value == 0
        if self.rel == ">=":
            return value >= 0
        return value > 0

    def __repr__(self) -> str:
        return f"({self.expr} {self.rel} 0)"


@dataclass(frozen=True)
class QuasiEq(Atom):
    """``lhs == floor(num/div)`` for affine ``lhs`` and quasi-affine rhs."""

    lhs: AffineExpr
    rhs: QuasiAffineExpr

    def holds(self, point: Mapping[str, Number]) -> bool:
        return self.lhs.evaluate_int(point) == self.rhs.evaluate_int(point)

    def __repr__(self) -> str:
        return f"({self.lhs} == {self.rhs})"


class Predicate:
    """A conjunction of atoms.  The empty conjunction is ``TRUE``."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Sequence[Atom] = ()) -> None:
        self.atoms: tuple[Atom, ...] = tuple(atoms)

    def holds(self, point: Mapping[str, Number]) -> bool:
        return all(atom.holds(point) for atom in self.atoms)

    def __and__(self, other: "Predicate") -> "Predicate":
        return Predicate(self.atoms + other.atoms)

    def is_true(self) -> bool:
        return not self.atoms

    def __repr__(self) -> str:
        if not self.atoms:
            return "TRUE"
        return " & ".join(map(repr, self.atoms))


TRUE = Predicate()

_RhsLike = Union[ExprLike, QuasiAffineExpr]


def _coerce_rhs(rhs: _RhsLike):
    if isinstance(rhs, QuasiAffineExpr):
        return rhs
    return AffineExpr.coerce(rhs)


def equals(lhs: ExprLike, rhs: _RhsLike) -> Predicate:
    """Predicate ``lhs == rhs`` (rhs may be quasi-affine)."""
    left = AffineExpr.coerce(lhs)
    right = _coerce_rhs(rhs)
    if isinstance(right, QuasiAffineExpr):
        return Predicate([QuasiEq(left, right)])
    return Predicate([Compare(left - right, "==")])


def greater(lhs: ExprLike, rhs: _RhsLike) -> Predicate:
    """Predicate ``lhs > rhs``."""
    left = AffineExpr.coerce(lhs)
    right = _coerce_rhs(rhs)
    if isinstance(right, QuasiAffineExpr):
        # lhs > floor(num/div)  <=>  lhs >= floor(num/div) + 1
        # evaluated pointwise; keep as a dedicated atom via QuasiGreater.
        return Predicate([QuasiGreater(left, right, strict=True)])
    return Predicate([Compare(left - right, ">")])


def at_least(lhs: ExprLike, rhs: _RhsLike) -> Predicate:
    """Predicate ``lhs >= rhs``."""
    left = AffineExpr.coerce(lhs)
    right = _coerce_rhs(rhs)
    if isinstance(right, QuasiAffineExpr):
        return Predicate([QuasiGreater(left, right, strict=False)])
    return Predicate([Compare(left - right, ">=")])


def at_most(lhs: ExprLike, rhs: _RhsLike) -> Predicate:
    """Predicate ``lhs <= rhs``."""
    left = AffineExpr.coerce(lhs)
    right = _coerce_rhs(rhs)
    if isinstance(right, QuasiAffineExpr):
        return Predicate([QuasiLess(left, right, strict=False)])
    return Predicate([Compare(right - left, ">=")])


@dataclass(frozen=True)
class QuasiGreater(Atom):
    """``lhs > rhs`` (or ``>=`` when not strict) with quasi-affine rhs."""

    lhs: AffineExpr
    rhs: QuasiAffineExpr
    strict: bool

    def holds(self, point: Mapping[str, Number]) -> bool:
        left = self.lhs.evaluate_int(point)
        right = self.rhs.evaluate_int(point)
        return left > right if self.strict else left >= right

    def __repr__(self) -> str:
        op = ">" if self.strict else ">="
        return f"({self.lhs} {op} {self.rhs})"


@dataclass(frozen=True)
class QuasiLess(Atom):
    """``lhs < rhs`` (or ``<=`` when not strict) with quasi-affine rhs."""

    lhs: AffineExpr
    rhs: QuasiAffineExpr
    strict: bool

    def holds(self, point: Mapping[str, Number]) -> bool:
        left = self.lhs.evaluate_int(point)
        right = self.rhs.evaluate_int(point)
        return left < right if self.strict else left <= right

    def __repr__(self) -> str:
        op = "<" if self.strict else "<="
        return f"({self.lhs} {op} {self.rhs})"
