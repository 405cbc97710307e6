"""Array variables and indexed references.

Condition CA1 of the canonic form associates every variable with an index
vector drawn from the loop index set; a :class:`Ref` is an occurrence of a
variable with one index expression per coordinate.  For canonic-form modules
the reference index of an operand is ``dims - d`` for a constant dependence
vector ``d`` (condition CA3); :meth:`Ref.dependence_vector` recovers ``d`` or
reports that the reference is non-constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from repro.ir.affine import AffineExpr, ExprLike, Number, QuasiAffineExpr

IndexExpr = Union[AffineExpr, QuasiAffineExpr]


def _coerce_index(entries: Sequence[ExprLike | QuasiAffineExpr]
                  ) -> tuple[IndexExpr, ...]:
    out: list[IndexExpr] = []
    for e in entries:
        if isinstance(e, QuasiAffineExpr):
            out.append(e)
        else:
            out.append(AffineExpr.coerce(e))
    return tuple(out)


@dataclass(frozen=True)
class Ref:
    """An indexed occurrence ``var[index...]`` of a module-local variable."""

    var: str
    index: tuple[IndexExpr, ...]

    @staticmethod
    def of(var: str, *index: ExprLike | QuasiAffineExpr) -> "Ref":
        return Ref(var, _coerce_index(index))

    def evaluate(self, point: Mapping[str, Number]) -> tuple[int, ...]:
        """Concrete integer index at ``point``."""
        out = []
        for e in self.index:
            if isinstance(e, QuasiAffineExpr):
                out.append(e.evaluate_int(point))
            else:
                out.append(e.evaluate_int(point))
        return tuple(out)

    def dependence_vector(self, dims: Sequence[str]) -> tuple[int, ...] | None:
        """The constant dependence ``d`` with ``index == dims - d``.

        Returns ``None`` when the reference is quasi-affine or depends on the
        dims in a non-translation way (a *non-constant* dependence in the
        paper's terminology).
        """
        dims = tuple(dims)
        if len(self.index) != len(dims):
            raise ValueError(
                f"reference {self} has arity {len(self.index)}, dims are {dims}")
        d: list[int] = []
        for pos, e in enumerate(self.index):
            if isinstance(e, QuasiAffineExpr):
                return None
            expected = AffineExpr.var(dims[pos])
            diff = expected - e
            if not diff.is_constant():
                return None
            if diff.const_term.denominator != 1:
                return None
            d.append(int(diff.const_term))
        return tuple(d)

    def __repr__(self) -> str:
        idx = ", ".join(map(repr, self.index))
        return f"{self.var}[{idx}]"


@dataclass(frozen=True)
class ExternalRef:
    """A reference to a variable of *another* module.

    The index expressions are over the dimensions of the *referencing*
    (destination) module; these are the paper's *global dependencies*
    (statements A1–A5 of Section IV), which may be non-constant.
    """

    module: str
    var: str
    index: tuple[IndexExpr, ...]

    @staticmethod
    def of(module: str, var: str, *index: ExprLike | QuasiAffineExpr
           ) -> "ExternalRef":
        return ExternalRef(module, var, _coerce_index(index))

    def evaluate(self, point: Mapping[str, Number]) -> tuple[int, ...]:
        return Ref(self.var, self.index).evaluate(point)

    def __repr__(self) -> str:
        idx = ", ".join(map(repr, self.index))
        return f"{self.module}::{self.var}[{idx}]"
