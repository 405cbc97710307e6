"""Vectorised, exact evaluation of affine forms and predicates over point
arrays.

The scalar :class:`~repro.ir.affine.AffineExpr` machinery keeps rational
coefficients as :class:`fractions.Fraction` for exactness; evaluating it one
point at a time dominates the reference evaluator's cost.  This module
evaluates the same expressions over a whole ``(N, d)`` integer point array in
a handful of numpy operations while staying exact: an expression with
rational coefficients is scaled by the least common multiple ``L`` of its
denominators, so ``L * expr`` has integer coefficients and one
``points @ c + c0`` matmul gives ``L`` times the true value.  Sign tests and
floor divisions are then done on the scaled integers — no floating point
anywhere.

Everything here is semantics-preserving with respect to the scalar path:
``eval_affine_int`` raises :class:`ValueError` exactly where
``AffineExpr.evaluate_int`` would (a non-integral value at some point), and
``predicate_mask`` computes the same truth value as ``Predicate.holds`` at
every row.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Mapping, Sequence

import numpy as np

from repro.ir.affine import AffineExpr, Number, QuasiAffineExpr
from repro.ir.predicates import (
    Compare,
    Predicate,
    QuasiEq,
    QuasiGreater,
    QuasiLess,
)


def _scaled_row(expr: AffineExpr, dims: Sequence[str],
                params: Mapping[str, Number]) -> tuple[int, np.ndarray, int]:
    """``(L, c, c0)`` with ``L * expr(p) == p @ c + c0`` for points over
    ``dims`` (parameters folded into the constant).  ``L >= 1``."""
    bound = tuple((name, int(params[name])) for name in expr.coeffs
                  if name in params)
    return _scaled_coeffs(id(expr), expr, tuple(dims), bound)


@lru_cache(maxsize=4096)
def _scaled_coeffs(key: int, expr: AffineExpr, dims: tuple[str, ...],
                   bound: tuple[tuple[str, int], ...]
                   ) -> tuple[int, np.ndarray, int]:
    """:func:`_scaled_row` memoized on (expression, dims, the parameters
    it reads): the rational arithmetic runs once per expression object.
    ``key`` is the expression's ``id``, so a lookup matches by identity
    rather than by comparing rational coefficients."""
    coeffs = expr.coeffs
    const = expr.const_term
    unknown = set(coeffs) - set(dims) - {name for name, _ in bound}
    if unknown:
        raise KeyError(f"unbound variable {sorted(unknown)[0]!r}")
    scale = const.denominator
    for name, c in coeffs.items():
        scale = scale * c.denominator // gcd(scale, c.denominator)
    c0 = const * scale
    for name, value in bound:
        c0 += coeffs[name] * scale * value
    row = np.array([int(coeffs.get(d, 0) * scale) for d in dims],
                   dtype=np.int64)
    row.flags.writeable = False
    return scale, row, int(c0)


def eval_affine_scaled(expr: AffineExpr, dims: Sequence[str],
                       points: np.ndarray,
                       params: Mapping[str, Number]) -> tuple[int, np.ndarray]:
    """``(L, L * expr(points))`` as one matmul over the point array."""
    scale, row, c0 = _scaled_row(expr, dims, params)
    pts = np.asarray(points, dtype=np.int64)
    return scale, pts @ row + c0


def eval_affine_int(expr: AffineExpr, dims: Sequence[str], points: np.ndarray,
                    params: Mapping[str, Number]) -> np.ndarray:
    """Integer values of ``expr`` at every point; raises ``ValueError`` on
    the first non-integral row (matching ``AffineExpr.evaluate_int``)."""
    scale, scaled = eval_affine_scaled(expr, dims, points, params)
    if scale == 1:
        return scaled
    values, rem = np.divmod(scaled, scale)
    if rem.any():
        bad = int(np.argmax(rem != 0))
        point = {d: int(v) for d, v in zip(dims, np.asarray(points)[bad])}
        raise ValueError(
            f"{expr} is not integral at {point}: "
            f"{scaled[bad]}/{scale}")
    return values


def eval_quasi_int(expr: QuasiAffineExpr, dims: Sequence[str],
                   points: np.ndarray,
                   params: Mapping[str, Number]) -> np.ndarray:
    """``floor(numerator / divisor)`` row-wise (exact: integer floordiv of
    the scaled numerator by the scaled divisor)."""
    scale, scaled = eval_affine_scaled(expr.numerator, dims, points, params)
    return scaled // (scale * expr.divisor)


def eval_index_int(expr: AffineExpr | QuasiAffineExpr, dims: Sequence[str],
                   points: np.ndarray,
                   params: Mapping[str, Number]) -> np.ndarray:
    """Either kind of index expression, as used in ``Ref`` indices."""
    if isinstance(expr, QuasiAffineExpr):
        return eval_quasi_int(expr, dims, points, params)
    return eval_affine_int(expr, dims, points, params)


def eval_index_columns(exprs: Sequence[AffineExpr | QuasiAffineExpr],
                       dims: Sequence[str], points: np.ndarray,
                       params: Mapping[str, Number]) -> np.ndarray:
    """:func:`eval_index_int` of every expression as the columns of one
    ``(N, len(exprs))`` array: one matmul over the point array for all of
    them, the exact division only in the columns that need one.  Errors
    are those of :func:`eval_index_int` on the first failing expression."""
    pts = np.asarray(points, dtype=np.int64)
    try:
        scales, matrix, consts, quasi = _scaled_columns(
            tuple(exprs), tuple(dims), tuple(params.items()))
    except KeyError:
        # An unbound variable: raise whatever evaluating the expressions
        # one by one raises first.
        for expr in exprs:
            eval_index_int(expr, dims, pts, params)
        raise
    values = pts @ matrix + consts
    for col, (expr, scale, divisor) in enumerate(zip(exprs, scales, quasi)):
        if divisor:
            values[:, col] //= scale * divisor
        elif scale != 1:
            whole, rem = np.divmod(values[:, col], scale)
            if rem.any():
                bad = int(np.argmax(rem != 0))
                point = {d: int(v) for d, v in zip(dims, pts[bad])}
                raise ValueError(
                    f"{expr} is not integral at {point}: "
                    f"{values[bad, col]}/{scale}")
            values[:, col] = whole
    return values


@lru_cache(maxsize=1024)
def _scaled_columns(exprs: tuple, dims: tuple[str, ...],
                    params: tuple[tuple[str, Number], ...]
                    ) -> tuple[list[int], np.ndarray, np.ndarray, list[int]]:
    """Per expression its scale ``L``, its scaled coefficient column and
    constant (the numerator's, for a quasi-affine one) and its divisor
    (0 for an affine one), memoized on (expressions, dims, parameters)."""
    bound = dict(params)
    scales, columns, consts, quasi = [], [], [], []
    for expr in exprs:
        affine = expr.numerator if isinstance(expr, QuasiAffineExpr) else expr
        scale, row, c0 = _scaled_row(affine, dims, bound)
        scales.append(scale)
        columns.append(row)
        consts.append(c0)
        quasi.append(expr.divisor if affine is not expr else 0)
    matrix = (np.stack(columns, axis=1) if columns
              else np.zeros((len(dims), 0), dtype=np.int64))
    matrix.flags.writeable = False
    consts_arr = np.asarray(consts, dtype=np.int64)
    consts_arr.flags.writeable = False
    return scales, matrix, consts_arr, quasi


def atom_mask(atom, dims: Sequence[str], points: np.ndarray,
              params: Mapping[str, Number]) -> np.ndarray:
    """Boolean mask of one predicate atom over the point array."""
    if isinstance(atom, Compare):
        _, scaled = eval_affine_scaled(atom.expr, dims, points, params)
        if atom.rel == "==":
            return scaled == 0
        if atom.rel == ">=":
            return scaled >= 0
        return scaled > 0
    if isinstance(atom, QuasiEq):
        lhs = eval_affine_int(atom.lhs, dims, points, params)
        rhs = eval_quasi_int(atom.rhs, dims, points, params)
        return lhs == rhs
    if isinstance(atom, QuasiGreater):
        lhs = eval_affine_int(atom.lhs, dims, points, params)
        rhs = eval_quasi_int(atom.rhs, dims, points, params)
        return lhs > rhs if atom.strict else lhs >= rhs
    if isinstance(atom, QuasiLess):
        lhs = eval_affine_int(atom.lhs, dims, points, params)
        rhs = eval_quasi_int(atom.rhs, dims, points, params)
        return lhs < rhs if atom.strict else lhs <= rhs
    raise TypeError(f"unsupported predicate atom {type(atom).__name__}")


def predicate_mask(pred: Predicate, dims: Sequence[str], points: np.ndarray,
                   params: Mapping[str, Number]) -> np.ndarray:
    """Row-wise truth of a conjunction over the point array.

    Later atoms are evaluated only on rows every earlier atom accepted —
    the vector analogue of ``all()``'s short-circuit, so an atom that would
    raise (a non-integral ``evaluate_int``) on an already-excluded row stays
    unevaluated there, exactly as in the scalar path.
    """
    pts = np.asarray(points, dtype=np.int64)
    mask = np.ones(pts.shape[0], dtype=bool)
    for atom in pred.atoms:
        if mask.all():
            mask &= atom_mask(atom, dims, pts, params)
        else:
            alive = np.flatnonzero(mask)
            if alive.size == 0:
                break
            mask[alive] = atom_mask(atom, dims, pts[alive], params)
    return mask
