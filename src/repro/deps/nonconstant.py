"""Non-constant dependence analysis for high-level specifications (eq. 6).

For the statement ``c(i^s) = f(c(i^s - d^s_1), ..., c(i^s - d^s_m))`` each
parametric vector ``d^s_j`` has component ``i_{t_j} - i_n`` in position
``t_j`` and constants elsewhere.  Expanding over the reduction range yields
the per-point dependence sets ``D^c_{i^s}``; their intersection over the
domain is the constant set ``D^c`` (Section III) from which the coarse timing
function is derived.

For dynamic programming this module reproduces the paper's matrices::

    D^c_(i,j) = [ (0, j-k), (i-k, 0) ]  expanded over i < k < j
    D^c       = [ (0, 1),   (-1, 0) ]
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from repro.deps.vectors import DependenceMatrix, DependenceVector
from repro.ir import fourier_motzkin as fm
from repro.ir.affine import AffineExpr
from repro.ir.indexset import Polyhedron
from repro.ir.program import ArgSpec, HighLevelSpec


def _projected_bounds(domain: Polyhedron, expr: AffineExpr,
                      params: Mapping[str, int] | None
                      ) -> tuple[list, list]:
    """FM-project ``z = expr`` over the domain; return the (lower, upper)
    bound expressions on ``z`` (affine in the remaining parameters)."""
    z = "__z"
    constraints = list(domain.constraints)
    diff = AffineExpr.var(z) - expr
    constraints.extend([diff, -diff])
    if params:
        constraints = [e.partial(params) for e in constraints]
    projected = fm.eliminate_all(fm.deduplicate(constraints), list(domain.dims))
    lowers: list[AffineExpr] = []
    uppers: list[AffineExpr] = []
    for e in projected:
        c = e.coeff(z)
        rest = e - AffineExpr({z: c})
        if c > 0:
            lowers.append(rest * (Fraction(-1) / c))
        elif c < 0:
            uppers.append(rest * (Fraction(-1) / c))
        elif rest.is_constant() and rest.const_term < 0:
            raise fm.Infeasible("domain is empty")
    return lowers, uppers


def _require_constant(bounds: list, expr: AffineExpr, side: str) -> list[Fraction]:
    values = []
    for b in bounds:
        if not b.is_constant():
            raise ValueError(
                f"{side} extremum of {expr} depends on parameters "
                f"{sorted(b.variables())}; supply concrete params")
        values.append(b.const_term)
    return values


def affine_min(domain: Polyhedron, expr: AffineExpr,
               params: Mapping[str, int] | None = None) -> Fraction:
    """Exact minimum of an affine expression over a (possibly parametric)
    polyhedron; raises if the minimum itself depends on unbound parameters."""
    lowers, _ = _projected_bounds(domain, expr, params)
    values = _require_constant(lowers, expr, "lower")
    if not values:
        raise ValueError(f"{expr} is unbounded below over the domain")
    return max(values)


def affine_max(domain: Polyhedron, expr: AffineExpr,
               params: Mapping[str, int] | None = None) -> Fraction:
    """Exact maximum; see :func:`affine_min`."""
    _, uppers = _projected_bounds(domain, expr, params)
    values = _require_constant(uppers, expr, "upper")
    if not values:
        raise ValueError(f"{expr} is unbounded above over the domain")
    return min(values)


def _arg_component_interval(spec: HighLevelSpec, arg: ArgSpec,
                            params: Mapping[str, int] | None
                            ) -> tuple[int, int] | None:
    """Intersection over the domain of the replaced-component range of one
    argument: ``[max(i_t - hi), min(i_t - lo)]`` — empty gives ``None``."""
    t = arg.replaced_coord
    it = AffineExpr.var(spec.dims[t])
    lo_expr = it - spec.k_upper     # smallest value of i_t - k
    hi_expr = it - spec.k_lower     # largest value of i_t - k
    # Intersection of [lo(i), hi(i)] over all i: [max lo, min hi] — only the
    # inner sides are needed, so a parametric outer side is harmless.
    lower = affine_max(spec.domain, lo_expr, params)
    upper = affine_min(spec.domain, hi_expr, params)
    if lower > upper:
        return None
    # Integer endpoints: ceil(lower), floor(upper).
    ilow = -((-lower.numerator) // lower.denominator)
    ihigh = upper.numerator // upper.denominator
    if ilow > ihigh:
        return None
    return ilow, ihigh


def constant_dependence_set(spec: HighLevelSpec,
                            params: Mapping[str, int] | None = None
                            ) -> DependenceMatrix:
    """The constant subset ``D^c = ∩ D^c_{i^s}`` (Section III).

    For each argument, a vector survives the intersection iff its replaced
    component lies in every point's range; the other components are the fixed
    offsets.  Zero vectors (possible when an offset pattern collapses) are
    dropped — they carry no ordering information.
    """
    vectors: list[DependenceVector] = []
    for arg_pos, arg in enumerate(spec.args):
        interval = _arg_component_interval(spec, arg, params)
        if interval is None:
            continue
        lo, hi = interval
        for v in range(lo, hi + 1):
            d = list(arg.offsets)
            d[arg.replaced_coord] = v
            if any(c != 0 for c in d):
                vectors.append(
                    DependenceVector(f"{spec.target}@arg{arg_pos}", tuple(d)))
    return DependenceMatrix(vectors)
