"""Optimal linear schedule search for a single canonic-form module.

System (1) — ``T(d) > 0`` for every dependence — "may have no solution or
several solutions.  In this latter case, the one which minimizes the total
execution time ... is chosen."  We solve it exactly by bounded enumeration of
integer coefficient vectors with a deterministic tie-break, and cross-check
optimality against an LP relaxation (:func:`lp_lower_bound`) built with
scipy.  Bounded enumeration is exact for the coefficient magnitudes that
matter: an optimal schedule of a system with unit-ish dependence vectors has
small coefficients, and the bound is a caller-visible parameter.

The search is vectorised: the full ``(2*bound+1)^dim`` candidate grid is
materialised once (and memoized per ``(dim, bound)``), validity ``C @ D >= 1``
is one matrix comparison, and all makespans come from a single
``C @ points.T`` product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.deps.vectors import DependenceMatrix
from repro.ir.indexset import Polyhedron
from repro.obs import TRACER
from repro.schedule.linear import LinearSchedule
from repro.util.errors import SynthesisError


class NoScheduleExists(SynthesisError):
    """System (1) has no solution within the search bound (or at all)."""


@dataclass(frozen=True)
class ScheduleSolution:
    """The chosen schedule plus the quality landscape found by the search."""

    schedule: LinearSchedule
    makespan: int
    optima: tuple[LinearSchedule, ...]      # all schedules achieving it
    candidates_examined: int


_grid_cache: dict[tuple[int, int], np.ndarray] = {}


def coefficient_grid(dim: int, bound: int) -> np.ndarray:
    """All integer vectors of ``[-bound, bound]^dim`` as a read-only
    ``((2*bound+1)^dim, dim)`` array, rows in the same lexicographic order as
    ``itertools.product(range(-bound, bound + 1), repeat=dim)``.  Memoized —
    every solver invocation at the same (dim, bound) reuses the grid."""
    key = (dim, bound)
    grid = _grid_cache.get(key)
    if grid is None:
        if dim == 0:
            grid = np.zeros((1, 0), dtype=np.int64)
        else:
            side = np.arange(-bound, bound + 1, dtype=np.int64)
            mesh = np.meshgrid(*([side] * dim), indexing="ij")
            grid = np.stack([m.ravel() for m in mesh], axis=1)
        grid.setflags(write=False)
        _grid_cache[key] = grid
    return grid


def valid_candidates(deps: DependenceMatrix, dim: int,
                     bound: int) -> np.ndarray:
    """Rows of the candidate grid satisfying ``t . d >= 1`` for every
    dependence, zero vector excluded, order preserved.

    This is the raw ``(k, dim)`` integer array the vectorised solver scans;
    :func:`valid_coefficient_vectors` yields the same rows as tuples.
    """
    grid = coefficient_grid(dim, bound)
    mask = np.any(grid != 0, axis=1)
    D = deps.matrix() if deps is not None and len(deps) > 0 else None
    if D is not None and D.size > 0:
        mask &= np.all(grid @ D >= 1, axis=1)
    return grid[mask]


#: Backwards-compatible private alias (pre-1.1 name).
_valid_candidates = valid_candidates


def valid_coefficient_vectors(deps: DependenceMatrix, dim: int,
                              bound: int) -> Iterator[tuple[int, ...]]:
    """All integer vectors in ``[-bound, bound]^dim`` with ``t . d >= 1`` for
    every dependence vector ``d``.

    The all-zero vector is rejected explicitly: with a non-empty dependence
    matrix it can never satisfy ``t . d >= 1``, and with an *empty* one it
    would otherwise slip through and produce a singular transformation,
    violating the nonsingularity requirement of eq. (2).
    """
    for row in valid_candidates(deps, dim, bound):
        yield tuple(int(c) for c in row)


def optimal_schedule(deps: DependenceMatrix, domain: Polyhedron,
                     params: Mapping[str, int], bound: int = 3
                     ) -> ScheduleSolution:
    """Exhaustively find the valid schedule minimising the makespan.

    Ties are broken by smaller coefficient L1 norm, then lexicographically —
    so the result is deterministic and matches the paper's "least integer
    values" convention.
    """
    dims = domain.dims
    points = domain.points_array(params)
    if points.size == 0:
        raise ValueError("cannot schedule an empty domain")
    candidates = valid_candidates(deps, len(dims), bound)
    if candidates.shape[0] == 0:
        raise NoScheduleExists(
            f"no valid schedule with coefficients in [-{bound}, {bound}] "
            f"for dependencies {deps}", bounds=bound)
    times = candidates @ points.T
    spans = times.max(axis=1) - times.min(axis=1)
    solution = _assemble(dims, candidates, spans, int(candidates.shape[0]))
    TRACER.count("solver.searches")
    TRACER.count("solver.candidates_examined", solution.candidates_examined)
    return solution


def _assemble(dims: tuple[str, ...], candidates: np.ndarray,
              spans: np.ndarray, examined: int) -> ScheduleSolution:
    """Pick the optimum and rebuild the ``optima`` sequence exactly as the
    historical per-candidate loop did: first minimum-makespan candidate
    seeds the list, subsequent ones are inserted at the front whenever they
    improve the running (L1, lex) tie-break and appended otherwise."""
    best_span = int(spans.min())
    where = np.flatnonzero(spans == best_span)
    l1s = np.abs(candidates[where]).sum(axis=1)
    optima: list[LinearSchedule] = []
    best_l1: int | None = None
    chosen: LinearSchedule | None = None
    for pos, idx in enumerate(where):
        coeffs = tuple(int(c) for c in candidates[idx])
        sched = LinearSchedule(dims, coeffs)
        l1 = int(l1s[pos])
        if best_l1 is None or l1 < best_l1:
            optima.insert(0, sched)
            best_l1 = l1
            chosen = sched
        else:
            optima.append(sched)
    assert chosen is not None
    return ScheduleSolution(chosen, best_span, tuple(optima), examined)


def lp_lower_bound(deps: DependenceMatrix, domain: Polyhedron,
                   params: Mapping[str, int]) -> float:
    """LP-relaxation lower bound on the optimal makespan.

    Variables: real coefficients ``t``, scalars ``M`` (max) and ``m`` (min).
    Constraints: ``t . d >= 1`` for each dependence; ``m <= t . p <= M`` for
    every lattice point ``p``.  Objective: minimise ``M - m``.  The integer
    optimum found by :func:`optimal_schedule` can never beat this bound.
    """
    dims = domain.dims
    ndim = len(dims)
    points = domain.points_array(params).astype(np.float64)
    n_pts = points.shape[0]
    if n_pts == 0:
        raise ValueError("empty domain")
    # Variable layout: [t_1..t_ndim, M, m].
    n_var = ndim + 2
    c = np.zeros(n_var)
    c[ndim] = 1.0      # +M
    c[ndim + 1] = -1.0  # -m
    A_ub = []
    b_ub = []
    for v in deps.vectors:
        row = np.zeros(n_var)
        row[:ndim] = -np.array(v.vector, dtype=np.float64)
        A_ub.append(row)      # -t.d <= -1
        b_ub.append(-1.0)
    for p in points:
        row = np.zeros(n_var)
        row[:ndim] = p
        row[ndim] = -1.0      # t.p - M <= 0
        A_ub.append(row)
        b_ub.append(0.0)
        row2 = np.zeros(n_var)
        row2[:ndim] = -p
        row2[ndim + 1] = 1.0  # m - t.p <= 0
        A_ub.append(row2)
        b_ub.append(0.0)
    from scipy.optimize import linprog  # deferred: scipy costs ~0.5 s
    res = linprog(c, A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                  bounds=[(None, None)] * n_var, method="highs")
    if not res.success:
        raise NoScheduleExists(f"LP relaxation infeasible: {res.message}")
    return float(res.fun)


def fastest_free_schedule(deps: DependenceMatrix, domain: Polyhedron,
                          params: Mapping[str, int]) -> int:
    """Data-flow-limited completion time (longest dependence chain length),
    a lower bound no schedule — linear or not — can beat."""
    from repro.deps.graph import critical_path_length, dependence_dag

    dag = dependence_dag(domain, deps, params)
    return critical_path_length(dag)
