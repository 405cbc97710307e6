"""Space maps (processor allocation functions) and their enumeration.

A :class:`SpaceMap` is the paper's ``S : I^n -> L^{n-1}``, affine with integer
coefficients (a translation offset is allowed — the new design of Section VI
maps the combine statement to cell ``(i+1, i)``).

Feasibility of a candidate ``S`` w.r.t. a schedule ``T`` and interconnection
``Δ`` (conditions (2) and (3)):

* **flow realisability** — for every dependence ``d``, the displacement
  ``S d`` must be coverable by at most ``T(d)`` links of ``Δ`` (``K`` column
  with non-negative entries; idle cycles absorb the slack);
* **conflict-freedom** — no two computations of the module may collide in
  (time, cell).  Enumeration demands full column rank of ``[T; S]``, which
  makes it hold globally; verification re-checks it pointwise over the
  enumerated domain (:func:`conflict_free`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.deps.vectors import DependenceMatrix
from repro.obs import TRACER
from repro.schedule.linear import LinearSchedule
from repro.space.diophantine import LinkDecomposer


@dataclass(frozen=True)
class SpaceMap:
    """``S(x) = matrix @ x + offset`` mapping index points to cell labels."""

    dims: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    offset: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        matrix = tuple(tuple(int(v) for v in row) for row in self.matrix)
        object.__setattr__(self, "matrix", matrix)
        if not matrix:
            raise ValueError("space map needs at least one output coordinate")
        widths = {len(row) for row in matrix}
        if widths != {len(self.dims)}:
            raise ValueError("matrix row width must equal #dims")
        offset = tuple(int(v) for v in self.offset) if self.offset \
            else tuple([0] * len(matrix))
        if len(offset) != len(matrix):
            raise ValueError("offset length must equal #rows")
        object.__setattr__(self, "offset", offset)

    @property
    def label_dim(self) -> int:
        return len(self.matrix)

    def cell(self, point: Sequence[int] | Mapping[str, int]) -> tuple[int, ...]:
        if isinstance(point, Mapping):
            values = [int(point[d]) for d in self.dims]
        else:
            values = [int(v) for v in point]
        return tuple(
            sum(c * v for c, v in zip(row, values)) + off
            for row, off in zip(self.matrix, self.offset))

    def cells(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.int64)
        M = np.array(self.matrix, dtype=np.int64)
        return pts @ M.T + np.array(self.offset, dtype=np.int64)

    def of_vector(self, d: Sequence[int]) -> tuple[int, ...]:
        """Spatial displacement ``S d`` of a dependence vector (offset-free)."""
        return tuple(sum(c * int(v) for c, v in zip(row, d))
                     for row in self.matrix)

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(str(v) for v in row) + (f" +{off}" if off else "")
            for row, off in zip(self.matrix, self.offset))
        return f"S{self.dims}=[{rows}]"


def entry_preference(value: int) -> tuple[int, int]:
    """Deterministic ordering of matrix entries: 0 < 1 < -1 < 2 < -2 < ...
    (prefer small magnitudes, and non-negative within a magnitude) — this is
    the "least integer values" convention the paper uses when several optima
    exist."""
    return (abs(value), 0 if value >= 0 else 1)


def conflict_free(schedule: LinearSchedule, space: SpaceMap,
                  points: np.ndarray) -> bool:
    """Exact pointwise check of condition (2) over the enumerated domain:
    no two points share both time and cell."""
    pts = np.asarray(points, dtype=np.int64)
    if pts.shape[0] <= 1:
        return True
    times = schedule.times(pts)
    cells = space.cells(pts)
    stamped = np.column_stack([times, cells])
    # One lexsort + adjacent-row comparison: a collision is two equal
    # consecutive rows in sorted order (cheaper than np.unique, which also
    # materialises the deduplicated array).
    order = np.lexsort(stamped.T[::-1])
    ranked = stamped[order]
    return not (ranked[1:] == ranked[:-1]).all(axis=1).any()


def flows_realisable(deps: DependenceMatrix, schedule: LinearSchedule,
                     space: SpaceMap, decomposer: LinkDecomposer) -> bool:
    """Condition (3) with the paper's locality reading: every dependence's
    displacement must be coverable within its time slack.

    Slacks ``T d`` and displacements ``S D`` are computed for all dependence
    columns in two matmuls; only the (cached) per-pair reachability query
    remains scalar."""
    D = deps.matrix()                                    # dim x k
    slacks = np.array(schedule.coeffs, dtype=np.int64) @ D
    disps = np.array(space.matrix, dtype=np.int64) @ D   # label_dim x k
    return all(
        decomposer.reachable_within(tuple(int(c) for c in disps[:, j]),
                                    int(slacks[j]))
        for j in range(D.shape[1]))


# Candidate matrices per batched pass: bounds the grid slice and the filter
# temporaries however many matrices the bound box holds.
_CHUNK = 4096


@lru_cache(maxsize=32)
def _grid_chunk(n: int, label_dim: int, bound: int, start: int) -> np.ndarray:
    """Matrices ``start .. start + _CHUNK`` of the bound box as one int64
    array of shape ``(B, label_dim, n)``, in :func:`entry_preference`
    row-major order (the order of ``itertools.product`` over the rows).

    Matrix ``i`` is ``i`` written in base ``2 bound + 1``, most significant
    digit first, each digit an index into the preferred entry order."""
    entries = np.array(sorted(range(-bound, bound + 1), key=entry_preference),
                       dtype=np.int64)
    width = n * label_dim
    total = len(entries) ** width
    index = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
    place = len(entries) ** np.arange(width - 1, -1, -1, dtype=np.int64)
    grid = entries[(index[:, None] // place) % len(entries)]
    grid = grid.reshape(len(index), label_dim, n)
    grid.flags.writeable = False
    return grid


def _nonsingular(M: np.ndarray) -> np.ndarray:
    """Whether each integer matrix of the ``(B, n, n)`` stack has a non-zero
    determinant, by batched fraction-free (Bareiss) elimination.

    Every entry Bareiss produces is a minor, so the Hadamard bound ``H`` of
    the stack bounds it and ``2 H^2`` bounds each intermediate product: the
    pass runs in int64 when that fits and on Python ints when it does not.
    Exact either way."""
    M = np.asarray(M)
    count, n = M.shape[0], M.shape[-1]
    if n == 0:
        return np.ones(count, dtype=bool)
    norms = np.sqrt(np.square(M.astype(np.float64)).sum(axis=2))
    hadamard = np.maximum(norms, 1.0).prod(axis=1).max(initial=1.0)
    M = M.astype(np.int64 if hadamard < 2.0 ** 30 else object)
    batch = np.arange(count)
    singular = np.zeros(count, dtype=bool)
    prev = np.ones(count, dtype=M.dtype)
    for k in range(n - 1):
        pivot = k + (M[:, k:, k] != 0).argmax(axis=1)
        swap = batch[pivot != k]
        if swap.size:
            M[swap, k], M[swap, pivot[swap]] = M[swap, pivot[swap]], M[swap, k]
        p = M[:, k, k].copy()
        dead = p == 0                 # column k is zero from row k down
        if dead.any():
            singular |= dead
            M[dead] = 0
            p[dead] = 1
        M[:, k + 1:, k + 1:] = (
            M[:, k + 1:, k + 1:] * p[:, None, None]
            - M[:, k + 1:, k, None] * M[:, k, None, k + 1:]
        ) // prev[:, None, None]
        prev = p
    return ~singular & (M[:, n - 1, n - 1] != 0)


def _full_column_rank(coeffs: Sequence[int], grid: np.ndarray) -> np.ndarray:
    """Whether ``Π = [T; S]`` has full *column* rank for each ``S`` of the
    grid — the generalisation of the paper's non-singularity requirement to
    non-square transformations (it makes ``Π`` injective on all of ``Z^n``,
    i.e. conflict-free for every problem size).  Rank ``n`` means some
    ``n x n`` row subset of ``Π`` is non-singular."""
    count, label_dim, n = grid.shape
    T = np.broadcast_to(np.array(coeffs, dtype=np.int64), (count, 1, n))
    Pi = np.concatenate([T, grid], axis=1)
    ok = np.zeros(count, dtype=bool)
    for rows in itertools.combinations(range(label_dim + 1), n):
        todo = np.flatnonzero(~ok)
        if not todo.size:
            break
        ok[todo] = _nonsingular(Pi[todo][:, list(rows), :])
    return ok


def _flows_ok(D: np.ndarray, slacks: np.ndarray, grid: np.ndarray,
              decomposer: LinkDecomposer) -> np.ndarray:
    """:func:`flows_realisable` for each ``S`` of the grid: one matmul gives
    every displacement ``S d``, and each distinct ``(T d, S d)`` pair is
    asked of the decomposer once."""
    count, label_dim, _ = grid.shape
    disps = (grid @ D).transpose(0, 2, 1).reshape(-1, label_dim)
    pairs = np.column_stack([np.tile(slacks, count), disps])
    distinct, inverse = np.unique(pairs, axis=0, return_inverse=True)
    verdicts = np.array([decomposer.reachable_within(tuple(pair[1:]), pair[0])
                         for pair in distinct.tolist()], dtype=bool)
    return verdicts[inverse.reshape(count, -1)].all(axis=1)


def feasible_matrices(dims: Sequence[str], label_dim: int,
                      deps: DependenceMatrix | None,
                      schedule: LinearSchedule,
                      decomposer: LinkDecomposer,
                      bound: int = 1) -> np.ndarray:
    """The offset-free matrices of :func:`enumerate_space_maps`, in its
    order, as one int64 array of shape ``(M, label_dim, n)``.

    Both filters are properties of the matrix alone, so a matrix that passes
    here passes with every offset.  They run batched over chunks of the
    bound box: the exact rank test of :func:`_full_column_rank`, then flow
    realisability.  Full column rank makes ``Π`` injective, so no two points
    of any domain share (time, cell) and no pointwise conflict check is
    needed.
    """
    n = len(dims)
    total = (2 * bound + 1) ** (n * label_dim)
    TRACER.count("space.candidates_enumerated", total)
    local = deps is not None and len(deps) > 0
    if local:
        D = deps.matrix()
        slacks = np.array(schedule.coeffs, dtype=np.int64) @ D
    kept = []
    for start in range(0, total, _CHUNK):
        grid = _grid_chunk(n, label_dim, bound, start)
        keep = np.flatnonzero(_full_column_rank(schedule.coeffs, grid))
        if local and keep.size:
            keep = keep[_flows_ok(D, slacks, grid[keep], decomposer)]
        kept.append(grid[keep])
    return np.concatenate(kept)


def offset_vectors(offsets: Sequence[int],
                   label_dim: int) -> list[tuple[int, ...]]:
    """Every offset vector drawn from ``offsets``, in
    :func:`entry_preference` order."""
    return list(itertools.product(sorted(offsets, key=entry_preference),
                                  repeat=label_dim))


def enumerate_space_maps(dims: Sequence[str], label_dim: int,
                         deps: DependenceMatrix | None,
                         schedule: LinearSchedule,
                         decomposer: LinkDecomposer,
                         bound: int = 1,
                         offsets: Sequence[int] = (0,)
                         ) -> Iterator[SpaceMap]:
    """All feasible space maps with entries in ``[-bound, bound]`` (and
    offsets drawn from ``offsets``), ordered by the paper's "least integer
    values" preference (:func:`entry_preference`, row-major; matrix outer,
    offset inner).

    Candidates must pass full column rank of ``[T; S]`` (conflict-freedom
    for every problem size) and flow realisability (when local deps exist).
    """
    dims = tuple(dims)
    offs = offset_vectors(offsets, label_dim)
    for matrix in feasible_matrices(dims, label_dim, deps, schedule,
                                    decomposer, bound=bound).tolist():
        for off in offs:
            yield SpaceMap(dims, matrix, off)


def cells_used(space: SpaceMap, points: np.ndarray) -> set[tuple[int, ...]]:
    """The set of distinct cells the mapped computations occupy."""
    pts = np.asarray(points, dtype=np.int64)
    if pts.shape[0] == 0:
        return set()
    return set(map(tuple, space.cells(pts).tolist()))
