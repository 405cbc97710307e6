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
  (time, cell); with ``[T; S]`` square and non-singular this holds globally,
  otherwise we verify pointwise over the enumerated domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.deps.vectors import DependenceMatrix
from repro.schedule.linear import LinearSchedule
from repro.space.diophantine import LinkDecomposer
from repro.space.smith import int_rank


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


def transformation_full_rank(schedule: LinearSchedule,
                             space: SpaceMap) -> bool:
    """Whether ``Π = [T; S]`` has full *column* rank — the generalisation of
    the paper's non-singularity requirement to non-square transformations
    (it makes ``Π`` injective on all of ``Z^n``, i.e. conflict-free for every
    problem size, not just the enumerated one)."""
    Pi = [list(schedule.coeffs)] + [list(row) for row in space.matrix]
    return int_rank(Pi) == len(schedule.dims)


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


def feasible_matrices(dims: Sequence[str], label_dim: int,
                      deps: DependenceMatrix | None,
                      schedule: LinearSchedule,
                      decomposer: LinkDecomposer,
                      points: np.ndarray,
                      bound: int = 1,
                      require_conflict_free: bool = True,
                      require_full_rank: bool = True) -> Iterator[SpaceMap]:
    """The offset-free maps of :func:`enumerate_space_maps`, in its order.

    Every filter is a property of the matrix alone: full rank and flow
    realisability never see the offset, and conflict-freedom is
    translation-invariant (an offset shifts every cell equally), so a
    matrix that passes here passes with every offset.
    """
    dims = tuple(dims)
    entry_order = sorted(range(-bound, bound + 1), key=entry_preference)
    rows = list(itertools.product(entry_order, repeat=len(dims)))
    pts = np.asarray(points, dtype=np.int64)
    for combo in itertools.product(rows, repeat=label_dim):
        base = SpaceMap(dims, combo)
        if require_full_rank and not transformation_full_rank(schedule, base):
            continue
        if deps is not None and len(deps) > 0:
            if not flows_realisable(deps, schedule, base, decomposer):
                continue
        if require_conflict_free and not conflict_free(schedule, base, pts):
            continue
        yield base


def with_offsets(bases: Iterable[SpaceMap], offsets: Sequence[int],
                 label_dim: int) -> Iterator[SpaceMap]:
    """Each base map under every offset vector drawn from ``offsets``:
    base outer, offsets inner in :func:`entry_preference` order."""
    offs = list(itertools.product(sorted(offsets, key=entry_preference),
                                  repeat=label_dim))
    for base in bases:
        for off in offs:
            yield SpaceMap(base.dims, base.matrix, off)


def enumerate_space_maps(dims: Sequence[str], label_dim: int,
                         deps: DependenceMatrix | None,
                         schedule: LinearSchedule,
                         decomposer: LinkDecomposer,
                         points: np.ndarray,
                         bound: int = 1,
                         offsets: Sequence[int] = (0,),
                         require_conflict_free: bool = True,
                         require_full_rank: bool = True
                         ) -> Iterator[SpaceMap]:
    """All feasible space maps with entries in ``[-bound, bound]`` (and
    offsets drawn from ``offsets``), ordered by the paper's "least integer
    values" preference (:func:`entry_preference`, row-major; matrix outer,
    offset inner).

    Candidates must pass flow realisability (when local deps exist), full
    column rank of ``[T; S]`` (conflict-freedom for every problem size) and —
    if requested — exact conflict-freedom over ``points``.
    """
    return with_offsets(
        feasible_matrices(dims, label_dim, deps, schedule, decomposer,
                          points, bound=bound,
                          require_conflict_free=require_conflict_free,
                          require_full_rank=require_full_rank),
        offsets, label_dim)


def cells_used(space: SpaceMap, points: np.ndarray) -> set[tuple[int, ...]]:
    """The set of distinct cells the mapped computations occupy."""
    pts = np.asarray(points, dtype=np.int64)
    if pts.shape[0] == 0:
        return set()
    return set(map(tuple, space.cells(pts).tolist()))
