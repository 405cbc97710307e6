"""Joint space mapping of a multi-module system (Section V.B).

"Again, we look for separate solutions to the different modules in the
algorithm subject to global constraints.  ...  if a global dependence
involves two variables belonging to different modules which are computed at
times t and t' with t - t' = d then the distance of the cells where the two
variables will be mapped cannot be more than d."

The solver is an exact branch and bound over modules.  Per module the
locally feasible matrices come from
:func:`repro.space.allocation.feasible_matrices`, and each global
constraint is checked as soon as both endpoints are mapped.  The objective
is the total number of distinct cells — the paper's Section VI motivation
for the new design is exactly processor count.

**Tie-break proof.**  A joint assignment's key is ``(cells, flat)``: its
cell count, then the concatenated :func:`entry_preference` tuples of its
modules' matrices and offsets.  ``entry_preference`` is injective and each
module's fragment has a fixed length, so distinct assignments have
distinct keys: the key is a strict total order with one minimum.  Any
search that never discards that minimum returns it, whatever else it
skips.  Three steps rely on this:

* **Bound on the cell union.**  The union of occupied cells is passed down
  the recursion and only grows, so a partial assignment whose union is
  already *strictly* larger than the incumbent's count is cut.  Equal
  counts still reach the leaf, where ``flat`` decides.
* **Seeded second plan.**  ``below=`` admits only assignments with strictly
  fewer cells and returns ``None`` ("no improvement") when none exists.
  The allocate pass seeds its translated plan with the plain plan's count:
  the translated plan replaces the plain one only with strictly fewer
  cells, so the bounded search finds the same replacement, if any.
* **Enumerate once.**  A :class:`CandidatePool` filters each module's
  matrices once (full rank and flow realisability depend on the matrix
  alone) and keeps them as one int array.  A candidate is a (matrix
  index, offset) pair in the original order, matrix outer and offset
  inner.  Its occupied cells are a Python-int bitmask over one numbering
  of cell labels for the whole pool, so the union is ``|`` and the count
  is ``int.bit_count``; each matrix's mask is built once and an offset
  shifts it.  A :class:`~repro.space.allocation.SpaceMap` is built only
  for the winner.  One pool serves the plain, translated and escalation
  solves of one allocation.

Adjacency works on the same indices.  Endpoint cells are computed once per
(constraint, matrix), offset-free; the "distinct displacement -> tightest
gap" table once per (constraint, dst matrix, src matrix); and a verdict
once per (constraint, dst matrix, src matrix, offset difference), since an
offset pair shifts every displacement by ``o_dst - o_src``.  The hot loop
is integer ``|``, ``bit_count`` and dictionary lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.deps.vectors import DependenceMatrix
from repro.obs import TRACER
from repro.schedule.constraints import GlobalConstraint
from repro.schedule.linear import LinearSchedule
from repro.space.allocation import (
    SpaceMap,
    entry_preference,
    feasible_matrices,
    offset_vectors,
)
from repro.space.diophantine import LinkDecomposer
from repro.util.errors import SynthesisError


class NoSpaceMapExists(SynthesisError):
    """No joint allocation satisfies the local and global constraints."""


@dataclass
class ModuleSpaceProblem:
    """Allocation view of one module."""

    name: str
    dims: tuple[str, ...]
    deps: DependenceMatrix | None
    points: np.ndarray
    schedule: LinearSchedule
    bound: int = 1
    offsets: Sequence[int] = (0,)

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.int64)


@dataclass(frozen=True)
class MultiSpaceSolution:
    maps: dict[str, SpaceMap]
    total_cells: int
    candidates_examined: int


@dataclass(frozen=True)
class ModuleCandidates:
    """One module's candidates as index tables.

    Candidate ``ci`` is matrix ``ci // len(offsets)`` of ``matrices`` with
    offset vector ``offsets[ci % len(offsets)]`` (matrix outer, offset
    inner: the order of :func:`repro.space.allocation.enumerate_space_maps`),
    and ``masks[ci]`` is the set of cells it occupies, as a bitmask over
    its pool's cell numbering."""

    matrices: np.ndarray                   # (M, label_dim, n) int64
    offsets: list[tuple[int, ...]]
    masks: list[int]

    def space_map(self, dims: tuple[str, ...], ci: int) -> SpaceMap:
        mi, oi = divmod(ci, len(self.offsets))
        return SpaceMap(tuple(dims), self.matrices[mi].tolist(),
                        self.offsets[oi])

    def key(self, ci: int) -> tuple:
        """Tie-break fragment: each row's entries, then its offset, as
        :func:`entry_preference` tuples."""
        mi, oi = divmod(ci, len(self.offsets))
        return tuple(entry_preference(v)
                     for row, off in zip(self.matrices[mi].tolist(),
                                         self.offsets[oi])
                     for v in (*row, off))


# Matrices per batched mask pass: bounds the (matrices x frame) bit table.
_MASK_CHUNK = 256


class CandidatePool:
    """Each module's locally feasible space maps, enumerated once.

    A pool serves the solves of one allocation: the problems it sees must
    agree, per module name, on dims, deps, points and schedule (only the
    bound and the offsets may differ), and share one decomposer and label
    dimension.

    Cells are numbered in one frame for the whole pool: label ``c`` is bit
    ``sum_i (c_i + extent) R^i`` with ``R = 2 extent + 1``, and ``extent``
    bounds every coordinate the pool's problems can reach.  A cell that two
    modules share is one bit, and an offset ``o`` moves every cell of a
    matrix by the same ``sum_i o_i R^i`` bits, so each matrix's mask is
    built once per frame and each (matrix, offset) mask is one shift of
    it.  A solve whose problems reach past the frame widens it, and the
    masks are rebuilt.
    """

    def __init__(self, decomposer: LinkDecomposer, label_dim: int) -> None:
        self.decomposer = decomposer
        self.label_dim = label_dim
        self._extent = -1
        self._matrices: dict[tuple[str, int], np.ndarray] = {}
        self._masks: dict[tuple[str, int], list[int]] = {}
        self._tables: dict[tuple, ModuleCandidates] = {}

    def _fit(self, problems: Sequence[ModuleSpaceProblem]) -> None:
        """Widen the frame to every cell ``problems`` can occupy: each
        coordinate of ``S x + o`` is at most ``bound |x|_1 + max |o|``."""
        need = max((p.bound * int(np.abs(p.points).sum(axis=1).max(initial=0))
                    + max(abs(o) for o in p.offsets)) for p in problems)
        if need > self._extent:
            self._extent = need
            self._masks.clear()
            self._tables.clear()

    def _base_masks(self, p: ModuleSpaceProblem,
                    matrices: np.ndarray) -> list[int]:
        """Per matrix, the cells of ``p.points`` at offset 0 as a mask."""
        radix = 2 * self._extent + 1
        place = radix ** np.arange(self.label_dim, dtype=np.int64)
        masks = []
        for start in range(0, len(matrices), _MASK_CHUNK):
            chunk = matrices[start:start + _MASK_CHUNK]
            bits = (p.points @ chunk.transpose(0, 2, 1) + self._extent) @ place
            table = np.zeros((len(chunk), radix ** self.label_dim),
                             dtype=bool)
            table[np.arange(len(chunk))[:, None], bits] = True
            masks.extend(int.from_bytes(row.tobytes(), "little") for row in
                         np.packbits(table, axis=1, bitorder="little"))
        return masks

    def tables(self, problems: Sequence[ModuleSpaceProblem]
               ) -> list[ModuleCandidates]:
        """The candidates of each of ``problems``, in its order.  Raises
        :class:`NoSpaceMapExists` at the first module without any, before
        later modules are enumerated."""
        self._fit(problems)
        radix = 2 * self._extent + 1
        tables = []
        for p in problems:
            offsets = tuple(p.offsets)
            table = self._tables.get((p.name, p.bound, offsets))
            if table is None:
                base = (p.name, p.bound)
                matrices = self._matrices.get(base)
                if matrices is None:
                    matrices = self._matrices[base] = feasible_matrices(
                        p.dims, self.label_dim, p.deps, p.schedule,
                        self.decomposer, bound=p.bound)
                masks = self._masks.get(base)
                if masks is None:
                    masks = self._masks[base] = self._base_masks(p, matrices)
                offs = offset_vectors(offsets, self.label_dim)
                shifts = [sum(o * radix ** i for i, o in enumerate(off))
                          for off in offs]
                table = self._tables[(p.name, p.bound, offsets)] = \
                    ModuleCandidates(matrices, offs, [
                        mask << s if s >= 0 else mask >> -s
                        for mask in masks for s in shifts])
            if not table.masks:
                raise NoSpaceMapExists(
                    f"module {p.name}: no locally feasible space map "
                    f"(bound={p.bound}, offsets={offsets})",
                    module=p.name, bounds=(p.bound, offsets))
            tables.append(table)
        return tables


class _Adjacency:
    """Constraint (10) of one global constraint, memoized for a solve.

    Endpoint cells are computed once per (constraint, matrix), offset-free.
    Reachability is monotone in the time budget, so per (dst matrix, src
    matrix) only the tightest gap of each distinct displacement matters;
    and an offset pair shifts every displacement by ``o_dst - o_src``, so a
    verdict depends on the two matrices and that difference alone."""

    def __init__(self, gc: GlobalConstraint, gaps: list[int],
                 dst: ModuleCandidates, src: ModuleCandidates,
                 decomposer: LinkDecomposer) -> None:
        self.gaps = gaps
        self.dst, self.src = dst, src
        self.dst_cells = gc.dst_points @ dst.matrices.transpose(0, 2, 1)
        self.src_cells = gc.src_points @ src.matrices.transpose(0, 2, 1)
        self.reachable_within = decomposer.reachable_within
        self._tightest: dict[tuple[int, int], list] = {}
        self._shifted: dict[tuple, bool] = {}

    def __call__(self, dst_ci: int, src_ci: int) -> bool:
        dm, do = divmod(dst_ci, len(self.dst.offsets))
        sm, so = divmod(src_ci, len(self.src.offsets))
        delta = tuple(a - b for a, b in zip(self.dst.offsets[do],
                                            self.src.offsets[so]))
        verdict = self._shifted.get((dm, sm, delta))
        if verdict is None:
            verdict = self._shifted[(dm, sm, delta)] = all(
                self.reachable_within(
                    tuple(d + s for d, s in zip(disp, delta)), budget)
                for disp, budget in self._table(dm, sm))
        return verdict

    def _table(self, dm: int, sm: int) -> list:
        """``(displacement, tightest gap)`` per distinct offset-free
        displacement between dst matrix ``dm`` and src matrix ``sm``."""
        table = self._tightest.get((dm, sm))
        if table is None:
            tightest: dict[tuple[int, ...], int] = {}
            disp = self.dst_cells[dm] - self.src_cells[sm]
            for row, gap in zip(disp.tolist(), self.gaps):
                key = tuple(row)
                prev = tightest.get(key)
                if prev is None or gap < prev:
                    tightest[key] = gap
            table = self._tightest[(dm, sm)] = list(tightest.items())
        return table


def solve_multimodule_space(problems: Sequence[ModuleSpaceProblem],
                            constraints: Sequence[GlobalConstraint],
                            decomposer: LinkDecomposer,
                            label_dim: int, *,
                            below: int | None = None,
                            pool: CandidatePool | None = None
                            ) -> MultiSpaceSolution | None:
    """Find the joint allocation minimising total distinct cells.

    Deterministic: candidates enumerate in a fixed order and ties break on
    the lexicographically smallest concatenated matrices.  With ``below``,
    only allocations of strictly fewer cells count, and ``None`` means none
    exists.  ``pool`` shares enumerated candidates between solves.
    """
    order = list(problems)
    position = {p.name: idx for idx, p in enumerate(order)}
    for gc in constraints:
        if gc.dst_module not in position or gc.src_module not in position:
            raise KeyError(f"constraint {gc.name} references unknown module")

    if pool is None:
        pool = CandidatePool(decomposer, label_dim)
    tables = pool.tables(order)
    masks = [table.masks for table in tables]

    # A constraint is checked as soon as both endpoints are placed; one
    # without instances always holds.  Schedules are fixed for the whole
    # solve, so each constraint's instance gaps are too.
    check_at: dict[int, list[tuple[_Adjacency, int, int]]] = {}
    for gc in constraints:
        if gc.instances == 0:
            continue
        dst, src = position[gc.dst_module], position[gc.src_module]
        gaps = (order[dst].schedule.times(gc.dst_points)
                - order[src].schedule.times(gc.src_points))
        check_at.setdefault(max(dst, src), []).append((_Adjacency(
            gc, gaps.tolist(), tables[dst], tables[src], decomposer),
            dst, src))

    # Largest admissible cell count: tightened to the incumbent's count at
    # every new incumbent (equal counts still compete on the tie-break).
    limit = float("inf") if below is None else below - 1
    best_key: tuple | None = None
    best_choice: list[int] | None = None
    examined = 0
    choice = [0] * len(order)             # module position -> candidate index

    def recurse(idx: int, used: int) -> None:
        nonlocal limit, best_key, best_choice, examined
        if idx == len(order):
            examined += 1
            flat = tuple(entry for m, ci in enumerate(choice)
                         for entry in tables[m].key(ci))
            key = (used.bit_count(), flat)
            if best_key is None or key < best_key:
                best_key, best_choice, limit = key, list(choice), key[0]
            return
        checks = check_at.get(idx, ())
        for ci, cells in enumerate(masks[idx]):
            union = used | cells
            if union.bit_count() > limit:
                continue
            choice[idx] = ci
            if all(adjacent(choice[dst], choice[src])
                   for adjacent, dst, src in checks):
                recurse(idx + 1, union)

    recurse(0, 0)
    TRACER.count("space.assignments_examined", examined)
    if best_choice is None:
        if below is not None:
            return None
        raise NoSpaceMapExists(
            "no joint space mapping satisfies the global adjacency constraints")
    maps = {p.name: tables[m].space_map(p.dims, best_choice[m])
            for m, p in enumerate(order)}
    return MultiSpaceSolution(maps, best_key[0], examined)
