"""Joint space mapping of a multi-module system (Section V.B).

"Again, we look for separate solutions to the different modules in the
algorithm subject to global constraints.  ...  if a global dependence
involves two variables belonging to different modules which are computed at
times t and t' with t - t' = d then the distance of the cells where the two
variables will be mapped cannot be more than d."

The solver is an exact branch and bound over modules.  Per module the
locally feasible space maps come from
:func:`repro.space.allocation.enumerate_space_maps`, and each global
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
  alone), computes each matrix's distinct cells once, expands each plan's
  offsets in the original order by shifting those cells, and freezes every
  candidate's occupied cells and key fragment.  One pool serves the plain,
  translated and escalation solves of one allocation.

Adjacency verdicts are memoized per candidate-index pair and endpoint cells
are precomputed once per (constraint, candidate), so the hot loop is set
unions and dictionary lookups.
"""

from __future__ import annotations

import itertools
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


def _displacements_ok(disp: np.ndarray, gaps: Sequence[int],
                      decomposer: LinkDecomposer) -> bool:
    """Constraint (10) over enumerated instances: every displacement must be
    link-reachable within its time gap.  Reachability is monotone in the
    budget, so only the *minimum* gap per distinct displacement matters."""
    tightest: dict[tuple[int, ...], int] = {}
    for row, gap in zip(disp.tolist(), gaps):
        key = tuple(row)
        prev = tightest.get(key)
        if prev is None or gap < prev:
            tightest[key] = gap
    for displacement, budget in tightest.items():
        if not decomposer.reachable_within(displacement, budget):
            return False
    return True


class CandidatePool:
    """Each module's locally feasible space maps, enumerated once.

    A pool serves the solves of one allocation: the problems it sees must
    agree, per module name, on dims, deps, points and schedule (only the
    bound and the offsets may differ), and share one decomposer and label
    dimension.  Per candidate it keeps the map, its occupied cells and its
    tie-break key fragment.
    """

    def __init__(self, decomposer: LinkDecomposer, label_dim: int) -> None:
        self.decomposer = decomposer
        self.label_dim = label_dim
        self._bases: dict[tuple[str, int], list[tuple]] = {}
        self._lists: dict[tuple, tuple[list, list, list]] = {}

    def _base_matrices(self, p: ModuleSpaceProblem) -> list[tuple]:
        """Per feasible matrix: the map, its cells at offset 0 (as a set and
        as an array of the distinct cells) and its rows' key fragments."""
        bases = []
        for base in feasible_matrices(p.dims, self.label_dim, p.deps,
                                      p.schedule, self.decomposer,
                                      bound=p.bound):
            cells = frozenset(map(tuple, base.cells(p.points).tolist()))
            distinct = np.array(list(cells), dtype=np.int64)
            rows = [tuple(entry_preference(entry) for entry in row)
                    for row in base.matrix]
            bases.append((base, cells,
                          distinct.reshape(len(cells), self.label_dim), rows))
        return bases

    def candidates(self, p: ModuleSpaceProblem
                   ) -> tuple[list[SpaceMap], list[frozenset], list[tuple]]:
        """``(maps, cells, keys)`` of ``p``, in enumeration order."""
        offsets = tuple(p.offsets)
        found = self._lists.get((p.name, p.bound, offsets))
        if found is not None:
            return found
        bases = self._bases.get((p.name, p.bound))
        if bases is None:
            bases = self._bases[(p.name, p.bound)] = self._base_matrices(p)
        offs = offset_vectors(offsets, self.label_dim)
        maps, cells, keys = [], [], []
        for base, zero_cells, distinct, rows in bases:
            for off in offs:
                maps.append(SpaceMap(base.dims, base.matrix, off))
                # An offset shifts every cell alike.
                cells.append(frozenset(map(tuple, (distinct + off).tolist()))
                             if any(off) else zero_cells)
                keys.append(tuple(itertools.chain.from_iterable(
                    row + (entry_preference(o),) for row, o in zip(rows, off))))
        found = self._lists[(p.name, p.bound, offsets)] = (maps, cells, keys)
        return found


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
    check_at: dict[int, list[int]] = {}
    for gi, gc in enumerate(constraints):
        if gc.dst_module not in position or gc.src_module not in position:
            raise KeyError(f"constraint {gc.name} references unknown module")
        at = max(position[gc.dst_module], position[gc.src_module])
        check_at.setdefault(at, []).append(gi)

    if pool is None:
        pool = CandidatePool(decomposer, label_dim)
    cand_maps: list[list[SpaceMap]] = []
    cand_cells: list[list[frozenset]] = []
    cand_key: list[list[tuple]] = []
    for p in order:
        maps, cells, keys = pool.candidates(p)
        if not maps:
            raise NoSpaceMapExists(
                f"module {p.name}: no locally feasible space map "
                f"(bound={p.bound}, offsets={tuple(p.offsets)})",
                module=p.name, bounds=(p.bound, tuple(p.offsets)))
        cand_maps.append(maps)
        cand_cells.append(cells)
        cand_key.append(keys)

    # Per-constraint instance gaps (schedules are fixed for the whole solve)
    # and per-(constraint, candidate) endpoint cells.
    gc_ends: list[tuple[int, int]] = []
    gc_gaps: list[list[int]] = []
    gc_dst_cells: list[list[np.ndarray]] = []
    gc_src_cells: list[list[np.ndarray]] = []
    for gc in constraints:
        dst, src = position[gc.dst_module], position[gc.src_module]
        gc_ends.append((dst, src))
        gaps = (order[dst].schedule.times(gc.dst_points)
                - order[src].schedule.times(gc.src_points))
        gc_gaps.append(gaps.tolist())
        gc_dst_cells.append([cand.cells(gc.dst_points)
                             for cand in cand_maps[dst]])
        gc_src_cells.append([cand.cells(gc.src_points)
                             for cand in cand_maps[src]])

    adjacency_cache: dict[tuple[int, int, int], bool] = {}

    def adjacency(gi: int, dst_ci: int, src_ci: int) -> bool:
        if constraints[gi].instances == 0:
            return True
        key = (gi, dst_ci, src_ci)
        verdict = adjacency_cache.get(key)
        if verdict is None:
            disp = gc_dst_cells[gi][dst_ci] - gc_src_cells[gi][src_ci]
            verdict = _displacements_ok(disp, gc_gaps[gi], decomposer)
            adjacency_cache[key] = verdict
        else:
            TRACER.count("space.adjacency_cache_hits")
        return verdict

    # Largest admissible cell count: tightened to the incumbent's count at
    # every new incumbent (equal counts still compete on the tie-break).
    limit = float("inf") if below is None else below - 1
    best_key: tuple | None = None
    best_choice: list[int] | None = None
    examined = 0
    choice = [0] * len(order)             # module position -> candidate index

    def recurse(idx: int, used: frozenset) -> None:
        nonlocal limit, best_key, best_choice, examined
        if idx == len(order):
            examined += 1
            flat = tuple(entry for m, ci in enumerate(choice)
                         for entry in cand_key[m][ci])
            key = (len(used), flat)
            if best_key is None or key < best_key:
                best_key, best_choice, limit = key, list(choice), key[0]
            return
        checks = check_at.get(idx, ())
        for ci, cells in enumerate(cand_cells[idx]):
            union = used | cells
            if len(union) > limit:
                continue
            choice[idx] = ci
            if all(adjacency(gi, choice[gc_ends[gi][0]],
                             choice[gc_ends[gi][1]]) for gi in checks):
                recurse(idx + 1, union)

    recurse(0, frozenset())
    TRACER.count("space.assignments_examined", examined)
    if best_choice is None:
        if below is not None:
            return None
        raise NoSpaceMapExists(
            "no joint space mapping satisfies the global adjacency constraints")
    maps = {p.name: cand_maps[m][best_choice[m]]
            for m, p in enumerate(order)}
    return MultiSpaceSolution(maps, best_key[0], examined)
