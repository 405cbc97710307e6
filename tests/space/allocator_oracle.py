"""The exhaustive joint space allocator, kept as the test oracle.

This is the backtracker :func:`repro.space.solve_multimodule_space` used
before it became a branch and bound: it visits every feasible joint
assignment and keeps the smallest ``(cells, flat)`` key.
:func:`solve_multimodule_space_bounded` is the branch and bound as it ran
on per-candidate ``SpaceMap``s and cell sets, so its ``candidates_examined``
pins the search's visiting order and cuts.  Its module-level
enumeration and cell counting are the matching originals too (one
``itertools.product`` scan with a scalar rank test, a flow test and a
conflict check per offset, and a per-element ``int()`` cell set), so the
oracle shares only the pointwise predicates ``conflict_free`` and
``flows_realisable`` with the code under test.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from repro.deps.vectors import DependenceMatrix
from repro.obs import TRACER
from repro.schedule.constraints import GlobalConstraint
from repro.schedule.linear import LinearSchedule
from repro.space.allocation import (
    SpaceMap,
    conflict_free,
    entry_preference,
    flows_realisable,
)
from repro.space.diophantine import LinkDecomposer
from repro.space.multimodule import (
    ModuleSpaceProblem,
    MultiSpaceSolution,
    NoSpaceMapExists,
)


def int_rank(A) -> int:
    """Exact rank of an integer matrix (fraction-free elimination on
    Python ints, so no overflow)."""
    M = np.array([[int(v) for v in row] for row in A], dtype=object)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    m, n = M.shape
    rank = 0
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if M[r, col] != 0), None)
        if pivot is None:
            continue
        M[[row, pivot]] = M[[pivot, row]]
        for r in range(row + 1, m):
            if M[r, col] != 0:
                # Fraction-free row elimination.
                M[r, :] = M[r, :] * M[row, col] - M[row, :] * M[r, col]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def transformation_full_rank(schedule: LinearSchedule,
                             space: SpaceMap) -> bool:
    """Whether ``Π = [T; S]`` has full *column* rank — the generalisation of
    the paper's non-singularity requirement to non-square transformations
    (it makes ``Π`` injective on all of ``Z^n``, i.e. conflict-free for every
    problem size, not just the enumerated one)."""
    Pi = [list(schedule.coeffs)] + [list(row) for row in space.matrix]
    return int_rank(Pi) == len(schedule.dims)


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
    values" preference (:func:`entry_preference`, row-major).

    Candidates must pass flow realisability (when local deps exist), full
    column rank of ``[T; S]`` (conflict-freedom for every problem size) and —
    if requested — exact conflict-freedom over ``points``.
    """
    dims = tuple(dims)
    entry_order = sorted(range(-bound, bound + 1), key=entry_preference)
    rows = list(itertools.product(entry_order, repeat=len(dims)))
    offs = list(itertools.product(sorted(offsets, key=entry_preference),
                                  repeat=label_dim))
    pts = np.asarray(points, dtype=np.int64)
    for combo in itertools.product(rows, repeat=label_dim):
        base = SpaceMap(dims, combo)
        if require_full_rank and not transformation_full_rank(schedule, base):
            continue
        if deps is not None and len(deps) > 0:
            if not flows_realisable(deps, schedule, base, decomposer):
                continue
        for off in offs:
            candidate = SpaceMap(dims, combo, off)
            if require_conflict_free and not conflict_free(
                    schedule, candidate, pts):
                continue
            yield candidate


def cells_used(space: SpaceMap, points: np.ndarray) -> set[tuple[int, ...]]:
    """The set of distinct cells the mapped computations occupy."""
    pts = np.asarray(points, dtype=np.int64)
    if pts.shape[0] == 0:
        return set()
    cells = space.cells(pts)
    return {tuple(int(v) for v in row) for row in cells}


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


def adjacency_ok(gc: GlobalConstraint,
                 dst_sched: LinearSchedule, src_sched: LinearSchedule,
                 dst_map: SpaceMap, src_map: SpaceMap,
                 decomposer: LinkDecomposer) -> bool:
    """Check constraint (10) for every enumerated instance of a link."""
    if gc.instances == 0:
        return True
    dst_t = dst_sched.times(gc.dst_points)
    src_t = src_sched.times(gc.src_points)
    gaps = dst_t - src_t
    disp = dst_map.cells(gc.dst_points) - src_map.cells(gc.src_points)
    return _displacements_ok(disp, gaps.tolist(), decomposer)


def _prepared(problems: Sequence[ModuleSpaceProblem],
              constraints: Sequence[GlobalConstraint],
              decomposer: LinkDecomposer, label_dim: int):
    """What both searches share: module order, per-depth constraint
    indices, per-candidate maps, cell sets and key fragments, and a
    memoized adjacency verdict per (constraint, candidate pair)."""
    order = list(problems)
    by_name = {p.name: p for p in order}
    position = {p.name: idx for idx, p in enumerate(order)}
    check_at: dict[int, list[int]] = {}
    for gi, gc in enumerate(constraints):
        if gc.dst_module not in by_name or gc.src_module not in by_name:
            raise KeyError(f"constraint {gc.name} references unknown module")
        at = max(position[gc.dst_module], position[gc.src_module])
        check_at.setdefault(at, []).append(gi)

    candidate_lists: dict[str, list[SpaceMap]] = {}
    for p in order:
        cands = list(enumerate_space_maps(
            p.dims, label_dim, p.deps, p.schedule, decomposer, p.points,
            bound=p.bound, offsets=p.offsets))
        if not cands:
            raise NoSpaceMapExists(
                f"module {p.name}: no locally feasible space map "
                f"(bound={p.bound}, offsets={tuple(p.offsets)})",
                module=p.name, bounds=(p.bound, tuple(p.offsets)))
        candidate_lists[p.name] = cands

    # -- hoisted per-candidate data ------------------------------------------
    # Occupied cells and tie-break key fragment of every candidate map.
    cand_cells: dict[str, list[frozenset]] = {}
    cand_key: dict[str, list[tuple]] = {}
    for p in order:
        cells_list = []
        key_list = []
        for cand in candidate_lists[p.name]:
            cells_list.append(frozenset(cells_used(cand, p.points)))
            key_list.append(tuple(
                entry_preference(entry)
                for row, off in zip(cand.matrix, cand.offset)
                for entry in row + (off,)))
        cand_cells[p.name] = cells_list
        cand_key[p.name] = key_list

    # Per-constraint instance gaps (schedules are fixed for the whole solve)
    # and per-(constraint, candidate) endpoint cells.
    gc_gaps: list[list[int]] = []
    gc_dst_cells: list[list[np.ndarray]] = []
    gc_src_cells: list[list[np.ndarray]] = []
    for gc in constraints:
        dst_p = by_name[gc.dst_module]
        src_p = by_name[gc.src_module]
        gaps = (dst_p.schedule.times(gc.dst_points)
                - src_p.schedule.times(gc.src_points))
        gc_gaps.append(gaps.tolist())
        gc_dst_cells.append([cand.cells(gc.dst_points)
                             for cand in candidate_lists[gc.dst_module]])
        gc_src_cells.append([cand.cells(gc.src_points)
                             for cand in candidate_lists[gc.src_module]])

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
        return verdict

    return order, check_at, candidate_lists, cand_cells, cand_key, adjacency


def solve_multimodule_space(problems: Sequence[ModuleSpaceProblem],
                            constraints: Sequence[GlobalConstraint],
                            decomposer: LinkDecomposer,
                            label_dim: int) -> MultiSpaceSolution:
    """Find the joint allocation minimising total distinct cells.

    Deterministic: candidates enumerate in a fixed order and ties break on
    the lexicographically smallest concatenated matrices.
    """
    order, check_at, candidate_lists, cand_cells, cand_key, adjacency = \
        _prepared(problems, constraints, decomposer, label_dim)
    best_key: tuple | None = None
    best_assignment: dict[str, int] | None = None
    examined = 0
    assignment: dict[str, int] = {}    # module name -> candidate index

    def recurse(idx: int) -> None:
        nonlocal best_key, best_assignment, examined
        if idx == len(order):
            examined += 1
            all_cells: set = set()
            for p in order:
                all_cells |= cand_cells[p.name][assignment[p.name]]
            flat = tuple(
                entry for p in order
                for entry in cand_key[p.name][assignment[p.name]])
            key = (len(all_cells), flat)
            if best_key is None or key < best_key:
                best_key = key
                best_assignment = dict(assignment)
            return
        prob = order[idx]
        checks = check_at.get(idx, [])
        for ci in range(len(candidate_lists[prob.name])):
            assignment[prob.name] = ci
            ok = True
            for gi in checks:
                gc = constraints[gi]
                if not adjacency(gi, assignment[gc.dst_module],
                                 assignment[gc.src_module]):
                    ok = False
                    break
            if ok:
                recurse(idx + 1)
        assignment.pop(prob.name, None)

    recurse(0)
    TRACER.count("space.assignments_examined", examined)
    if best_assignment is None:
        raise NoSpaceMapExists(
            "no joint space mapping satisfies the global adjacency constraints")
    maps = {name: candidate_lists[name][ci]
            for name, ci in best_assignment.items()}
    return MultiSpaceSolution(maps, best_key[0], examined)


def solve_multimodule_space_bounded(problems: Sequence[ModuleSpaceProblem],
                                    constraints: Sequence[GlobalConstraint],
                                    decomposer: LinkDecomposer,
                                    label_dim: int, *,
                                    below: int | None = None
                                    ) -> MultiSpaceSolution | None:
    """The branch and bound on per-candidate maps and cell sets.

    The search of :func:`repro.space.solve_multimodule_space` (same visiting
    order, same cut on the cell union, same ``below``), before its inner
    loop moved to index tables and bitmasks; so it also pins
    ``candidates_examined``."""
    order, check_at, candidate_lists, cand_cells, cand_key, adjacency = \
        _prepared(problems, constraints, decomposer, label_dim)
    limit = float("inf") if below is None else below - 1
    best_key: tuple | None = None
    best_choice: list[int] | None = None
    examined = 0
    choice = [0] * len(order)
    position = {p.name: m for m, p in enumerate(order)}
    ends = [(position[gc.dst_module], position[gc.src_module])
            for gc in constraints]

    def recurse(idx: int, used: frozenset) -> None:
        nonlocal limit, best_key, best_choice, examined
        if idx == len(order):
            examined += 1
            flat = tuple(entry for m, ci in enumerate(choice)
                         for entry in cand_key[order[m].name][ci])
            key = (len(used), flat)
            if best_key is None or key < best_key:
                best_key, best_choice, limit = key, list(choice), key[0]
            return
        for ci, cells in enumerate(cand_cells[order[idx].name]):
            union = used | cells
            if len(union) > limit:
                continue
            choice[idx] = ci
            if all(adjacency(gi, choice[ends[gi][0]], choice[ends[gi][1]])
                   for gi in check_at.get(idx, ())):
                recurse(idx + 1, union)

    recurse(0, frozenset())
    if best_choice is None:
        if below is not None:
            return None
        raise NoSpaceMapExists(
            "no joint space mapping satisfies the global adjacency constraints")
    maps = {p.name: candidate_lists[p.name][best_choice[m]]
            for m, p in enumerate(order)}
    return MultiSpaceSolution(maps, best_key[0], examined)
