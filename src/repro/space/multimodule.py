"""Joint space mapping of a multi-module system (Section V.B).

"Again, we look for separate solutions to the different modules in the
algorithm subject to global constraints.  ...  if a global dependence
involves two variables belonging to different modules which are computed at
times t and t' with t - t' = d then the distance of the cells where the two
variables will be mapped cannot be more than d."

The solver backtracks over modules; per module the locally feasible space
maps come from :func:`repro.space.allocation.enumerate_space_maps`, and each
global constraint is checked as soon as both endpoints are mapped.  The
objective is the total number of distinct cells — the paper's Section VI
motivation for the new design is exactly processor count.

The backtracking revisits the same (constraint, dst map, src map) triples
thousands of times as the other modules' assignments churn, so adjacency
verdicts are memoized per candidate-index pair, endpoint times/cells are
precomputed once per (constraint, candidate), and each candidate's occupied
cell set and tie-break key are frozen up front — the hot loop is dictionary
lookups.
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
    cells_used,
    entry_preference,
    enumerate_space_maps,
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


def solve_multimodule_space(problems: Sequence[ModuleSpaceProblem],
                            constraints: Sequence[GlobalConstraint],
                            decomposer: LinkDecomposer,
                            label_dim: int) -> MultiSpaceSolution:
    """Find the joint allocation minimising total distinct cells.

    Deterministic: candidates enumerate in a fixed order and ties break on
    the lexicographically smallest concatenated matrices.
    """
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
        else:
            TRACER.count("space.adjacency_cache_hits")
        return verdict

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
