"""Joint scheduling of a system of mutually dependent recurrences.

Section V.A: "Finding for each individual module in the algorithm
representation a separate time function which is compatible with the local
data dependencies and also satisfies the constraints imposed by the global
dependencies."

The solver enumerates, per module, the locally valid coefficient vectors
(exactly as the single-module solver does), then backtracks over modules
checking every global constraint as soon as both of its endpoints are
assigned.  The objective is the *global* makespan — the spread between the
earliest and latest event across all modules — with deterministic
tie-breaking, so the paper's optimal ``λ = (-1, 2, -1)``, ``μ = (-2, 1, 1)``,
``σ = (-2, 2)`` is reproduced exactly.

All per-candidate arithmetic is hoisted out of the backtracking loop: each
module's candidate times are one ``points @ C.T`` product (only the per
-candidate min/max survive), and each global constraint's endpoint times are
one ``instance_points @ C.T`` product per side, so the inner loop reduces to
integer comparisons over precomputed columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.deps.vectors import DependenceMatrix
from repro.obs import TRACER
from repro.schedule.constraints import GlobalConstraint
from repro.schedule.linear import LinearSchedule
from repro.schedule.solver import (
    NoScheduleExists,
    coefficient_grid,
    valid_coefficient_vectors,
)


@dataclass
class ModuleSchedulingProblem:
    """Scheduling view of one module: dims, local deps, enumerated points."""

    name: str
    dims: tuple[str, ...]
    deps: DependenceMatrix | None
    points: np.ndarray

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.int64)
        if self.points.ndim != 2 or self.points.shape[1] != len(self.dims):
            raise ValueError(
                f"module {self.name}: points must be (N, {len(self.dims)})")

    def candidates(self, bound: int, offsets: Sequence[int]
                   ) -> list[tuple[tuple[int, ...], int]]:
        """Locally valid (coeffs, offset) pairs, deterministically ordered.

        A module without local dependences accepts *every* coefficient
        vector (including zero — the global constraints are what pin such a
        module down); with dependences the vectorised validity filter of the
        single-module solver applies.
        """
        dim = len(self.dims)
        if self.deps is None or len(self.deps) == 0:
            coeff_list = [tuple(int(c) for c in row)
                          for row in coefficient_grid(dim, bound)]
        else:
            coeff_list = list(valid_coefficient_vectors(self.deps, dim, bound))
        return [(c, o) for c in coeff_list for o in offsets]


@dataclass(frozen=True)
class MultiScheduleSolution:
    schedules: dict[str, LinearSchedule]
    makespan: int
    candidates_examined: int


def _candidate_arrays(candidates: Sequence[tuple[tuple[int, ...], int]]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Split (coeffs, offset) pairs into a coefficient matrix and an offset
    vector (both int64)."""
    coeffs = np.array([c for c, _ in candidates], dtype=np.int64)
    offsets = np.array([o for _, o in candidates], dtype=np.int64)
    return coeffs, offsets


def solve_multimodule(problems: Sequence[ModuleSchedulingProblem],
                      constraints: Sequence[GlobalConstraint],
                      bound: int = 3,
                      offsets: Sequence[int] = (0,)) -> MultiScheduleSolution:
    """Find jointly optimal linear schedules for all modules.

    Empty modules (no points) are allowed and contribute nothing to the
    makespan.  Raises :class:`NoScheduleExists` when no assignment within the
    bound satisfies every local and global constraint.
    """
    order = list(problems)
    by_name = {p.name: p for p in order}
    for gc in constraints:
        if gc.dst_module not in by_name or gc.src_module not in by_name:
            raise KeyError(f"constraint {gc.name} references unknown module")

    candidate_lists = {
        p.name: p.candidates(bound, offsets) for p in order}
    for p in order:
        if not candidate_lists[p.name]:
            raise NoScheduleExists(
                f"module {p.name}: no locally valid schedule within bound "
                f"{bound}", module=p.name, bounds=bound)

    # Group constraints by the *latest* (in search order) module they touch,
    # so each is checked as soon as it becomes decidable.
    position = {p.name: idx for idx, p in enumerate(order)}
    check_at: dict[int, list[GlobalConstraint]] = {}
    for gc in constraints:
        at = max(position[gc.dst_module], position[gc.src_module])
        check_at.setdefault(at, []).append(gc)

    # Hoisted candidate arithmetic: per-candidate (min, max) event times per
    # module, and per-constraint endpoint time columns, each from a single
    # matrix product.
    cand_coeffs: dict[str, np.ndarray] = {}
    cand_offsets: dict[str, np.ndarray] = {}
    cand_tmin: dict[str, np.ndarray] = {}
    cand_tmax: dict[str, np.ndarray] = {}
    for p in order:
        C, O = _candidate_arrays(candidate_lists[p.name])
        cand_coeffs[p.name], cand_offsets[p.name] = C, O
        if p.points.shape[0]:
            times = p.points @ C.T
            cand_tmin[p.name] = times.min(axis=0) + O
            cand_tmax[p.name] = times.max(axis=0) + O

    def endpoint_times(points: np.ndarray, name: str) -> np.ndarray:
        """(instances, n_candidates) times of constraint endpoints under
        every candidate of ``name``."""
        if points.shape[0] == 0:
            return np.zeros((0, len(candidate_lists[name])), dtype=np.int64)
        return points @ cand_coeffs[name].T + cand_offsets[name]

    gc_dst_times = {id(gc): endpoint_times(gc.dst_points, gc.dst_module)
                    for gc in constraints}
    gc_src_times = {id(gc): endpoint_times(gc.src_points, gc.src_module)
                    for gc in constraints}

    best_key: tuple | None = None
    best_assignment: dict[str, int] | None = None
    examined = 0

    assignment: dict[str, int] = {}     # module name -> candidate index

    def global_span() -> int:
        lo = None
        hi = None
        for name, ci in assignment.items():
            if name not in cand_tmin:
                continue
            tmin = int(cand_tmin[name][ci])
            tmax = int(cand_tmax[name][ci])
            lo = tmin if lo is None else min(lo, tmin)
            hi = tmax if hi is None else max(hi, tmax)
        if lo is None:
            return 0
        return hi - lo

    def recurse(idx: int) -> None:
        nonlocal best_key, best_assignment, examined
        if idx == len(order):
            examined += 1
            total = global_span()
            flat_coeffs = tuple(
                c for name in (p.name for p in order)
                for c in (candidate_lists[name][assignment[name]][0]
                          + (candidate_lists[name][assignment[name]][1],)))
            l1 = sum(abs(c) for c in flat_coeffs)
            key = (total, l1, flat_coeffs)
            if best_key is None or key < best_key:
                best_key = key
                best_assignment = dict(assignment)
            return
        prob = order[idx]
        checks = check_at.get(idx, [])
        for ci in range(len(candidate_lists[prob.name])):
            assignment[prob.name] = ci
            feasible = True
            for gc in checks:
                dst_t = gc_dst_times[id(gc)][:, assignment[gc.dst_module]]
                src_t = gc_src_times[id(gc)][:, assignment[gc.src_module]]
                if not gc.timing_ok(dst_t, src_t):
                    feasible = False
                    break
            if feasible:
                recurse(idx + 1)
        assignment.pop(prob.name, None)

    recurse(0)
    TRACER.count("multimodule.assignments_examined", examined)
    if best_assignment is None:
        raise NoScheduleExists(
            "no joint schedule satisfies the global constraints "
            f"within bound {bound}", bounds=bound)
    schedules = {}
    for name, ci in best_assignment.items():
        coeffs, offset = candidate_lists[name][ci]
        schedules[name] = LinearSchedule(by_name[name].dims, coeffs, offset)
    return MultiScheduleSolution(schedules, best_key[0], examined)


def normalise_start(schedules: Mapping[str, LinearSchedule],
                    problems: Sequence[ModuleSchedulingProblem],
                    start: int = 0) -> dict[str, LinearSchedule]:
    """Shift all schedules by one common constant so the earliest event
    lands at ``start``.  A common shift never disturbs constraint gaps."""
    lo = None
    for p in problems:
        if p.points.shape[0] == 0:
            continue
        t = schedules[p.name].times(p.points)
        tmin = int(t.min())
        lo = tmin if lo is None else min(lo, tmin)
    if lo is None:
        return dict(schedules)
    delta = start - lo
    return {name: s.shifted(delta) for name, s in schedules.items()}
