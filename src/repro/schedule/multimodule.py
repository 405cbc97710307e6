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
one ``instance_points @ C.T`` product per side.  When the search reaches a
module, each constraint decided there gets one vectorised verdict over all
of that module's candidates, given the candidate fixed at the other
endpoint (a self-constraint takes the diagonal), cached per (constraint,
fixed candidate); the loop then visits the candidates that pass every
verdict, in ascending order, so leaves and counts match a per-pair check.
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
    position = {p.name: idx for idx, p in enumerate(order)}
    for gc in constraints:
        if gc.dst_module not in position or gc.src_module not in position:
            raise KeyError(f"constraint {gc.name} references unknown module")

    candidates = [p.candidates(bound, offsets) for p in order]
    for p, cands in zip(order, candidates):
        if not cands:
            raise NoScheduleExists(
                f"module {p.name}: no locally valid schedule within bound "
                f"{bound}", module=p.name, bounds=bound)

    # Hoisted candidate arithmetic: per module, every candidate's times
    # over its points are one ``points @ C.T`` product, of which only the
    # per-candidate (min, max) survive; per constraint, each endpoint's
    # times under every candidate of its module are one product too.
    coeffs = [np.array([c for c, _ in cands], dtype=np.int64)
              for cands in candidates]
    consts = [np.array([o for _, o in cands], dtype=np.int64)
              for cands in candidates]
    placed = [m for m, p in enumerate(order) if p.points.shape[0]]
    tmin: dict[int, list[int]] = {}
    tmax: dict[int, list[int]] = {}
    for m in placed:
        times = order[m].points @ coeffs[m].T
        tmin[m] = (times.min(axis=0) + consts[m]).tolist()
        tmax[m] = (times.max(axis=0) + consts[m]).tolist()
    flats = [[c + (o,) for c, o in cands] for cands in candidates]

    # A constraint is checked as soon as both endpoints are assigned (one
    # without instances always holds), as one verdict over every candidate
    # of the module at that depth, given the candidate fixed at the other
    # endpoint.
    check_at: dict[int, list[tuple[int, int, np.ndarray, np.ndarray,
                                   int]]] = {}
    for gc in constraints:
        if gc.instances == 0:
            continue
        dst, src = position[gc.dst_module], position[gc.src_module]
        dst_t = gc.dst_points @ coeffs[dst].T + consts[dst]
        src_t = gc.src_points @ coeffs[src].T + consts[src]
        check_at.setdefault(max(dst, src), []).append(
            (dst, src, dst_t, src_t, gc.min_gap))
    verdicts: dict[tuple[int, int, int], np.ndarray] = {}

    def allowed(idx: int, checks: list) -> np.ndarray:
        """Candidates of module ``idx`` that pass every check there."""
        ok = np.ones(len(candidates[idx]), dtype=bool)
        for k, (dst, src, dst_t, src_t, gap) in enumerate(checks):
            fixed = (-1 if dst == src else
                     choice[src] if dst == idx else choice[dst])
            verdict = verdicts.get((idx, k, fixed))
            if verdict is None:
                if dst == src:              # a self-constraint: diagonal
                    diff = dst_t - src_t
                elif dst == idx:
                    diff = dst_t - src_t[:, fixed, None]
                else:
                    diff = dst_t[:, fixed, None] - src_t
                verdict = verdicts[(idx, k, fixed)] = \
                    (diff >= gap).all(axis=0)
            ok &= verdict
        return ok

    best_key: tuple | None = None
    best_choice: list[int] | None = None
    examined = 0
    choice = [0] * len(order)           # module position -> candidate index

    def recurse(idx: int) -> None:
        nonlocal best_key, best_choice, examined
        if idx == len(order):
            examined += 1
            total = (max(tmax[m][choice[m]] for m in placed)
                     - min(tmin[m][choice[m]] for m in placed)
                     if placed else 0)
            flat = tuple(c for m, ci in enumerate(choice)
                         for c in flats[m][ci])
            key = (total, sum(abs(c) for c in flat), flat)
            if best_key is None or key < best_key:
                best_key, best_choice = key, list(choice)
            return
        checks = check_at.get(idx)
        visit = (np.flatnonzero(allowed(idx, checks)).tolist() if checks
                 else range(len(candidates[idx])))
        for ci in visit:
            choice[idx] = ci
            recurse(idx + 1)

    recurse(0)
    TRACER.count("multimodule.assignments_examined", examined)
    if best_choice is None:
        raise NoScheduleExists(
            "no joint schedule satisfies the global constraints "
            f"within bound {bound}", bounds=bound)
    schedules = {}
    for p, cands, ci in zip(order, candidates, best_choice):
        c, offset = cands[ci]
        schedules[p.name] = LinearSchedule(p.dims, c, offset)
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
