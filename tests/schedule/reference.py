"""The original per-candidate schedule searches, kept as test oracles.

:func:`repro.schedule.solver.optimal_schedule` is vectorised; this is the
pure-Python loop it replaced.  ``tests/schedule/test_solver.py`` and
``benchmarks/test_bench_solver_vectorized.py`` cross-check the two for bit
identity, and the benchmark times them against each other.

:func:`repro.schedule.solve_multimodule` checks each global constraint as
one verdict over a module's candidates; :func:`solve_multimodule_reference`
is the per-pair backtracker it replaced, cross-checked in
``tests/schedule/test_multimodule_reference.py``.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from repro.deps.vectors import DependenceMatrix
from repro.ir.indexset import Polyhedron
from repro.schedule.constraints import GlobalConstraint
from repro.schedule.linear import LinearSchedule
from repro.schedule.multimodule import (
    ModuleSchedulingProblem,
    MultiScheduleSolution,
)
from repro.schedule.solver import NoScheduleExists, ScheduleSolution


def optimal_schedule_reference(deps: DependenceMatrix, domain: Polyhedron,
                               params: Mapping[str, int], bound: int = 3
                               ) -> ScheduleSolution:
    """The original per-candidate pure-Python search.  Requires a non-empty
    dependence matrix — the historical loop predates the explicit
    zero-vector rejection."""
    dims = domain.dims
    vectors = [v.vector for v in deps.vectors]
    points = np.array(list(domain.points(params)), dtype=np.int64)
    if points.size == 0:
        raise ValueError("cannot schedule an empty domain")
    best: tuple | None = None
    optima: list[LinearSchedule] = []
    best_span: int | None = None
    examined = 0
    for coeffs in itertools.product(range(-bound, bound + 1),
                                    repeat=len(dims)):
        if not all(sum(c * x for c, x in zip(coeffs, d)) >= 1
                   for d in vectors):
            continue
        examined += 1
        times = points @ np.array(coeffs, dtype=np.int64)
        span = int(times.max() - times.min())
        sched = LinearSchedule(dims, coeffs)
        key = (span, sum(abs(c) for c in coeffs), coeffs)
        if best is None or key < best:
            best = key
            if best_span is None or span < best_span:
                optima = [sched]
                best_span = span
            else:
                optima.insert(0, sched)
        elif span == best_span:
            optima.append(sched)
    if best is None:
        raise NoScheduleExists(
            f"no valid schedule with coefficients in [-{bound}, {bound}] "
            f"for dependencies {deps}", bounds=bound)
    chosen = LinearSchedule(dims, best[2])
    return ScheduleSolution(chosen, best[0], tuple(optima), examined)


def _candidate_arrays(candidates: Sequence[tuple[tuple[int, ...], int]]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Split (coeffs, offset) pairs into a coefficient matrix and an offset
    vector (both int64)."""
    coeffs = np.array([c for c, _ in candidates], dtype=np.int64)
    offsets = np.array([o for _, o in candidates], dtype=np.int64)
    return coeffs, offsets


def solve_multimodule_reference(problems: Sequence[ModuleSchedulingProblem],
                                constraints: Sequence[GlobalConstraint],
                                bound: int = 3,
                                offsets: Sequence[int] = (0,)
                                ) -> MultiScheduleSolution:
    """The per-pair backtracker :func:`solve_multimodule` replaced: the same
    visiting order, with each global constraint checked by
    :meth:`GlobalConstraint.timing_ok` per candidate pair."""
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
    if best_assignment is None:
        raise NoScheduleExists(
            "no joint schedule satisfies the global constraints "
            f"within bound {bound}", bounds=bound)
    schedules = {}
    for name, ci in best_assignment.items():
        coeffs, offset = candidate_lists[name][ci]
        schedules[name] = LinearSchedule(by_name[name].dims, coeffs, offset)
    return MultiScheduleSolution(schedules, best_key[0], examined)
