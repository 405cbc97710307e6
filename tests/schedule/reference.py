"""The original per-candidate schedule search, kept as a test oracle.

:func:`repro.schedule.solver.optimal_schedule` is vectorised; this is the
pure-Python loop it replaced.  ``tests/schedule/test_solver.py`` and
``benchmarks/test_bench_solver_vectorized.py`` cross-check the two for bit
identity, and the benchmark times them against each other.
"""

from __future__ import annotations

import itertools
from typing import Mapping

import numpy as np

from repro.deps.vectors import DependenceMatrix
from repro.ir.indexset import Polyhedron
from repro.schedule.linear import LinearSchedule
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
