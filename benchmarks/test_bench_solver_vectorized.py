"""Benchmark V — the vectorised scheduling engine.

The rewritten :func:`repro.schedule.solver.optimal_schedule` materialises
the candidate grid once, filters ``C @ D >= 1`` as one matrix operation and
computes every candidate's makespan with a single ``C @ points.T`` product
over the memoized lattice-point array.  This file pins down the two claims
the rewrite makes:

* **bit-identity** — on the Figure 2 dynamic-programming workload the fast
  solver returns *exactly* the solution of the original per-candidate loop
  (kept as ``tests/schedule/reference.py``), including the order of the
  ``optima`` tuple and the number of candidates examined;
* **speed** — at n = 12 the vectorised path is at least 5x faster than the
  reference loop (in practice far more, since the point array is cached
  across calls).
"""

import time

import pytest

from repro.deps import system_dependence_matrices
from repro.ir.indexset import clear_enumeration_caches
from repro.problems import dp_system
from repro.schedule.solver import optimal_schedule

from tests.schedule.reference import optimal_schedule_reference

N = 12
PARAMS = {"n": N}


def _dp_workloads():
    """(deps, domain) of every dependence-bearing module of the DP system."""
    system = dp_system()
    deps = system_dependence_matrices(system)
    return [(name, deps[name], module.domain)
            for name, module in system.modules.items()
            if deps[name] is not None and len(deps[name]) > 0]


@pytest.mark.parametrize("name,deps,domain",
                         _dp_workloads(),
                         ids=lambda w: w if isinstance(w, str) else "")
def test_bit_identical_to_reference(name, deps, domain):
    fast = optimal_schedule(deps, domain, PARAMS)
    slow = optimal_schedule_reference(deps, domain, PARAMS)
    assert fast == slow  # schedule, makespan, optima order, count


def _median_seconds(fn, repeats=5):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def test_vectorized_speedup(benchmark):
    """>= 5x over the per-candidate loop on the Figure 2 DP workload."""
    name, deps, domain = _dp_workloads()[0]
    clear_enumeration_caches()
    # Warm the point cache the same way a synthesis run would.
    optimal_schedule(deps, domain, PARAMS)

    fast = _median_seconds(lambda: optimal_schedule(deps, domain, PARAMS))
    slow = _median_seconds(
        lambda: optimal_schedule_reference(deps, domain, PARAMS))
    speedup = slow / fast
    print(f"\n{name}: reference {slow * 1e3:.2f} ms, "
          f"vectorized {fast * 1e3:.2f} ms, speedup {speedup:.1f}x")
    assert speedup >= 5.0
    benchmark(lambda: optimal_schedule(deps, domain, PARAMS))
