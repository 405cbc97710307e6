"""Experiment A3 — scaling: synthesis cost and execution profile vs n.

The paper's designs promise completion time linear in n on ~n²-cell arrays
(vs the O(n³) work of sequential DP).  This benchmark sweeps n, regenerates
the figure-1 design at each size, and records:

* machine cycles — must equal 2n - 5 + 1 exactly (linear);
* cells — must equal (n-1)(n-2)/2 exactly (quadratic);
* operations — the Θ(n³)-ish total work, now spread across the array;
* synthesis wall time (pytest-benchmark's measurement).
"""

import pytest

from conftest import machine_run
from repro.arrays import FIG1_UNIDIRECTIONAL
from repro.core import synthesize
from repro.problems import dp_inputs, dp_system
from repro.reference import min_plus_dp

SIZES = [6, 10, 14, 18]
#: sizes only the native machine engine runs at benchmark-friendly speed
NATIVE_ONLY_SIZES = [30]


@pytest.mark.parametrize("n", SIZES)
def test_scaling_synthesis(benchmark, n):
    design = benchmark.pedantic(
        synthesize, args=(dp_system(), {"n": n}, FIG1_UNIDIRECTIONAL),
        rounds=1, iterations=1)
    assert design.cell_count == (n - 1) * (n - 2) // 2
    assert design.completion_time == 2 * n - 5
    print(f"\nn={n}: cells {design.cell_count} "
          f"(=(n-1)(n-2)/2), completion {design.completion_time} (=2n-5)")


@pytest.mark.parametrize("n", SIZES)
def test_scaling_machine(benchmark, n, rng):
    system = dp_system()
    design = synthesize(system, {"n": n}, FIG1_UNIDIRECTIONAL)
    seeds = [rng.randint(1, 40) for _ in range(n - 1)]
    inputs = dp_inputs(seeds)
    result, trace = benchmark.pedantic(
        machine_run, args=(system, {"n": n}, design, inputs),
        rounds=1, iterations=1)
    ref = min_plus_dp(seeds, n)
    assert all(result.results[k] == ref[k] for k in result.results)
    s = result.stats
    print(f"\nn={n}: {s.cycles} cycles, {s.cells_used} cells, "
          f"{s.operations} ops ({s.operations / max(s.cycles, 1):.1f}/cycle), "
          f"{s.hops} hops, util {s.utilization:.0%}")
    # Linear time on quadratic hardware.
    assert s.cycles == 2 * n - 4
    assert s.operations >= (n ** 3) / 6 - n ** 2  # Θ(n³)/6 DP work


@pytest.mark.parametrize("n", NATIVE_ONLY_SIZES)
def test_scaling_machine_native_large(benchmark, n, rng):
    """The native engine extends the sweep to sizes the interpreted loop
    makes impractical; the paper's exact shape claims must still hold."""
    system = dp_system()
    design = synthesize(system, {"n": n}, FIG1_UNIDIRECTIONAL)
    seeds = [rng.randint(1, 40) for _ in range(n - 1)]
    inputs = dp_inputs(seeds)
    result, trace = benchmark.pedantic(
        machine_run, args=(system, {"n": n}, design, inputs),
        kwargs={"engine": "native"}, rounds=1, iterations=1)
    ref = min_plus_dp(seeds, n)
    assert all(result.results[k] == ref[k] for k in result.results)
    s = result.stats
    print(f"\nn={n} (native): {s.cycles} cycles, {s.cells_used} cells, "
          f"{s.operations} ops, {s.hops} hops, util {s.utilization:.0%}")
    assert s.cycles == 2 * n - 4
    assert s.cells_used >= (n - 1) * (n - 2) // 2
    assert s.operations >= (n ** 3) / 6 - n ** 2


def test_speedup_shape(benchmark, rng):
    """Across the sweep, cycles grow linearly while operations grow
    cubically — the parallel speedup the array exists for."""

    def sweep():
        rows = []
        for n in SIZES:
            system = dp_system()
            design = synthesize(system, {"n": n}, FIG1_UNIDIRECTIONAL)
            seeds = [rng.randint(1, 40) for _ in range(n - 1)]
            result, _ = machine_run(system, {"n": n}, design,
                                    dp_inputs(seeds))
            rows.append((n, result.stats.cycles, result.stats.operations))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n  n  cycles  ops  ops/cycle")
    for n, cycles, ops in rows:
        print(f"  {n:2d}  {cycles:5d}  {ops:5d}  {ops / cycles:8.1f}")
    (n0, c0, o0), (n1, c1, o1) = rows[0], rows[-1]
    # cycles scale ~linearly, ops superquadratically.
    assert c1 / c0 < 1.5 * n1 / n0
    assert o1 / o0 > (n1 / n0) ** 2
