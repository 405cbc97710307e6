"""Benchmark VI/VII — end-to-end verification on the native engine's tiers.

The native engine lowers the microcode once into an integer-indexed
operation table, groups it by level and opcode, and caches every
value-independent artifact (execution plans, microcode, lowered machine,
symbolic outcome) on the design, so repeated verification only redoes
the value passes — on the C executor where a toolchain exists, on
ndarray kernels otherwise (``$REPRO_NO_NATIVE``).  A whole batch of input
seeds runs through one pass on the leading axis.

This file pins three claims:

* **bit-identity** — on the Figure 1 DP workload the native machine run
  equals the interpreted oracle exactly (values, results, stats, violation
  lists included), and ``verify_design`` reports identically, on both
  tiers;
* **single-run speed** — end-to-end ``verify_design`` through ``native``
  is at least 5x faster than through the interpreter at n = 18 (warm
  artifact cache, the sweep steady state), on both tiers;
* **batch speed** — on the ndarray tier, one batched
  ``verify_design(..., seeds=range(8))`` is at least 3x faster than the
  same eight seeds verified one at a time through the (already fast,
  warm) engine.  On the C tier a warm single-seed check is already
  fixed-cost bound, so S=8 says little there; ``test_bench_batch_seeds``
  pins batching on the default tier at S=64.

``REPRO_BENCH_N`` overrides the problem size (CI smoke uses a small n).
"""

import os
import random
import time
from contextlib import nullcontext

import pytest

from conftest import machine_run, record_pin
from repro.arrays import FIG1_UNIDIRECTIONAL
from repro.codegen import native_disabled
from repro.core import synthesize
from repro.core.verify import verify_design
from repro.problems import dp_inputs, dp_system

N = int(os.environ.get("REPRO_BENCH_N", "18"))
PARAMS = {"n": N}
SEEDS = 8
TIERS = ("native", "vector")


def tier(name):
    return native_disabled() if name == "vector" else nullcontext()


def _workload():
    system = dp_system()
    design = synthesize(system, PARAMS, FIG1_UNIDIRECTIONAL)
    rng = random.Random(1986)
    inputs = dp_inputs([rng.randint(1, 40) for _ in range(N - 1)])
    return system, design, inputs


def _factory(seed):
    rng = random.Random(seed)
    return dp_inputs([rng.randint(1, 40) for _ in range(N - 1)])


def _median_seconds(fn, repeats=5):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


@pytest.mark.parametrize("name", TIERS)
def test_bit_identical_machine_run(name):
    system, design, inputs = _workload()
    interp, _ = machine_run(system, PARAMS, design, inputs,
                            engine="interpreted")
    with tier(name):
        fast, _ = machine_run(system, PARAMS, design, inputs,
                              engine="native")
    assert fast.values == interp.values
    assert fast.results == interp.results
    assert fast.stats == interp.stats  # violation lists included


@pytest.mark.parametrize("name", TIERS)
def test_verify_reports_identical(name):
    _, design, inputs = _workload()
    oracle = verify_design(design, inputs, engine="interpreted")
    with tier(name):
        fast = verify_design(design, inputs)
    assert oracle.ok and fast.ok
    assert fast.failures == oracle.failures
    assert fast.machine_stats == oracle.machine_stats


@pytest.mark.parametrize("name", TIERS)
def test_verify_speedup(benchmark, name):
    """>= 5x end-to-end verify_design speedup at n = 18 on Figure 1 DP."""
    _, design, inputs = _workload()
    with tier(name):
        # Warm the design's artifact cache the same way a sweep
        # cross-check would before timing the steady state.
        verify_design(design, inputs)
    fast = _median_seconds(lambda: verify_design(design, inputs))
    slow = _median_seconds(
        lambda: verify_design(design, inputs, engine="interpreted"))
    speedup = slow / fast
    print(f"\nn={N} ({name} tier): interpreted {slow * 1e3:.1f} ms, "
          f"native {fast * 1e3:.1f} ms, speedup {speedup:.1f}x")
    record_pin(f"machine_verify_{name}", n=N,
               interpreted_ms=round(slow * 1e3, 3),
               verify_ms=round(fast * 1e3, 3),
               speedup=round(speedup, 2))
    assert speedup >= 5.0
    benchmark(lambda: verify_design(design, inputs))


def test_batched_verify_speedup(benchmark):
    """>= 3x for one batched S=8 pass over eight warm single-seed runs."""
    _, design, _ = _workload()
    seeds = range(SEEDS)
    with tier("vector"):
        report = verify_design(design, _factory,
                               seeds=seeds)       # also warms the cache
    assert report.ok and report.seeds_checked == SEEDS

    batched = _median_seconds(
        lambda: verify_design(design, _factory, seeds=seeds))

    def looped():
        for s in seeds:
            verify_design(design, _factory(s))

    loop = _median_seconds(looped)
    speedup = loop / batched
    print(f"\nn={N}, seeds={SEEDS} (vector tier): looped "
          f"{loop * 1e3:.1f} ms, batched {batched * 1e3:.1f} ms, "
          f"speedup {speedup:.1f}x")
    record_pin("machine_batch", n=N, seeds=SEEDS,
               looped_ms=round(loop * 1e3, 3),
               batched_ms=round(batched * 1e3, 3),
               speedup=round(speedup, 2))
    assert speedup >= 3.0
    benchmark(lambda: verify_design(design, _factory, seeds=seeds))
