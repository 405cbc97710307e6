"""Benchmark U — batched-seed verification throughput at S >= 64.

"Systolic Computing on GPUs" motivates grouping homogeneous computations
into dense batched execution; the native engine's seed batching is this
codebase's instance of that idea.  Benchmark VII pinned the S=8 case;
this file pins the scale a sweep's ``verify_seeds`` actually dispatches —
S=64 seeded instances verified in **one** ``(S, nodes)`` pass on the
default engine — against verifying the same 64 seeds one at a time
through the same warm engine.

``REPRO_BENCH_N`` overrides the problem size (CI smoke uses a small n).
"""

import os
import random
import time

from conftest import record_pin
from repro.arrays import FIG1_UNIDIRECTIONAL
from repro.core import synthesize
from repro.core.verify import verify_design
from repro.problems import dp_inputs, dp_system

N = int(os.environ.get("REPRO_BENCH_N", "12"))
PARAMS = {"n": N}
SEEDS = 64


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


def test_batched_64_seed_verify_speedup(benchmark):
    """>= 3x for one batched S=64 pass over 64 warm single-seed runs."""
    design = synthesize(dp_system(), PARAMS, FIG1_UNIDIRECTIONAL)
    seeds = range(SEEDS)
    report = verify_design(design, _factory,
                           seeds=seeds)          # also warms the cache
    assert report.ok and report.seeds_checked == SEEDS

    batched = _median_seconds(
        lambda: verify_design(design, _factory, seeds=seeds))

    def looped():
        for s in seeds:
            verify_design(design, _factory(s))

    loop = _median_seconds(looped, repeats=3)
    speedup = loop / batched
    print(f"\nn={N}, seeds={SEEDS}: looped {loop * 1e3:.1f} ms, "
          f"batched {batched * 1e3:.1f} ms, speedup {speedup:.1f}x")
    record_pin("batch_seeds", n=N, seeds=SEEDS,
               looped_ms=round(loop * 1e3, 3),
               batched_ms=round(batched * 1e3, 3),
               speedup=round(speedup, 2))
    assert speedup >= 3.0
    benchmark(lambda: verify_design(design, _factory, seeds=seeds))
