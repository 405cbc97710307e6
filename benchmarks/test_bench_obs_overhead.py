"""Benchmark O — telemetry overhead on the warm sweep path.

The whole observability stack (counters, timers and the span tree, all
held by the one tracer) is opt-in: with tracing disabled a stage costs one
dict bump, with tracing enabled it additionally allocates a span node.
This benchmark pins the price of "enabled" where
it matters — a warm sweep, whose jobs are cache loads and therefore all
overhead-sensitive bookkeeping, no solver time to hide behind — and gates
it at **< 5%**.

Methodology (see EXPERIMENTS.md P5): the cache is seeded once; then the
two arms run **alternating** (on, off, on, off, ...) so thermal or
scheduler drift hits both equally, each sample runs with the cyclic
garbage collector off after a full collection, and each arm scores its
**minimum** wall time — the minimum is the least noisy location statistic
for "how fast can this go", which is the question a relative overhead
gate asks.
"""

import gc
import time

from conftest import record_pin
from repro.core import SweepSpec, run_sweep
from repro.obs import TRACER

#: One parameter point (the acceptance workload's n=18), warm path only.
SPEC = SweepSpec(
    problems=("dp", "conv-backward", "conv-forward"),
    interconnects=("fig1", "fig2", "linear"),
    param_grid=({"n": 18, "s": 4},),
)

#: Warm-sweep repetitions per arm; each arm keeps its fastest sample.
ROUNDS = 15

#: Consecutive warm sweeps inside one timed sample.  A single warm sweep
#: takes 1.2-1.5 ms, and with five per sample the 5% gate (~0.35 ms) was
#: as large as the host's jitter; forty keep each sample above ~45 ms, so
#: the gate is over 2 ms.
SWEEPS_PER_SAMPLE = 40


def _warm_sample(cache_dir) -> float:
    """One timed sample, with the cyclic collector off: a collection pause
    lands in one arm or the other at random and would outweigh the 5%."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(SWEEPS_PER_SAMPLE):
            report = run_sweep(SPEC, workers=0, cache_dir=cache_dir,
                               cross_check=False)
            assert report.cache_misses == 0
        return time.perf_counter() - t0
    finally:
        gc.enable()


class TestObsOverhead:
    def test_telemetry_overhead_under_5_percent(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_sweep(SPEC, workers=0, cache_dir=cache_dir,
                         cross_check=False)
        assert cold.ok_results

        was_enabled = TRACER.enabled
        on_times, off_times = [], []
        try:
            for _ in range(ROUNDS):
                TRACER.enable()
                TRACER.reset()
                on_times.append(_warm_sample(cache_dir))
                TRACER.disable()
                TRACER.reset()
                off_times.append(_warm_sample(cache_dir))
        finally:
            TRACER.enabled = was_enabled
            TRACER.reset()

        on_s, off_s = min(on_times), min(off_times)
        ratio = on_s / off_s
        record_pin("obs_overhead", n=18, jobs=len(cold.results),
                   rounds=ROUNDS,
                   telemetry_on_s=round(on_s, 4),
                   telemetry_off_s=round(off_s, 4),
                   overhead_ratio=round(ratio, 4))
        assert ratio < 1.05, (
            f"telemetry-on warm sweep is {(ratio - 1) * 100:.1f}% slower "
            f"than telemetry-off (on={on_s:.4f}s, off={off_s:.4f}s); "
            f"the observability stack must stay under 5%")
