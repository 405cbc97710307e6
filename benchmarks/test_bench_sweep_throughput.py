"""Benchmark T — sweep throughput, warm and cold.

The warm path keys jobs once per distinct system builder (fingerprint
memo) instead of rebuilding and re-hashing the system per job, and warm
jobs resolve in the parent with no worker round-trip.  This file pins
sweep-jobs/sec for both temperatures and holds the acceptance bar:

* **warm** — a fully cached sweep must clear at least 2x the jobs/sec of
  the pre-PR probe loop (vendored below verbatim: per-job ``builder()``
  + ``cache_key`` + ``load``), measured on the identical workload;
* **cold** — every job reaches the solvers through the process pool;
  pinned for the trajectory, shape-checked here.

``warm_s`` is the gated metric — it measures pure keying and cache
machinery, no solver noise.
"""

import time

from conftest import record_pin
from repro.core import DesignCache, SweepSpec, cache_key, run_sweep
from repro.report import sweep_table

SPEC = SweepSpec(
    problems=("dp", "conv-backward", "conv-forward"),
    interconnects=("fig1", "linear"),
    param_grid=({"n": 6, "s": 3}, {"n": 8, "s": 3}),
)


def _median_seconds(fn, repeats=5):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def _warm_probe_submit_all(jobs, cache):
    """The pre-PR warm path, vendored as the comparison baseline: every
    job rebuilds its system and recomputes the full fingerprint before
    the cache can answer."""
    results = []
    for job in jobs:
        key = cache_key(job.builder(), job.params_dict, job.interconnect,
                        job.options)
        results.append(cache.load(key))
    return results


class TestSweepThroughput:
    def test_warm_throughput_beats_submit_all_by_2x(self, benchmark,
                                                    tmp_path):
        cold = run_sweep(SPEC, workers=2, cache_dir=tmp_path,
                         cross_check=False)
        assert cold.cache_hits == 0 and len(cold.results) == 12

        jobs = SPEC.jobs()
        cache = DesignCache(tmp_path)
        assert all(p is not None
                   for p in _warm_probe_submit_all(jobs, cache))

        warm_s = _median_seconds(
            lambda: run_sweep(SPEC, workers=0, cache_dir=tmp_path,
                              cross_check=False))
        baseline_s = _median_seconds(
            lambda: _warm_probe_submit_all(jobs, cache))
        njobs = len(jobs)
        warm_jps = njobs / warm_s
        baseline_jps = njobs / baseline_s
        cold_jps = njobs / cold.wall_time
        speedup = warm_jps / baseline_jps
        print(f"\n{njobs} jobs: cold {cold_jps:.1f} jobs/s, "
              f"warm {warm_jps:.0f} jobs/s, "
              f"submit-all baseline {baseline_jps:.0f} jobs/s, "
              f"speedup {speedup:.1f}x")
        record_pin("sweep_throughput", jobs=njobs,
                   cold_s=round(cold.wall_time, 4),
                   warm_s=round(warm_s, 4),
                   warm_jobs_per_s=round(warm_jps, 1),
                   cold_jobs_per_s=round(cold_jps, 1),
                   baseline_warm_s=round(baseline_s, 4),
                   speedup=round(speedup, 2))
        # The acceptance bar: warm sweeps at >= 2x the pre-PR pool's
        # probe throughput (the baseline does strictly less work — it
        # never builds results or emits progress — so beating it by 2x
        # means the keying memo is carrying the sweep).
        assert speedup >= 2.0

        warm = run_sweep(SPEC, workers=0, cache_dir=tmp_path,
                         cross_check=False)
        assert warm.cache_misses == 0
        assert sweep_table(warm.results) == sweep_table(cold.results)
        benchmark(lambda: run_sweep(SPEC, workers=0, cache_dir=tmp_path,
                                    cross_check=False))

    def test_cold_pool_shape(self, tmp_path):
        report = run_sweep(SPEC, workers=2, cache_dir=tmp_path / "pool",
                           cross_check=False)
        assert len(report.results) == 12
        assert report.cache_misses == 12
        assert report.ok_results and report.failures
        assert all(r.cells > 0 and r.design_payload is not None
                   for r in report.ok_results)
        assert all(r.error_type for r in report.failures)
        serial = run_sweep(SPEC, workers=0, cache_dir=tmp_path / "serial",
                           cross_check=False)
        assert sweep_table(report.results) == sweep_table(serial.results)
