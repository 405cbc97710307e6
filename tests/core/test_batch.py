"""Batch sweeps: the 2x2 smoke grid, caching, and the worker pool."""

import gc

import pytest

from repro.core import SweepSpec, SynthesisOptions, run_sweep
from repro.core.batch import _execute_job, _merge_stats
from repro.obs import TRACER, RunRecord
from repro.report import sweep_pareto_table, sweep_table
from repro.report.analytics import stage_dict

SMOKE = SweepSpec(
    problems=("dp", "conv-backward"),
    interconnects=("fig1", "linear"),
    param_grid=({"n": 6, "s": 3},),
)


def _untimed_gc(sweep):
    """Run ``sweep()`` with the cyclic collector off, after a full
    collection: a collection pause inside a ~10 ms warm sweep would swamp
    the timing comparison."""
    gc.collect()
    gc.disable()
    try:
        return sweep()
    finally:
        gc.enable()


class TestSweepSmoke:
    def test_parallel_2x2_grid(self, tmp_path):
        report = run_sweep(SMOKE, workers=2, cache_dir=tmp_path)
        assert len(report.results) == 4
        assert report.workers == 2
        assert gc.get_freeze_count() == 0    # the pool's freeze is undone
        assert report.cache_hits == 0 and report.cache_misses == 4
        # dp needs a bidirectional diagonal; the pure-linear pattern can't
        # place it — that failure is recorded, not raised.
        ok = report.ok_results
        failed = report.failures
        assert len(ok) == 3 and len(failed) == 1
        assert failed[0].problem == "dp"
        assert failed[0].error_type == "NoSpaceMapExists"
        assert failed[0].error_module is not None
        for r in ok:
            assert r.cells > 0 and r.completion_time > 0
            assert r.design_payload is not None

    def test_warm_rerun_hits_cache_and_is_byte_identical(self, tmp_path):
        cold = _untimed_gc(
            lambda: run_sweep(SMOKE, workers=0, cache_dir=tmp_path))
        warm = _untimed_gc(
            lambda: run_sweep(SMOKE, workers=0, cache_dir=tmp_path))
        assert warm.cache_hits == 4 and warm.cache_misses == 0
        assert all(r.cache_hit for r in warm.results)
        # Negative entries hit too: the infeasible job is not re-solved.
        assert any(r.cache_hit and not r.ok for r in warm.results)
        assert warm.cross_check and warm.cross_check.startswith("ok")
        assert sweep_table(warm.results) == sweep_table(cold.results)
        assert sweep_pareto_table(warm.pareto()) == \
            sweep_pareto_table(cold.pareto())
        # The issue's acceptance bar: cached re-runs skip the solvers.
        assert warm.wall_time < cold.wall_time / 10

    def test_results_sorted_deterministically(self, tmp_path):
        report = run_sweep(SMOKE, workers=2, cache_dir=tmp_path)
        keys = [r._sort_key() for r in report.results]
        assert keys == sorted(keys)

    def test_pareto_front_is_non_dominated(self, tmp_path):
        report = run_sweep(SMOKE, workers=0, cache_dir=tmp_path)
        front = report.pareto()
        assert front
        for a in front:
            for b in report.ok_results:
                dominates = (b.completion_time <= a.completion_time
                             and b.cells <= a.cells
                             and (b.completion_time, b.cells)
                             != (a.completion_time, a.cells))
                assert not dominates

    def test_no_cache_mode(self, tmp_path):
        report = run_sweep(SMOKE, workers=0, use_cache=False,
                           cache_dir=tmp_path)
        assert report.cache_hits == 0
        assert not any(tmp_path.glob("*.json"))

    def test_rebuilt_design_from_result(self, tmp_path):
        from repro.core.batch import resolve_problem

        report = run_sweep(SMOKE, workers=0, cache_dir=tmp_path)
        result = next(r for r in report.ok_results
                      if r.problem == "conv-backward")
        builder, _ = resolve_problem(result.problem)
        design = result.design(builder())
        assert design.cell_count == result.cells
        assert design.completion_time == result.completion_time


class TestStatsProtocol:
    """The worker/serial split of the global TRACER registry.

    Regression: the serial fallback used to reset the process-wide
    registry the way a pool worker does, wiping whatever the caller had
    accumulated before the sweep."""

    def test_serial_sweep_preserves_caller_stats(self, tmp_path):
        TRACER.count("sentinel.before_sweep", 7)
        try:
            run_sweep(SMOKE, workers=0, cache_dir=tmp_path,
                      cross_check=False)
            assert TRACER.counters["sentinel.before_sweep"] == 7
        finally:
            TRACER.counters.pop("sentinel.before_sweep", None)

    def test_serial_job_reports_own_delta_only(self, tmp_path):
        job = SMOKE.jobs()[0]
        TRACER.count("sentinel.noise", 3)
        try:
            result = _execute_job(job, str(tmp_path))
            assert "sentinel.noise" not in result.stats.get("counters", {})
            assert result.stats["counters"]      # the job did count things
        finally:
            TRACER.counters.pop("sentinel.noise", None)

    def test_worker_mode_resets_registry(self, tmp_path):
        job = SMOKE.jobs()[0]
        TRACER.count("sentinel.parent_only", 5)
        try:
            result = _execute_job(job, str(tmp_path), in_worker=True)
            # The worker path starts from a clean registry, so the parent's
            # sentinel neither leaks into the delta nor survives the reset.
            assert "sentinel.parent_only" not in result.stats["counters"]
            assert "sentinel.parent_only" not in TRACER.counters
        finally:
            TRACER.counters.pop("sentinel.parent_only", None)

    def test_worker_ships_span_tree_when_tracing(self, tmp_path):
        job = SMOKE.jobs()[0]
        was_enabled = TRACER.enabled
        try:
            result = _execute_job(job, str(tmp_path), tracing=True,
                                  in_worker=True)
            shipped = result.stats.get("spans")
            assert shipped and shipped[0]["name"] == "sweep.job"
            # Worker hygiene: the shipped tree is discarded locally so a
            # reused pool process does not accumulate span forests.
            assert not any(s.name == "sweep.job" for s in TRACER.spans())
        finally:
            TRACER.enabled = was_enabled
            TRACER.reset()

    def test_worker_wire_round_trip_matches_serial(self, tmp_path):
        """One job run in worker mode and merged leaves the parent tracer
        as the same job run serially does: same counters, same timer
        names, same stage sample counts in the span trees."""
        job = SweepSpec(problems=("dp",), interconnects=("fig1",),
                        param_grid=({"n": 5},), verify_seeds=2).jobs()[0]
        was_enabled = TRACER.enabled

        def parent_view():
            wire = TRACER.snapshot()
            record = RunRecord(command="sweep", spans=TRACER.span_dicts())
            return (wire["counters"], sorted(wire["timers"]),
                    {e["stage"]: e["count"] for e in stage_dict([record])})

        try:
            # Warm the in-process memos so both measured runs start alike.
            _execute_job(job, str(tmp_path / "warm"))
            TRACER.reset()
            TRACER.enable()
            _execute_job(job, str(tmp_path / "serial"))
            serial = parent_view()
            result = _execute_job(job, str(tmp_path / "worker"),
                                  tracing=True, in_worker=True)
            TRACER.reset()
            TRACER.enable()
            _merge_stats(result.stats)
            assert parent_view() == serial
            assert serial[0] and serial[2]
        finally:
            TRACER.enabled = was_enabled
            TRACER.reset()

    def test_parallel_sweep_merges_worker_spans(self, tmp_path):
        was_enabled = TRACER.enabled
        TRACER.reset()
        TRACER.enable()
        try:
            run_sweep(SMOKE, workers=2, cache_dir=tmp_path,
                      cross_check=False)
            names = {s.name for root in TRACER.spans()
                     for s in _walk(root)}
            assert "sweep.job" in names      # grafted from the workers
        finally:
            TRACER.enabled = was_enabled
            TRACER.reset()


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


class TestSweepSpec:
    def test_unused_params_dropped_and_deduped(self):
        spec = SweepSpec(problems=("dp",), interconnects=("fig1",),
                         param_grid=({"n": 6, "s": 3}, {"n": 6, "s": 4}))
        jobs = spec.jobs()
        # dp ignores s, so both bindings collapse to the same job.
        assert len(jobs) == 1
        assert jobs[0].params == (("n", 6),)

    def test_missing_param_raises(self):
        spec = SweepSpec(problems=("conv-backward",),
                         interconnects=("linear",),
                         param_grid=({"n": 6},))
        with pytest.raises(KeyError, match="needs parameters"):
            spec.jobs()

    def test_unknown_problem_raises(self):
        spec = SweepSpec(problems=("fft",), interconnects=("fig1",),
                         param_grid=({"n": 6},))
        with pytest.raises(KeyError, match="unknown problem"):
            spec.jobs()

    def test_options_flow_into_jobs(self):
        opts = SynthesisOptions(time_bound=5, space_bound=2)
        spec = SweepSpec(problems=("dp",), interconnects=("fig1",),
                         param_grid=({"n": 6},), options=opts)
        assert spec.jobs()[0].options == opts

    def test_verify_seeds_flow_into_jobs(self):
        spec = SweepSpec(problems=("dp",), interconnects=("fig1",),
                         param_grid=({"n": 6},), verify_seeds=4)
        assert spec.jobs()[0].verify_seeds == 4


class TestVerifySeeds:
    SPEC = SweepSpec(problems=("dp",), interconnects=("fig1",),
                     param_grid=({"n": 6},), verify_seeds=4)

    def test_fresh_jobs_verify(self, tmp_path):
        report = run_sweep(self.SPEC, workers=0, cache_dir=tmp_path)
        (r,) = report.results
        assert r.ok and not r.cache_hit
        assert r.verify_seeds == 4
        assert r.verified is True
        assert r.verify_failures == []
        assert "verify: 1 design(s), 4 seeded runs" in report.summary()

    def test_cached_hits_verify_too(self, tmp_path):
        run_sweep(self.SPEC, workers=0, cache_dir=tmp_path)
        report = run_sweep(self.SPEC, workers=0, cache_dir=tmp_path)
        (r,) = report.results
        assert r.cache_hit
        assert r.verify_seeds == 4 and r.verified is True

    def test_verification_off_by_default(self, tmp_path):
        spec = SweepSpec(problems=("dp",), interconnects=("fig1",),
                         param_grid=({"n": 6},))
        report = run_sweep(spec, workers=0, cache_dir=tmp_path)
        (r,) = report.results
        assert r.verify_seeds == 0
        assert r.verified is None
        assert "verify:" not in report.summary()

    def test_verify_travels_through_worker_pool(self, tmp_path):
        spec = SweepSpec(problems=("dp", "conv-backward"),
                         interconnects=("fig1", "linear"),
                         param_grid=({"n": 6, "s": 3},), verify_seeds=2)
        report = run_sweep(spec, workers=2, cache_dir=tmp_path)
        ok = report.ok_results
        assert ok and all(r.verified is True for r in ok)
        assert all(r.verify_seeds == 2 for r in ok)
        # Infeasible jobs never verify.
        assert all(r.verify_seeds == 0 for r in report.failures)

    def test_verify_fields_serialize(self, tmp_path):
        report = run_sweep(self.SPEC, workers=0, cache_dir=tmp_path)
        payload = report.to_dict()["results"][0]
        assert payload["verify_seeds"] == 4
        assert payload["verify_failures"] == []


def _crash_first_worker_builder():
    """A dp builder whose *first* invocation kills its process.

    The sentinel path travels via the environment (inherited by pool
    workers); O_CREAT|O_EXCL makes exactly one invocation — across all
    processes — win the crash.  Later invocations (other workers, the
    parent's serial retry) build normally.
    """
    import os

    from repro.problems import dp_system

    sentinel = os.environ.get("REPRO_TEST_CRASH_SENTINEL")
    if sentinel:
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os._exit(1)          # simulate a segfault / OOM kill
    return dp_system()


class TestWorkerCrashRecovery:
    def _jobs(self):
        from repro.arrays.interconnect import resolve_interconnect
        from repro.core.batch import SweepJob

        fig1 = resolve_interconnect("fig1")
        return [SweepJob("dp", _crash_first_worker_builder, (("n", n),), fig1)
                for n in (4, 5, 6)]

    def test_sweep_survives_worker_death(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CRASH_SENTINEL",
                           str(tmp_path / "crashed"))
        before = TRACER.snapshot()["counters"]
        # use_cache=False: the parent must not run the crashing builder
        # during the cache probe, and the pool path must stay exercised.
        report = run_sweep(self._jobs(), workers=2, use_cache=False,
                           cross_check=False)
        assert (tmp_path / "crashed").exists()   # a worker did die
        assert len(report.results) == 3
        assert all(r.ok for r in report.results)
        assert sorted(r.params["n"] for r in report.results) == [4, 5, 6]
        after = TRACER.snapshot()["counters"]
        retries = after.get("sweep.worker_retries", 0) \
            - before.get("sweep.worker_retries", 0)
        assert retries >= 1

    def test_retried_job_stats_counted_once(self, tmp_path, monkeypatch):
        """Regression: a job salvaged from the broken pool AND retried
        serially used to charge the parent registry twice."""
        monkeypatch.setenv("REPRO_TEST_CRASH_SENTINEL",
                           str(tmp_path / "crashed"))
        counter = "space.assignments_examined"
        before = TRACER.snapshot()["counters"].get(counter, 0)
        report = run_sweep(self._jobs(), workers=2, use_cache=False,
                           cross_check=False)
        after = TRACER.snapshot()["counters"].get(counter, 0)
        # The parent's accumulated delta must equal the sum of the
        # per-job deltas exactly — a salvaged-then-retried job that
        # merged twice would overshoot.
        expected = sum(r.stats.get("counters", {}).get(counter, 0)
                       for r in report.results)
        assert expected > 0
        assert after - before == expected


class TestPooledExecution:
    GRID = SweepSpec(
        problems=("dp", "conv-backward"),
        interconnects=("fig1", "linear"),
        param_grid=({"n": 5, "s": 3}, {"n": 6, "s": 3}, {"n": 7, "s": 3}),
    )

    def test_matches_serial_results(self):
        serial = run_sweep(self.GRID, workers=0, use_cache=False,
                           cross_check=False)
        pooled = run_sweep(self.GRID, workers=3, use_cache=False,
                           cross_check=False)
        assert sweep_table(pooled.results) == sweep_table(serial.results)

    def test_same_params_two_engines_both_charge_stats(self):
        """Regression: results are accepted by job index, not by cache
        key.  Two jobs differing only in ``verify_seeds`` share a key —
        each must still be accepted and charge its own stats delta."""
        jobs = [job
                for seeds in (1, 2)
                for job in SweepSpec(
                    problems=("dp",), interconnects=("fig1",),
                    param_grid=({"n": 5},), verify_seeds=seeds).jobs()]
        counter = "space.assignments_examined"
        before = TRACER.snapshot()["counters"].get(counter, 0)
        report = run_sweep(jobs, workers=2, use_cache=False,
                           cross_check=False)
        after = TRACER.snapshot()["counters"].get(counter, 0)
        assert len(report.results) == 2
        assert report.results[0].key == report.results[1].key
        assert sorted(r.verify_seeds for r in report.results) == [1, 2]
        deltas = [r.stats["counters"].get(counter, 0)
                  for r in report.results]
        assert all(deltas)
        assert after - before == sum(deltas)     # both merged, once each


class TestMergeStats:
    def test_telemetry_wire_merges_into_registry(self):
        stats = {"counters": {"sentinel.count": 2},
                 "timers": {"sentinel.stage": 0.125}}
        try:
            _merge_stats(stats)
            assert TRACER.counters["sentinel.count"] == 2
            assert TRACER.timers["sentinel.stage"] == 0.125
        finally:
            TRACER.counters.pop("sentinel.count", None)
            TRACER.timers.pop("sentinel.stage", None)


class TestDefaultWorkers:
    def test_env_override(self, monkeypatch):
        from repro.core import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_clamped_to_at_least_one(self, monkeypatch):
        from repro.core import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "-4")
        assert default_workers() == 1

    def test_unparseable_env_falls_back(self, monkeypatch):
        from repro.core import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert default_workers() >= 1

    def test_sweep_report_carries_worker_count(self, tmp_path):
        report = run_sweep(SMOKE, workers=2, use_cache=False,
                           cross_check=False)
        assert report.workers == 2
        assert report.to_dict()["workers"] == 2
