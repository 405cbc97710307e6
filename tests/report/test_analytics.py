"""``repro report`` analytics over synthetic run-record stores."""

import json

import pytest

from repro.obs import Tracer
from repro.obs.metrics import RunRecord, load_run_record, write_run_record
from repro.report import (
    bench_delta_table,
    cache_table,
    delta_records_table,
    latency_table,
    load_records,
    render_report,
    report_dict,
    stage_table,
)
from repro.report.analytics import (
    bench_delta_dict,
    cache_dict,
    job_samples,
    latency_dict,
    stage_dict,
    stage_samples,
    summed_counters,
)


def _sweep_record(jobs, counters=None, spans=()):
    return RunRecord(
        command="sweep", argv=["--problems", "dp"], wall_time=1.0,
        stats={"counters": counters or {}}, spans=list(spans),
        extra={"jobs": jobs})


def _single_record(problem, wall_time, command="synthesize"):
    return RunRecord(
        command=command, wall_time=wall_time,
        extra={"workload": {"problem": problem, "params": {"n": 8},
                            "interconnect": "fig1"}})


def _job(problem, wall_time, ok=True, cache_hit=False):
    return {"problem": problem, "params": {"n": 8}, "interconnect": "fig1",
            "ok": ok, "cache_hit": cache_hit, "wall_time": wall_time}


JOBS = [_job("dp", 0.010),
        _job("dp", 0.030),
        _job("conv-forward", 0.020),
        _job("conv-backward", 0.005)]


class TestLoadRecords:
    def test_directory_and_file_sources(self, tmp_path):
        store = tmp_path / "metrics"
        p1 = write_run_record(_sweep_record(JOBS), store)
        p2 = write_run_record(_single_record("dp", 0.5), store)
        assert p1 and p2
        assert len(load_records([store])) == 2
        assert len(load_records([p1])) == 1
        assert len(load_records([store, p1])) == 3

    def test_unreadable_files_skipped(self, tmp_path):
        store = tmp_path / "metrics"
        write_run_record(_sweep_record(JOBS), store)
        (store / "run-broken.json").write_text("{not json", encoding="utf-8")
        (store / "run-wrong-format.json").write_text(
            json.dumps({"format": 999, "command": "x"}), encoding="utf-8")
        records = load_records([store])
        assert len(records) == 1
        assert records[0].command == "sweep"

    @pytest.mark.parametrize("body", ["[]", "null", "7", '"run"'])
    def test_non_object_records_skipped(self, tmp_path, body):
        store = tmp_path / "metrics"
        write_run_record(_sweep_record(JOBS), store)
        (store / "run-not-an-object.json").write_text(body, encoding="utf-8")
        records = load_records([store])
        assert [r.command for r in records] == ["sweep"]

    def test_v1_record_rejected(self, tmp_path):
        path = tmp_path / "run-v1.json"
        path.write_text(json.dumps({"format": 1, "command": "sweep"}),
                        encoding="utf-8")
        assert load_records([path]) == []


class TestLatency:
    def test_job_samples_group_by_problem(self):
        groups = job_samples([_sweep_record(JOBS)])
        assert groups == {"dp": [0.010, 0.030], "conv-forward": [0.020],
                          "conv-backward": [0.005]}
        # Older records also name an engine per job; it splits nothing.
        old = [dict(job, engine=engine) for job, engine in
               zip(JOBS, ("interpreter", "compiled", "native", "native"))]
        assert job_samples([_sweep_record(old)]) == groups

    def test_single_run_contributes_record_wall_time(self):
        groups = job_samples([_single_record("dp", 0.25)])
        assert groups["dp"] == [0.25]

    def test_latency_dict_percentiles(self):
        entries = latency_dict([_sweep_record(JOBS)])
        by_key = {e["problem"]: e for e in entries}
        dp = by_key["dp"]
        assert dp["count"] == 2
        assert dp["p50_s"] == pytest.approx(0.020)
        assert dp["max_s"] == 0.030

    def test_latency_table_renders_ms(self):
        table = latency_table([_sweep_record(JOBS)], "latency")
        assert table.startswith("latency\n")
        assert "conv-forward" in table
        assert "20.0" in table      # p50 of 10ms/30ms

    def test_empty_records_message(self):
        assert "no latency samples" in latency_table([])


class TestCaches:
    COUNTERS = {"cache.hits": 6, "cache.misses": 2,
                "cache.negative_hits": 1, "native.cache_hits": 3,
                "native.cache_misses": 1}

    def test_summed_counters_across_records(self):
        records = [_sweep_record([], counters=self.COUNTERS),
                   _sweep_record([], counters={"cache.hits": 4})]
        assert summed_counters(records)["cache.hits"] == 10

    def test_cache_dict_hit_rate(self):
        entries = cache_dict([_sweep_record([], counters=self.COUNTERS)])
        by_family = {e["family"]: e for e in entries}
        assert by_family["design"]["hit_rate"] == pytest.approx(0.75)
        assert by_family["design"]["negative_hits"] == 1
        assert by_family["native"]["hits"] == 3
        assert "points" not in by_family   # no activity -> no row

    def test_cache_table_renders_rate(self):
        table = cache_table([_sweep_record([], counters=self.COUNTERS)])
        assert "75%" in table
        assert "design" in table

    def test_no_activity_message(self):
        assert "no cache activity" in cache_table([_sweep_record([])])


def _span(name, seconds, *children):
    out = {"name": name, "duration_ms": round(seconds * 1000, 3)}
    if children:
        out["children"] = list(children)
    return out


def _spans(stage_values):
    """One root span per sample, as a record stores them."""
    return [_span(name, v) for name, values in stage_values.items()
            for v in values]


class TestStages:
    def test_stage_dict_union_of_records(self):
        a = _sweep_record([], spans=_spans({"solve": [0.1, 0.2]}))
        b = _sweep_record([], spans=_spans({"solve": [0.3],
                                            "verify": [0.05]}))
        counts = {e["stage"]: e["count"] for e in stage_dict([a, b])}
        assert counts == {"solve": 3, "verify": 1}
        assert stage_dict([a, b]) == stage_dict([b, a])

    def test_stage_dict_summary(self):
        rec = _sweep_record([], spans=_spans({"solve": [0.1, 0.3]}))
        entries = stage_dict([rec])
        assert entries[0]["stage"] == "solve"
        assert entries[0]["count"] == 2
        assert entries[0]["mean"] == pytest.approx(0.2)
        assert (entries[0]["min"], entries[0]["max"]) == (0.1, 0.3)
        assert entries[0]["p50"] == pytest.approx(0.2)
        assert set(entries[0]) == {"stage", "count", "mean", "min", "max",
                                   "p50", "p90", "p95", "p99"}

    def test_stage_percentiles_are_exact(self):
        values = [i / 1000 for i in range(1, 2001)]
        rec = _sweep_record([], spans=_spans({"solve": values}))
        (entry,) = stage_dict([rec])
        assert entry["count"] == 2000
        assert entry["p50"] == pytest.approx(1.0005)
        assert entry["p99"] == pytest.approx(1.98001)
        assert (entry["min"], entry["max"]) == (0.001, 2.0)

    def test_stage_table_and_empty_message(self):
        rec = _sweep_record([], spans=_spans({"solve": [0.1]}))
        assert "solve" in stage_table([rec])
        assert "no traced spans" in stage_table([_sweep_record([])])

    def test_nested_spans_are_samples_reentered_ones_are_not(self):
        tree = _span("sweep.solve", 0.5,
                     _span("sweep.job", 0.2,
                           _span("pipeline", 0.15,
                                 _span("pipeline", 0.1))),
                     _span("sweep.job", 0.25))
        samples = stage_samples([_sweep_record([], spans=[tree])])
        assert samples == {"sweep.solve": [0.5],
                           "sweep.job": [0.2, 0.25],
                           "pipeline": [0.15]}

    def test_stages_match_the_tracer_timers(self):
        """A traced run's stage totals are its flat timers: both charge
        the outermost frame of a re-entered stage only."""
        ticks = iter(range(100))
        tr = Tracer(clock=lambda: float(next(ticks)))
        tr.enable()
        with tr.span("sweep.solve"):
            for _ in range(2):
                with tr.span("sweep.job"):
                    with tr.span("sweep.job"):
                        pass
        rec = _sweep_record([], spans=tr.span_dicts())
        totals = {e["stage"]: e["mean"] * e["count"]
                  for e in stage_dict([rec])}
        assert totals == pytest.approx(tr.timers)

    def test_format2_record_with_retired_sections_loads_and_reports(
            self, tmp_path):
        """Records written before spans became the only source still carry
        ``gauges`` and ``histograms`` in ``stats``: they load, and the
        report reads their spans and counters and nothing else."""
        path = tmp_path / "run-old.json"
        path.write_text(json.dumps({
            "format": 2, "command": "sweep", "wall_time": 1.0,
            "stats": {"counters": {"cache.hits": 1, "cache.misses": 1},
                      "timers": {"sweep.job": 0.3},
                      "gauges": {"sweep.workers": 2.0},
                      "histograms": {"sweep.job": {
                          "buckets": [1.0], "bucket_counts": [7, 0],
                          "count": 7, "total": 0.7, "min": 0.1,
                          "max": 0.1, "samples": []}}},
            "spans": _spans({"sweep.job": [0.1, 0.2]}),
            "extra": {"jobs": JOBS}}), encoding="utf-8")
        (rec,) = load_records([path])
        assert rec.stats["gauges"] == {"sweep.workers": 2.0}
        out = report_dict([rec])
        assert [(e["stage"], e["count"]) for e in out["stages"]] == \
            [("sweep.job", 2)]
        assert out["caches"][0]["hits"] == 1
        assert "sweep.job" in render_report([load_run_record(path)])


class TestDeltas:
    def test_delta_records_table_pct(self):
        current = [_sweep_record([_job("dp", 0.010)])]
        baseline = [_sweep_record([_job("dp", 0.020)])]
        table = delta_records_table(current, baseline)
        assert "-50.0%" in table

    def test_delta_handles_one_sided_keys(self):
        current = [_sweep_record([_job("dp", 0.010)])]
        baseline = [_sweep_record([_job("conv-forward", 0.020)])]
        table = delta_records_table(current, baseline)
        assert "dp" in table and "conv-forward" in table
        # no common key -> every delta column is "-"
        assert "%" not in table.splitlines()[-1]

    def test_bench_delta_newest_vs_previous(self, tmp_path):
        path = tmp_path / "BENCH_sweep_cache.json"
        path.write_text(json.dumps([
            {"n": 18, "warm_s": 0.100, "git_sha": "a"},
            {"n": 18, "warm_s": 0.080, "git_sha": "b"},
        ]), encoding="utf-8")
        entries = {e["metric"]: e for e in bench_delta_dict(path)}
        assert entries["warm_s"]["value"] == 0.080
        assert entries["warm_s"]["previous"] == 0.100
        assert "git_sha" not in entries        # non-numeric: skipped
        table = bench_delta_table(path)
        assert "-20.0%" in table

    def test_bench_delta_single_entry_has_no_previous(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps([{"warm_s": 0.1}]), encoding="utf-8")
        (entry,) = bench_delta_dict(path)
        assert entry["previous"] is None
        assert "-" in bench_delta_table(path)


class TestWholeReport:
    def _records(self):
        return [_sweep_record(
            JOBS, counters={"cache.hits": 3, "cache.misses": 1},
            spans=_spans({"solve": [0.1, 0.2]}))]

    def test_report_dict_sections(self):
        out = report_dict(self._records())
        assert out["records"] == 1
        assert {e["problem"] for e in out["latency"]} == {
            "dp", "conv-forward", "conv-backward"}
        assert out["caches"][0]["family"] == "design"
        assert out["stages"][0]["stage"] == "solve"
        assert "delta" not in out and "bench_delta" not in out
        json.dumps(out)   # --json must serialize

    def test_report_dict_with_dir_baseline(self, tmp_path):
        store = tmp_path / "base"
        write_run_record(_sweep_record(JOBS), store)
        out = report_dict(self._records(), baseline=store)
        assert "delta" in out and "bench_delta" not in out

    def test_report_dict_with_bench_baseline(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps([{"warm_s": 0.1}]), encoding="utf-8")
        out = report_dict(self._records(), baseline=path)
        assert "bench_delta" in out and "delta" not in out

    def test_render_report_composes_blocks(self):
        text = render_report(self._records())
        assert text.startswith("report over 1 run record(s)")
        assert "latency by problem" in text
        assert "cache effectiveness" in text
        assert "stage latency (merged telemetry)" in text

    def test_render_report_with_baseline_dir(self, tmp_path):
        store = tmp_path / "base"
        write_run_record(_sweep_record(JOBS), store)
        text = render_report(self._records(), baseline=store)
        assert "delta vs baseline records" in text
