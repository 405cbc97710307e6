"""The observability layer: span tracer, run records, trajectory gate."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import (
    RunRecord,
    Span,
    Tracer,
    list_run_records,
    load_run_record,
    metrics_dir,
    render_spans,
    write_run_record,
)


class FakeClock:
    """A deterministic clock advanced explicitly by the test."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


class TestTracerFlatView:
    def test_count_and_snapshot_sorted(self):
        tr = Tracer()
        tr.count("b.two")
        tr.count("a.one", 3)
        tr.count("b.two")
        snap = tr.snapshot()
        assert list(snap["counters"]) == ["a.one", "b.two"]
        assert snap["counters"] == {"a.one": 3, "b.two": 2}
        # The snapshot must survive a JSON round-trip bit-for-bit.
        assert json.loads(json.dumps(snap)) == snap

    def test_metrics_is_the_tracer(self):
        from repro.obs import METRICS, TRACER

        assert METRICS is TRACER
        assert isinstance(TRACER, Tracer)

    def test_disabled_span_yields_none(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("quiet") as node:
            assert node is None
        assert tr.spans() == []
        assert "quiet" in tr.timers


class TestTracerReentrancy:
    def test_recursive_stage_charges_outermost_only(self):
        """Regression: a stage re-entering itself used to double-count the
        flat timer (inner frame charged on top of the outer's elapsed)."""
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("verify.compile"):
            clock.tick(1.0)
            with tr.span("verify.compile"):
                clock.tick(2.0)
            clock.tick(1.0)
        assert tr.timers["verify.compile"] == pytest.approx(4.0)

    def test_distinct_names_both_charge(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("outer"):
            clock.tick(1.0)
            with tr.span("inner"):
                clock.tick(2.0)
        assert tr.timers["outer"] == pytest.approx(3.0)
        assert tr.timers["inner"] == pytest.approx(2.0)

    def test_sequential_same_name_accumulates(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        for _ in range(3):
            with tr.span("step"):
                clock.tick(0.5)
        assert tr.timers["step"] == pytest.approx(1.5)

    def test_reentrant_tree_records_every_frame(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        tr.enable()
        with tr.span("stage"):
            clock.tick(1.0)
            with tr.span("stage"):
                clock.tick(2.0)
        roots = tr.spans()
        assert len(roots) == 1
        assert roots[0].duration == pytest.approx(3.0)
        assert len(roots[0].children) == 1
        assert roots[0].children[0].duration == pytest.approx(2.0)
        # ... while the flat timer still shows the outer frame only.
        assert tr.timers["stage"] == pytest.approx(3.0)


class TestSpanTree:
    def test_nesting_counters_and_attrs(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        tr.enable()
        with tr.span("sweep", grid="2x2") as root:
            tr.count("jobs")
            with tr.span("job") as child:
                tr.count("solves", 2)
                tr.annotate(label="dp/fig1")
            clock.tick(1.0)
        assert root.attrs == {"grid": "2x2"}
        assert root.counters == {"jobs": 1}
        assert child.counters == {"solves": 2}
        assert child.attrs == {"label": "dp/fig1"}
        assert root.total("solves") == 2      # subtree-summed
        assert tr.counters == {"jobs": 1, "solves": 2}

    def test_to_dict_round_trip(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        tr.enable()
        with tr.span("a", k="v"):
            tr.count("c")
            with tr.span("b"):
                clock.tick(0.5)
        data = tr.span_dicts()[0]
        assert json.loads(json.dumps(data)) == data
        clone = Span.from_dict(data)
        assert clone.name == "a"
        assert clone.attrs == {"k": "v"}
        assert clone.counters == {"c": 1}
        assert [c.name for c in clone.children] == ["b"]
        assert clone.children[0].duration == pytest.approx(0.5, abs=1e-3)

    def test_graft_and_discard(self):
        tr = Tracer(clock=FakeClock())
        tr.enable()
        shipped = {"name": "worker-job", "duration_ms": 12.0,
                   "counters": {"solves": 1}}
        with tr.span("sweep") as root:
            tr.graft(shipped)
        assert [c.name for c in root.children] == ["worker-job"]
        assert root.total("solves") == 1
        tr.discard(root)
        assert tr.spans() == []

    def test_reset_clears_everything(self):
        tr = Tracer(clock=FakeClock())
        tr.enable()
        with tr.span("x"):
            tr.count("c")
        tr.reset()
        assert tr.counters == {} and tr.timers == {}
        assert tr.spans() == []
        assert tr.enabled        # the flag survives a reset

    def test_render_spans(self):
        tr = Tracer(clock=FakeClock())
        tr.enable()
        with tr.span("root", label="dp"):
            tr.count("n", 2)
            with tr.span("leaf"):
                pass
        text = render_spans(tr.spans())
        assert "root" in text and "leaf" in text
        assert "n=2" in text and "label=dp" in text
        assert render_spans([]) == "(no spans recorded)"


class TestRunRecord:
    def test_round_trip(self, tmp_path):
        record = RunRecord(command="trace", argv=["--n", "7"],
                           started_at="2026-08-06T00:00:00Z", wall_time=1.5,
                           git_sha="abc123",
                           stats={"counters": {"x": 1}, "timers": {}},
                           spans=[{"name": "s", "duration_ms": 2.0}],
                           machine_stats={"cycles": 19},
                           extra={"note": "hi"})
        path = write_run_record(record, tmp_path)
        assert path is not None and path.is_file()
        loaded = load_run_record(path)
        assert loaded == record
        assert list_run_records(tmp_path) == [path]

    def test_disabled_without_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS_DIR", raising=False)
        assert metrics_dir() is None
        assert write_run_record(RunRecord(command="x")) is None

    def test_env_var_enables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS_DIR", str(tmp_path / "m"))
        assert metrics_dir() == tmp_path / "m"
        path = write_run_record(RunRecord(command="sweep"))
        assert path is not None and path.parent == tmp_path / "m"

    def test_unique_names_within_process(self, tmp_path):
        for _ in range(3):
            write_run_record(RunRecord(command="trace"), tmp_path)
        assert len(list_run_records(tmp_path)) == 3

    def test_format_version_rejected(self):
        with pytest.raises(ValueError, match="format"):
            RunRecord.from_dict({"format": 999, "command": "x"})

    def test_render_mentions_everything(self):
        record = RunRecord(command="trace", argv=["--n", "7"],
                           git_sha="abc123",
                           stats={"counters": {"cache.hits": 4},
                                  "timers": {"verify.machine": 0.25}},
                           spans=[{"name": "sweep.job", "duration_ms": 9.0}],
                           machine_stats={"cycles": 19})
        text = record.render()
        for needle in ("trace", "--n 7", "abc123", "cache.hits",
                       "verify.machine", "250.0 ms", "cycles", "sweep.job"):
            assert needle in text


class TestTrajectoryGate:
    SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" \
        / "check_trajectory.py"

    def _run(self, root):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), str(root)],
            capture_output=True, text=True)

    def _write(self, root, entries):
        (root / "BENCH_machine_verify_native.json").write_text(
            json.dumps(entries), encoding="utf-8")

    def test_empty_dir_passes(self, tmp_path):
        assert self._run(tmp_path).returncode == 0

    def test_single_entry_seeds(self, tmp_path):
        self._write(tmp_path, [{"n": 8, "verify_ms": 10.0}])
        proc = self._run(tmp_path)
        assert proc.returncode == 0
        assert "seeded baseline" in proc.stdout

    def test_within_bounds_passes(self, tmp_path):
        self._write(tmp_path, [{"n": 8, "verify_ms": 10.0},
                               {"n": 8, "verify_ms": 15.0}])
        proc = self._run(tmp_path)
        assert proc.returncode == 0
        assert "OK" in proc.stdout

    def test_regression_fails(self, tmp_path):
        self._write(tmp_path, [{"n": 8, "verify_ms": 10.0},
                               {"n": 8, "verify_ms": 25.0}])
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "REGRESSED" in proc.stdout

    def test_different_context_not_compared(self, tmp_path):
        """A CI smoke run at small n must not gate against a local big-n
        baseline — the workload context (here ``n``) has to match."""
        self._write(tmp_path, [{"n": 18, "verify_ms": 10.0},
                               {"n": 8, "verify_ms": 50.0}])
        proc = self._run(tmp_path)
        assert proc.returncode == 0
        assert "seeded baseline" in proc.stdout

    def test_empty_file_seeds_instead_of_failing(self, tmp_path):
        # A fresh checkout ships empty trajectories; the first pinned run
        # must seed them, not crash the gate.
        (tmp_path / "BENCH_machine_verify_native.json").write_text(
            "", encoding="utf-8")
        proc = self._run(tmp_path)
        assert proc.returncode == 0
        assert "seeds it" in proc.stdout

    def test_empty_list_seeds_instead_of_failing(self, tmp_path):
        self._write(tmp_path, [])
        proc = self._run(tmp_path)
        assert proc.returncode == 0
        assert "seeds it" in proc.stdout

    def test_corrupt_file_still_fails(self, tmp_path):
        (tmp_path / "BENCH_machine_verify_native.json").write_text(
            "{not json", encoding="utf-8")
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "unreadable" in proc.stdout

    def test_native_trajectory_gated(self, tmp_path):
        (tmp_path / "BENCH_machine_native.json").write_text(
            json.dumps([{"n": 8, "native_ms": 1.0},
                        {"n": 8, "native_ms": 9.0}]), encoding="utf-8")
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "machine_native" in proc.stdout

    def test_passing_gate_prints_delta_table(self, tmp_path):
        self._write(tmp_path, [{"n": 8, "verify_ms": 10.0},
                               {"n": 8, "verify_ms": 12.0}])
        proc = self._run(tmp_path)
        assert proc.returncode == 0
        assert "per-pin trajectory deltas" in proc.stdout
        assert "+20.0%" in proc.stdout

    def test_delta_table_dash_without_comparable_prior(self, tmp_path):
        self._write(tmp_path, [{"n": 8, "verify_ms": 10.0}])
        proc = self._run(tmp_path)
        assert proc.returncode == 0
        # one entry: newest value shown, previous and delta are "-"
        assert "machine_verify_native" in proc.stdout
        assert "-" in proc.stdout

    def test_failing_gate_skips_delta_table(self, tmp_path):
        self._write(tmp_path, [{"n": 8, "verify_ms": 10.0},
                               {"n": 8, "verify_ms": 25.0}])
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "per-pin trajectory deltas" not in proc.stdout


class TestGitSha:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self, monkeypatch):
        from repro.obs import metrics
        monkeypatch.setattr(metrics, "_git_sha_cache", False)
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
        monkeypatch.delenv("GITHUB_SHA", raising=False)

    def test_env_override_wins_and_is_not_memoized(self, monkeypatch):
        from repro.obs import metrics
        calls = []
        monkeypatch.setattr(metrics, "_resolve_git_sha",
                            lambda: calls.append(1) or "resolved")
        monkeypatch.setenv("REPRO_GIT_SHA", "deadbeef")
        assert metrics.git_sha() == "deadbeef"
        monkeypatch.setenv("REPRO_GIT_SHA", "cafef00d")
        assert metrics.git_sha() == "cafef00d"
        assert not calls   # override never touches the subprocess path

    def test_github_sha_fallback(self, monkeypatch):
        from repro.obs import metrics
        monkeypatch.setenv("GITHUB_SHA", "ci-sha")
        assert metrics.git_sha() == "ci-sha"

    def test_subprocess_resolution_memoized_once(self, monkeypatch):
        from repro.obs import metrics
        calls = []
        monkeypatch.setattr(metrics, "_resolve_git_sha",
                            lambda: calls.append(1) or "abc123")
        assert metrics.git_sha() == "abc123"
        assert metrics.git_sha() == "abc123"
        assert metrics.git_sha() == "abc123"
        assert len(calls) == 1

    def test_none_result_is_memoized_too(self, monkeypatch):
        """Outside a checkout the failed resolution must also be cached —
        a sweep must not retry git once per record write."""
        from repro.obs import metrics
        calls = []
        monkeypatch.setattr(metrics, "_resolve_git_sha",
                            lambda: calls.append(1) and None)
        assert metrics.git_sha() is None
        assert metrics.git_sha() is None
        assert len(calls) == 1
