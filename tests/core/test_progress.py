"""Live sweep progress: events, CLI rendering, heartbeat, run_sweep wiring."""

import io
import json

from repro.core import SweepSpec, run_sweep
from repro.obs import (
    CLIProgress,
    JsonlHeartbeat,
    ProgressEvent,
    read_heartbeat,
)
from repro.obs.progress import SweepProgress


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


class Collector:
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


class TestProgressEvent:
    def test_to_dict_rounds_and_omits_optionals(self):
        e = ProgressEvent(kind="job", total=10, done=3, failed=1,
                          cache_hits=2, elapsed=1.23456789,
                          throughput=2.43902, eta_s=2.87)
        d = e.to_dict()
        assert d["elapsed_s"] == 1.234568
        assert d["throughput"] == 2.439
        assert d["eta_s"] == 2.87
        assert "label" not in d

    def test_start_omits_eta(self):
        assert "eta_s" not in ProgressEvent(kind="start", total=4).to_dict()

    def test_render_mentions_counts(self):
        e = ProgressEvent(kind="job", total=8, done=3, failed=1,
                          cache_hits=2, throughput=4.0, eta_s=1.25)
        line = e.render()
        assert "sweep 3/8" in line
        assert "1 failed" in line
        assert "2 cached" in line
        assert "4.0 jobs/s" in line
        assert "eta 1.2s" in line

    def test_render_end_shows_duration(self):
        e = ProgressEvent(kind="end", total=8, done=8, elapsed=2.0,
                          throughput=4.0, eta_s=0.0)
        assert "done in 2.00s" in e.render()
        assert "eta" not in e.render()


class TestSweepProgressTracker:
    def _tracker(self, sinks):
        clock = FakeClock()
        tracker = SweepProgress.create(sinks)
        tracker.clock = clock
        return tracker, clock

    def test_create_normalises_argument(self):
        sink = Collector()
        assert SweepProgress.create(None) is None
        assert SweepProgress.create(()) is None
        assert SweepProgress.create(sink).sinks == (sink,)
        assert SweepProgress.create([sink, sink]).sinks == (sink, sink)

    def test_lifecycle_counts_and_eta(self):
        sink = Collector()
        tracker, clock = self._tracker(sink)
        tracker.start(4)
        clock.tick(1.0)
        tracker.job_done(ok=True, cache_hit=False, label="a")
        clock.tick(1.0)
        tracker.job_done(ok=False, cache_hit=False, label="b")
        tracker.job_done(ok=True, cache_hit=True, label="c")
        tracker.finish()
        kinds = [e.kind for e in sink.events]
        assert kinds == ["start", "job", "job", "job", "end"]
        second = sink.events[2]
        assert (second.done, second.failed, second.cache_hits) == (2, 1, 0)
        assert second.throughput == 1.0
        assert second.eta_s == 2.0
        assert sink.events[-1].cache_hits == 1

    def test_broken_sink_dropped_not_fatal(self):
        class Broken:
            def emit(self, event):
                raise OSError("disk full")

        good = Collector()
        tracker, clock = self._tracker([Broken(), good])
        tracker.start(1)
        tracker.job_done(ok=True, cache_hit=False, label="a")
        tracker.finish()
        assert [e.kind for e in good.events] == ["start", "job", "end"]


class TestCLIProgress:
    def test_non_tty_writes_plain_lines(self):
        stream = io.StringIO()
        clock = FakeClock()
        cli = CLIProgress(stream, min_interval=0.0, clock=clock)
        cli.emit(ProgressEvent(kind="start", total=2))
        cli.emit(ProgressEvent(kind="end", total=2, done=2))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "\r" not in stream.getvalue()

    def test_tty_redraws_in_place(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        clock = FakeClock()
        cli = CLIProgress(stream, min_interval=0.0, clock=clock)
        cli.emit(ProgressEvent(kind="job", total=2, done=1))
        cli.emit(ProgressEvent(kind="end", total=2, done=2))
        text = stream.getvalue()
        assert text.startswith("\r\x1b[2K")
        assert text.endswith("\n")

    def test_throttling_keeps_final_event(self):
        stream = io.StringIO()
        clock = FakeClock()
        cli = CLIProgress(stream, min_interval=1.0, clock=clock)
        cli.emit(ProgressEvent(kind="start", total=3))
        cli.emit(ProgressEvent(kind="job", total=3, done=1))   # throttled
        cli.emit(ProgressEvent(kind="job", total=3, done=2))   # throttled
        cli.emit(ProgressEvent(kind="end", total=3, done=3))   # final: kept
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "3/3" in lines[-1]


class TestHeartbeat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        hb = JsonlHeartbeat(path)
        hb.emit(ProgressEvent(kind="start", total=2))
        hb.emit(ProgressEvent(kind="job", total=2, done=1, elapsed=0.5,
                              throughput=2.0, eta_s=0.5, label="dp(n=6)"))
        hb.emit(ProgressEvent(kind="end", total=2, done=2, elapsed=1.0,
                              throughput=2.0, eta_s=0.0))
        events = read_heartbeat(path)
        assert [e.kind for e in events] == ["start", "job", "end"]
        assert events[1].label == "dp(n=6)"
        assert events[1].eta_s == 0.5

    def test_every_line_is_json(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        hb = JsonlHeartbeat(path)
        for i in range(5):
            hb.emit(ProgressEvent(kind="job", total=5, done=i + 1))
        for line in path.read_text(encoding="utf-8").splitlines():
            json.loads(line)

    def test_torn_tail_returns_intact_events(self, tmp_path):
        """A sweep killed mid-append leaves a torn last line; reading the
        heartbeat must return every event before the tear."""
        path = tmp_path / "hb.jsonl"
        JsonlHeartbeat(path).emit(ProgressEvent(kind="start", total=3))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"job","tot')
        events = read_heartbeat(path)
        assert [(e.kind, e.total) for e in events] == [("start", 3)]

    def test_lines_are_canonical_journal_records(self, tmp_path):
        from repro.util.journal import encode_record

        path = tmp_path / "hb.jsonl"
        event = ProgressEvent(kind="job", total=2, done=1, label="dp(n=4)")
        JsonlHeartbeat(path).emit(event)
        assert path.read_text(encoding="utf-8") == \
            encode_record(event.to_dict())


class TestRunSweepProgress:
    SPEC = SweepSpec(problems=("dp",), interconnects=("fig1",),
                     param_grid=({"n": 4}, {"n": 5}))

    def test_serial_sweep_emits_full_stream(self, tmp_path):
        sink = Collector()
        report = run_sweep(self.SPEC, workers=0, cache_dir=tmp_path,
                           cross_check=False, progress=sink)
        kinds = [e.kind for e in sink.events]
        assert kinds[0] == "start"
        assert kinds[-1] == "end"
        assert kinds.count("job") == len(report.results) == 2
        assert sink.events[0].total == 2
        assert sink.events[-1].done == 2

    def test_cache_hits_reported_as_jobs(self, tmp_path):
        run_sweep(self.SPEC, workers=0, cache_dir=tmp_path,
                  cross_check=False)
        sink = Collector()
        report = run_sweep(self.SPEC, workers=0, cache_dir=tmp_path,
                           cross_check=False, progress=sink)
        assert report.cache_hits == 2
        assert sink.events[-1].cache_hits == 2
        labels = {e.label for e in sink.events if e.kind == "job"}
        assert any("dp(n=4)" in label for label in labels)

    def test_pool_sweep_emits_every_job(self, tmp_path):
        sink = Collector()
        report = run_sweep(self.SPEC, workers=2, cache_dir=tmp_path,
                           cross_check=False, progress=sink)
        assert sink.events[-1].done == len(report.results) == 2

    def test_no_progress_argument_no_events(self, tmp_path):
        report = run_sweep(self.SPEC, workers=0, cache_dir=tmp_path,
                           cross_check=False)
        assert report.results   # nothing crashed without a tracker
