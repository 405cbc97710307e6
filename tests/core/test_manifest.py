"""Sweep manifests: journaling, resume validation, torn-tail tolerance."""

import json

import pytest

from repro.core import (
    ManifestError,
    SweepManifest,
    SweepResult,
    SweepSpec,
    read_manifest,
    run_sweep,
)
from repro.core.manifest import MANIFEST_VERSION, jobs_fingerprint
from repro.report import sweep_table


ENGINE = "native"


def _ident(key: str, engine: str = ENGINE) -> str:
    """The engine-qualified identity the journal keys records by."""
    return f"{key}::{engine}"


def _result(key: str, ok: bool = True,
            engine: str = ENGINE) -> SweepResult:
    return SweepResult(problem="dp", params={"n": 5}, interconnect="fig1",
                       key=key, ok=ok, engine=engine,
                       cells=5 if ok else None,
                       completion_time=9 if ok else None,
                       error_type=None if ok else "NoScheduleExists")


class TestFingerprint:
    def test_order_independent(self):
        assert jobs_fingerprint(["a", "b"]) == jobs_fingerprint(["b", "a"])

    def test_sensitive_to_membership(self):
        assert jobs_fingerprint(["a"]) != jobs_fingerprint(["a", "b"])


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with SweepManifest.open(path, [_ident("k1"), _ident("k2")]) as m:
            m.record(_result("k1"))
        with SweepManifest.open(path, [_ident("k1"), _ident("k2")]) as m:
            assert set(m.completed) == {_ident("k1")}
            restored = m.restore()
        assert len(restored) == 1
        assert restored[0].key == "k1" and restored[0].cells == 5
        assert restored[0].identity == _ident("k1")

    def test_record_is_idempotent(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with SweepManifest.open(path, [_ident("k1")]) as m:
            m.record(_result("k1"))
            m.record(_result("k1"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2              # header + one done record

    def test_same_key_distinct_engines_both_journal(self, tmp_path):
        # Two jobs differing only in engine share a cache key; each must
        # get its own done-record or resuming silently drops one.
        path = tmp_path / "m.jsonl"
        idents = [_ident("k1", "interpreted"), _ident("k1", "native")]
        with SweepManifest.open(path, idents) as m:
            m.record(_result("k1", engine="interpreted"))
            m.record(_result("k1", engine="native"))
        with SweepManifest.open(path, idents) as m:
            assert set(m.completed) == set(idents)
            assert sorted(r.engine for r in m.restore()) == \
                ["interpreted", "native"]

    def test_failures_journal_too(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with SweepManifest.open(path, [_ident("bad")]) as m:
            m.record(_result("bad", ok=False))
        with SweepManifest.open(path, [_ident("bad")]) as m:
            (restored,) = m.restore()
        assert not restored.ok
        assert restored.error_type == "NoScheduleExists"

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = tmp_path / "m.jsonl"
        SweepManifest.open(path, [_ident("k1")]).close()
        with pytest.raises(ManifestError, match="different sweep"):
            SweepManifest.open(path, [_ident("k1"), _ident("k2")])

    def test_unknown_done_key_raises(self, tmp_path):
        path = tmp_path / "m.jsonl"
        header = {"kind": "header", "version": MANIFEST_VERSION,
                  "fingerprint": jobs_fingerprint([_ident("k1")]),
                  "total": 1}
        done = {"kind": "done", "key": _ident("rogue"),
                "result": _result("rogue").to_dict()}
        path.write_text(json.dumps(header) + "\n" + json.dumps(done) + "\n")
        with pytest.raises(ManifestError, match="unknown job key"):
            SweepManifest.open(path, [_ident("k1")])

    def test_not_a_manifest_raises(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"kind": "noise"}\n')
        with pytest.raises(ManifestError, match="bad header"):
            SweepManifest.open(path, [_ident("k1")])

    def test_old_version_raises(self, tmp_path):
        path = tmp_path / "m.jsonl"
        header = {"kind": "header", "version": 1,
                  "fingerprint": jobs_fingerprint([_ident("k1")]),
                  "total": 1}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ManifestError, match="version"):
            SweepManifest.open(path, [_ident("k1")])

    def test_torn_tail_is_ignored(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with SweepManifest.open(path, [_ident("k1"), _ident("k2")]) as m:
            m.record(_result("k1"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "done", "key": "k2", "resu')   # died here
        with SweepManifest.open(path, [_ident("k1"), _ident("k2")]) as m:
            assert set(m.completed) == {_ident("k1")}

    def test_read_manifest_post_mortem(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with SweepManifest.open(path, [_ident("k1"), _ident("k2"),
                                       _ident("k3")]) as m:
            m.record(_result("k1"))
            m.record(_result("k3"))
        info = read_manifest(path)
        assert info["version"] == MANIFEST_VERSION
        assert info["total"] == 3
        assert sorted(info["completed"]) == [_ident("k1"), _ident("k3")]

    def test_fsync_every_one_leaves_every_record_on_disk(self, tmp_path):
        path = tmp_path / "m.jsonl"
        m = SweepManifest.open(path, [_ident("k1")], fsync_every=1)
        m.record(_result("k1"))
        # No close(): simulate an abrupt death after the record landed.
        assert any(json.loads(line)["kind"] == "done"
                   for line in path.read_text().splitlines())
        m.close()


class TestRunSweepIntegration:
    SPEC = SweepSpec(problems=("dp",), interconnects=("fig1", "fig2"),
                     param_grid=({"n": 5}, {"n": 6}))

    def test_full_then_resume_executes_nothing(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        first = run_sweep(self.SPEC, workers=0, use_cache=False,
                          cross_check=False, manifest=path)
        again = run_sweep(self.SPEC, workers=0, use_cache=False,
                          cross_check=False, manifest=path)
        assert again.cache_misses == 0
        assert sweep_table(again.results) == sweep_table(first.results)
        # Restoration is pure journal replay — far below solve cost.
        assert again.wall_time < first.wall_time

    def test_manifest_of_other_grid_rejected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        run_sweep(self.SPEC, workers=0, use_cache=False,
                  cross_check=False, manifest=path)
        other = SweepSpec(problems=("dp",), interconnects=("fig1",),
                          param_grid=({"n": 7},))
        with pytest.raises(ManifestError):
            run_sweep(other, workers=0, use_cache=False,
                      cross_check=False, manifest=path)

    def test_progress_reports_resumed_jobs(self, tmp_path):
        path = tmp_path / "sweep.jsonl"

        class Collect:
            def __init__(self):
                self.events = []

            def emit(self, event):
                self.events.append(event)

        run_sweep(self.SPEC, workers=0, use_cache=False,
                  cross_check=False, manifest=path)
        sink = Collect()
        run_sweep(self.SPEC, workers=0, use_cache=False,
                  cross_check=False, manifest=path, progress=sink)
        final = sink.events[-1]
        assert final.kind == "end"
        assert final.resumed == final.total == 4
        assert "resumed" in final.render()

    def test_cache_hits_are_journaled(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        cache_dir = tmp_path / "cache"
        run_sweep(self.SPEC, workers=0, cache_dir=cache_dir,
                  cross_check=False)                       # populate cache
        run_sweep(self.SPEC, workers=0, cache_dir=cache_dir,
                  cross_check=False, manifest=path)        # hits journal
        info = read_manifest(path)
        assert len(info["completed"]) == info["total"] == 4

    def test_multi_engine_jobs_resume_without_loss(self, tmp_path):
        # Jobs differing only in engine share a cache key.  The journal
        # must keep one done-record per engine, and a resume must restore
        # both — losing either breaks the byte-identical-resume guarantee.
        import dataclasses

        from repro.core import SynthesisOptions

        base = SweepSpec(problems=("dp",), interconnects=("fig1",),
                         param_grid=({"n": 5},))
        jobs = [dataclasses.replace(job, options=SynthesisOptions(engine=e))
                for job in base.jobs()
                for e in ("interpreted", "native")]
        path = tmp_path / "sweep.jsonl"
        first = run_sweep(jobs, workers=0, use_cache=False,
                          cross_check=False, manifest=path)
        assert len(first.results) == 2
        assert len(read_manifest(path)["completed"]) == 2

        again = run_sweep(jobs, workers=0, use_cache=False,
                          cross_check=False, manifest=path)
        assert again.cache_misses == 0                 # nothing re-executed
        assert sorted(r.engine for r in again.results) == \
            ["interpreted", "native"]
        assert sweep_table(again.results) == sweep_table(first.results)
