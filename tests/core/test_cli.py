"""The command-line interface."""

import json

import pytest

from repro.cli import main
from repro.obs import TRACER, load_run_record, read_jsonl
from tests.machine.tiers import tier


class TestSynthesize:
    def test_dp_fig1(self, capsys):
        assert main(["synthesize", "--problem", "dp",
                     "--interconnect", "fig1", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "m1" in out and "cells" in out

    def test_conv_with_verify(self, capsys):
        assert main(["synthesize", "--problem", "conv-backward",
                     "--n", "8", "--s", "3",
                     "--interconnect", "linear", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verification: VerificationReport(OK)" in out
        assert "machine:" in out

    def test_unknown_interconnect(self):
        with pytest.raises(SystemExit):
            main(["synthesize", "--interconnect", "warp-drive"])

    def test_verify_reports_seed(self, capsys):
        assert main(["synthesize", "--problem", "conv-backward",
                     "--n", "8", "--s", "3", "--interconnect", "linear",
                     "--verify", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "verification: VerificationReport(OK)" in out
        assert "(seed=7)" in out

    def test_verify_vector_engine(self, capsys):
        # The native engine's ndarray tier, as on a machine without cc.
        with tier("vector"):
            assert main(["synthesize", "--problem", "dp", "--n", "6",
                         "--interconnect", "fig1", "--verify",
                         "--stats"]) == 0
        out = capsys.readouterr().out
        assert "verification: VerificationReport(OK)" in out
        assert "vector.exec" in out       # kernel stages in the span tree

    def test_verify_vector_multi_seed(self, capsys):
        # All seeds in one batched pass on the native engine's ndarray tier.
        with tier("vector"):
            assert main(["synthesize", "--problem", "dp", "--n", "6",
                         "--interconnect", "fig1", "--verify",
                         "--seed", "3", "--seeds", "8"]) == 0
        out = capsys.readouterr().out
        assert "verification: VerificationReport(OK)" in out
        assert "(seeds=3..10)" in out

    def test_verify_native_engine(self, capsys):
        # Works with or without a C toolchain: the native engine degrades
        # to its ndarray tier, so verification stays OK either way.
        assert main(["synthesize", "--problem", "dp", "--n", "6",
                     "--interconnect", "fig1", "--verify", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "verification: VerificationReport(OK)" in out
        assert "verify.machine" in out    # --stats shows the verify stages


class TestEngineRegistry:
    def test_registry_contains_native(self):
        from repro.machine.engines import ENGINES

        assert ENGINES == ("interpreted", "native")


class TestSweep:
    def test_smoke_grid(self, tmp_path, capsys):
        argv = ["sweep", "--problems", "dp,conv-backward",
                "--interconnects", "fig1,linear", "--n", "6", "--s", "3",
                "--workers", "2", "--cache-dir", str(tmp_path),
                "--json", str(tmp_path / "sweep.json"), "--stats"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "Pareto front" in cold
        assert "NoSpaceMapExists" in cold      # dp on linear is infeasible
        assert "cache: 0 hits, 4 misses" in cold
        assert (tmp_path / "sweep.json").is_file()
        # Warm re-run: all hits, tables byte-identical.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache: 4 hits, 0 misses" in warm
        assert "cross-check: ok" in warm

        def tables(text):
            return [ln for ln in text.splitlines()
                    if ln.startswith(("|", "+"))]

        assert tables(warm) == tables(cold)

    def test_verify_seeds(self, tmp_path, capsys):
        argv = ["sweep", "--problems", "dp", "--interconnects", "fig1",
                "--n", "6", "--workers", "0", "--cache-dir", str(tmp_path),
                "--verify-seeds", "3", "--stats"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "verify: 1 design(s), 3 seeded runs, 0 failure(s)" in cold
        # Cached designs are re-verified on the warm pass too.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "verify: 1 design(s), 3 seeded runs, 0 failure(s)" in warm

    def test_failed_verification_exits_1(self, monkeypatch, capsys):
        from repro.core import batch
        from repro.core.verify import VerificationReport

        def failing_verify(design, inputs, seeds, **kwargs):
            return VerificationReport(
                machine_matches_reference=False, seeds_checked=len(seeds),
                failures=[f"seed {s}: machine != reference" for s in seeds])

        monkeypatch.setattr(batch, "verify_design", failing_verify)
        assert main(["sweep", "--problems", "dp", "--interconnects", "fig1",
                     "--n", "6", "--workers", "0", "--no-cache",
                     "--verify-seeds", "2"]) == 1
        out = capsys.readouterr().out
        assert "verify FAILED: dp(n=6) on fig1-unidirectional: seed 0: " \
            "machine != reference" in out

    def test_cross_check_mismatch_exits_1(self, tmp_path, capsys):
        argv = ["sweep", "--problems", "dp", "--interconnects", "fig1",
                "--n", "6", "--workers", "0", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        (entry,) = tmp_path.glob("??/??/*.json")
        payload = json.loads(entry.read_text())
        payload["design"]["params"]["n"] = 7          # a corrupt entry
        entry.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "cross-check: MISMATCH at dp(n=6) on fig1-unidirectional" in out

    def test_unknown_problem(self):
        with pytest.raises(SystemExit, match="unknown problem"):
            main(["sweep", "--problems", "fft"])

    def test_bad_param_value(self):
        with pytest.raises(SystemExit, match="bad --n/--s"):
            main(["sweep", "--n", "six"])


class TestFuzz:
    def test_short_generate_run(self, tmp_path, capsys):
        assert main(["fuzz", "--examples", "3", "--seed", "5",
                     "--corpus-dir", str(tmp_path / "corpus")]) == 0
        out = capsys.readouterr().out
        assert "fuzz:" in out and "seed 5" in out
        assert "corpus: 0 artifacts" in out   # clean run saves nothing

    def test_replay_empty_corpus(self, tmp_path, capsys):
        assert main(["fuzz", "--replay",
                     "--corpus-dir", str(tmp_path)]) == 0
        assert "no corpus artifacts" in capsys.readouterr().out

    def test_replay_pinned_artifact(self, tmp_path, capsys):
        from repro.fuzz import CaseDescriptor, save_artifact

        desc = CaseDescriptor(
            n=5, lo=1, hi=1, args=((1, (0, 0)), (0, (0, 0))),
            body="min_plus", combine="min", pool=(3, -1),
            interconnect="fig1")
        save_artifact(tmp_path, desc, expect="ok")
        assert main(["fuzz", "--replay", "--corpus-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "replayed 1 artifacts, 0 failing" in out
        # A wrong pin turns into a non-zero exit.
        save_artifact(tmp_path, desc, expect="infeasible")
        assert main(["fuzz", "--replay", "--corpus-dir", str(tmp_path)]) == 1

    def test_replay_with_native_engine(self, tmp_path, capsys):
        # A plain replay cross-checks the native engine's C tier too (its
        # ndarray tier where no C toolchain exists).
        from repro.fuzz import CaseDescriptor, save_artifact

        desc = CaseDescriptor(
            n=5, lo=1, hi=1, args=((1, (0, 0)), (0, (0, 0))),
            body="min_plus", combine="min", pool=(3, -1),
            interconnect="fig1")
        save_artifact(tmp_path, desc, expect="ok")
        assert main(["fuzz", "--replay",
                     "--corpus-dir", str(tmp_path)]) == 0
        assert "replayed 1 artifacts, 0 failing" in capsys.readouterr().out


class TestExplore:
    def test_backward_table(self, capsys):
        assert main(["explore", "--recurrence", "backward",
                     "--n", "10", "--s", "3"]) == 0
        out = capsys.readouterr().out
        assert "W2" in out and "W1" not in out

    def test_forward_table(self, capsys):
        assert main(["explore", "--recurrence", "forward",
                     "--n", "10", "--s", "3"]) == 0
        out = capsys.readouterr().out
        assert "W1" in out and "R2" in out


class TestFigures:
    def test_both_arrays(self, capsys):
        assert main(["figures", "--n", "7"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "fig2" in out and "[" in out


class TestCell:
    def test_cell_timetable(self, capsys):
        assert main(["cell", "--n", "7", "--x", "3", "--y", "2"]) == 0
        out = capsys.readouterr().out
        assert "t=" in out or "idle" in out


class TestProfile:
    def test_exports_and_summary(self, tmp_path, capsys):
        out_base = str(tmp_path / "smoke")
        assert main(["profile", "--problem", "dp", "--interconnect", "fig1",
                     "--n", "7", "--out", out_base]) == 0
        out = capsys.readouterr().out
        assert "per-cell utilization" in out
        assert "events:" in out and "fire=" in out
        assert "verification: VerificationReport(OK)" in out
        jsonl = tmp_path / "smoke.events.jsonl"
        chrome = tmp_path / "smoke.trace.json"
        for path in (jsonl, chrome, tmp_path / "smoke.collapsed",
                     tmp_path / "smoke.profile.json"):
            assert path.stat().st_size > 0, path
        events = read_jsonl(jsonl)
        assert events and {e.kind for e in events} >= {"fire", "hop"}
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"] and doc["displayTimeUnit"] == "ms"
        # Verification always runs, so its spans are always in the profile.
        stacks = (tmp_path / "smoke.collapsed").read_text()
        assert "verify.reference" in stacks and "verify.machine" in stacks

    def test_failed_verification_exits_1(self, tmp_path, capsys,
                                         monkeypatch):
        from repro import cli
        from repro.core.verify import VerificationReport

        def failing_verify(design, inputs, **kwargs):
            return VerificationReport(machine_matches_reference=False,
                                      failures=["machine != reference"])

        monkeypatch.setattr(cli, "verify_design", failing_verify)
        out_base = str(tmp_path / "bad")
        assert main(["profile", "--problem", "dp", "--interconnect", "fig1",
                     "--n", "5", "--out", out_base]) == 1
        out = capsys.readouterr().out
        assert "verification: VerificationReport(FAILED: machine != " \
            "reference)" in out
        # The exports are still written: they are what a failure is
        # debugged from.
        assert (tmp_path / "bad.events.jsonl").stat().st_size > 0

    def test_engines_export_identical_jsonl(self, tmp_path):
        # The exported stream (native engine) is the interpreter's stream.
        from repro.api import resolve_interconnect, synthesize
        from repro.ir import trace_execution
        from repro.machine import compile_design, run
        from repro.obs import EventLog, canonical_order
        from repro.problems import dp_system, random_inputs

        assert main(["profile", "--problem", "dp", "--interconnect", "fig1",
                     "--n", "6", "--out", str(tmp_path / "c")]) == 0
        params = {"n": 6}
        design = synthesize(dp_system(), params, resolve_interconnect("fig1"))
        inputs = random_inputs("dp", params, 0)
        trace = trace_execution(design.system, params, inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        log = EventLog()
        run(mc, trace, inputs, engine="interpreted", sink=log)
        log.events = canonical_order(log.events)
        log.write_jsonl(tmp_path / "i.events.jsonl")
        assert (tmp_path / "c.events.jsonl").read_text() \
            == (tmp_path / "i.events.jsonl").read_text()

    def test_from_record_replay(self, tmp_path, capsys):
        metrics = tmp_path / "metrics"
        assert main(["profile", "--problem", "dp", "--interconnect", "fig1",
                     "--n", "6", "--out", str(tmp_path / "t"),
                     "--stats", "--metrics-dir", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "run record:" in out
        records = list(metrics.glob("run-*.json"))
        assert len(records) == 1
        assert main(["profile", "--from-record", str(records[0]),
                     "--out", str(tmp_path / "replay")]) == 0
        replay = capsys.readouterr().out
        assert "run record: profile" in replay
        assert "cycles" in replay            # machine stats replayed
        assert "verify.machine" in (tmp_path / "replay.collapsed").read_text()

    def test_from_record_bad_file(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit, match="cannot read run record"):
            main(["profile", "--from-record", str(bad)])

    def test_from_record_non_object(self, tmp_path):
        """A record file whose top level is not a JSON object exits with
        a message, not a traceback."""
        bad = tmp_path / "run-list.json"
        bad.write_text("[]")
        with pytest.raises(SystemExit, match="cannot read run record"):
            main(["profile", "--from-record", str(bad)])

    def test_profile_from_sweep_record(self, tmp_path, capsys):
        metrics = tmp_path / "metrics"
        assert main(["sweep", "--problems", "dp", "--interconnects",
                     "fig1", "--n", "5,6", "--workers", "2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--metrics-dir", str(metrics)]) == 0
        (record,) = metrics.glob("run-*-sweep-*.json")
        out = tmp_path / "prof"
        assert main(["profile", "--from-record", str(record),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        folded = (tmp_path / "prof.collapsed").read_text()
        assert "sweep.solve;sweep.job" in folded


class TestStatsAndMetrics:
    def test_stats_report_is_deterministic_and_sorted(self, capsys):
        argv = ["synthesize", "--problem", "dp", "--interconnect", "fig1",
                "--n", "6", "--stats"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out

        def stat_names(text):
            lines = text.split("instrumentation:\n", 1)[1].splitlines()
            counters, timers = [], []
            for line in lines:
                if not line.startswith("  ") or line.startswith("  ("):
                    break
                parts = line.split()
                (timers if parts[-1] == "ms" else counters).append(parts[0])
            return counters, timers

        counters, timers = stat_names(first)
        assert counters and timers
        assert counters == sorted(counters)            # key-sorted sections
        assert timers == sorted(timers)
        assert stat_names(second) == (counters, timers)  # run-to-run stable

    def test_stats_shows_span_tree(self, capsys):
        assert main(["synthesize", "--problem", "dp",
                     "--interconnect", "fig1", "--n", "6", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out

    def test_tracer_disabled_after_run(self, capsys):
        assert main(["synthesize", "--problem", "dp",
                     "--interconnect", "fig1", "--n", "6", "--stats"]) == 0
        capsys.readouterr()
        assert not TRACER.enabled

    def test_sweep_json_round_trips_stats(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        assert main(["sweep", "--problems", "dp", "--interconnects", "fig1",
                     "--n", "6", "--workers", "0",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--json", str(path), "--stats"]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert json.loads(json.dumps(doc)) == doc
        assert doc["results"]

    def test_metrics_dir_writes_record(self, tmp_path, capsys):
        metrics = tmp_path / "metrics"
        assert main(["synthesize", "--problem", "dp",
                     "--interconnect", "fig1", "--n", "6", "--verify",
                     "--metrics-dir", str(metrics)]) == 0
        capsys.readouterr()
        records = list(metrics.glob("run-*.json"))
        assert len(records) == 1
        record = load_run_record(records[0])
        assert record.command == "synthesize"
        assert record.machine_stats and record.machine_stats["cycles"] > 0
        assert record.stats["counters"]
        assert record.spans                  # tree captured for the record

    def test_metrics_env_var_honoured(self, tmp_path, capsys, monkeypatch):
        metrics = tmp_path / "env-metrics"
        monkeypatch.setenv("REPRO_METRICS_DIR", str(metrics))
        assert main(["synthesize", "--problem", "dp",
                     "--interconnect", "fig1", "--n", "6"]) == 0
        capsys.readouterr()
        assert len(list(metrics.glob("run-*.json"))) == 1


class TestCacheCommand:
    def _populate(self, tmp_path):
        assert main(["sweep", "--problems", "dp", "--interconnects",
                     "fig1,fig2", "--n", "5", "--workers", "0",
                     "--no-cross-check", "--cache-dir", str(tmp_path)]) == 0

    def test_info(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 2 (2 ok, 0 negative)" in out
        assert "completion" in out            # the cache-wide Pareto table

    def test_info_reads_each_entry_once(self, tmp_path, capsys,
                                        monkeypatch):
        from repro.core import cache as cache_module

        self._populate(tmp_path)
        reads = []

        def counting_open(path, *args, **kwargs):
            if str(path).endswith(".json"):
                reads.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cache_module, "open", counting_open,
                            raising=False)
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "entries: 2" in capsys.readouterr().out
        assert len(reads) == 2 and len(set(reads)) == 2

    def test_prune_needs_a_limit(self, tmp_path):
        with pytest.raises(SystemExit, match="max-age-days"):
            main(["cache", "prune", "--cache-dir", str(tmp_path)])

    def test_prune_by_age(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-age-days", "0"]) == 0
        out = capsys.readouterr().out
        assert "pruned 2/2 entries" in out
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_clear(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 2 entries" in capsys.readouterr().out
