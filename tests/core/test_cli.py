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
        assert "(seed=7, engine=native)" in out

    def test_verify_interpreted_engine(self, capsys):
        assert main(["synthesize", "--problem", "conv-backward",
                     "--n", "8", "--s", "3", "--interconnect", "linear",
                     "--verify", "--engine", "interpreted", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "verification: VerificationReport(OK)" in out
        assert "engine=interpreted" in out
        assert "verify.machine" in out    # --stats shows the verify stages

    def test_verify_vector_engine(self, capsys):
        # The native engine's ndarray tier, as on a machine without cc.
        with tier("vector"):
            assert main(["synthesize", "--problem", "dp", "--n", "6",
                         "--interconnect", "fig1", "--verify",
                         "--stats"]) == 0
        out = capsys.readouterr().out
        assert "verification: VerificationReport(OK)" in out
        assert "engine=native" in out
        assert "vector.exec" in out       # kernel stages in the span tree

    def test_verify_vector_multi_seed(self, capsys):
        # The retired name still parses: it runs native, with a warning.
        with pytest.warns(DeprecationWarning, match="'vector' is retired"):
            assert main(["synthesize", "--problem", "dp", "--n", "6",
                         "--interconnect", "fig1", "--verify",
                         "--engine", "vector", "--seed", "3",
                         "--seeds", "8"]) == 0
        out = capsys.readouterr().out
        assert "verification: VerificationReport(OK)" in out
        assert "(seeds=3..10, engine=native)" in out

    def test_verify_native_engine(self, capsys):
        # Works with or without a C toolchain: the native engine degrades
        # to its ndarray tier, so verification stays OK either way.
        assert main(["synthesize", "--problem", "dp", "--n", "6",
                     "--interconnect", "fig1",
                     "--verify", "--engine", "native", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "verification: VerificationReport(OK)" in out
        assert "engine=native" in out


class TestEngineRegistry:
    def test_cli_choices_follow_the_registry(self):
        # Satellite contract: every --engine flag derives its choices from
        # the Engine registry, so a new engine appears everywhere at once.
        import argparse

        from repro.cli import build_parser
        from repro.machine.engines import ENGINES

        found = []
        subparser_actions = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
        for sub in subparser_actions:
            for name, parser in sub.choices.items():
                for action in parser._actions:
                    if "--engine" in action.option_strings:
                        assert tuple(action.choices) == ENGINES, name
                        found.append(name)
        assert sorted(set(found)) == ["profile", "sweep", "synthesize",
                                      "trace"]

    def test_registry_contains_native(self):
        from repro.machine.engines import ENGINE_HELP, ENGINES

        assert ENGINES == ("interpreted", "native")
        assert all(f"'{name}'" in ENGINE_HELP for name in ENGINES)


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
                "--n", "6", "--serial", "--cache-dir", str(tmp_path),
                "--verify-seeds", "3", "--stats"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "verify: 1 design(s), 3 seeded runs, 0 failure(s)" in cold
        # Cached designs are re-verified on the warm pass too.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "verify: 1 design(s), 3 seeded runs, 0 failure(s)" in warm

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
        from repro.fuzz import CaseDescriptor, save_artifact

        desc = CaseDescriptor(
            n=5, lo=1, hi=1, args=((1, (0, 0)), (0, (0, 0))),
            body="min_plus", combine="min", pool=(3, -1),
            interconnect="fig1")
        save_artifact(tmp_path, desc, expect="ok")
        assert main(["fuzz", "--replay", "--native",
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


class TestTrace:
    def test_exports_and_summary(self, tmp_path, capsys):
        out_base = str(tmp_path / "smoke")
        assert main(["trace", "--problem", "dp", "--interconnect", "fig1",
                     "--n", "7", "--out", out_base]) == 0
        out = capsys.readouterr().out
        assert "per-cell utilization" in out
        assert "events:" in out and "fire=" in out
        jsonl = tmp_path / "smoke.events.jsonl"
        chrome = tmp_path / "smoke.trace.json"
        assert jsonl.is_file() and chrome.is_file()
        events = read_jsonl(jsonl)
        assert events and {e.kind for e in events} >= {"fire", "hop"}
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"] and doc["displayTimeUnit"] == "ms"

    def test_engines_export_identical_jsonl(self, tmp_path):
        argv = ["trace", "--problem", "dp", "--interconnect", "fig1",
                "--n", "6"]
        assert main(argv + ["--engine", "native",
                            "--out", str(tmp_path / "c")]) == 0
        assert main(argv + ["--engine", "interpreted",
                            "--out", str(tmp_path / "i")]) == 0
        assert (tmp_path / "c.events.jsonl").read_text() \
            == (tmp_path / "i.events.jsonl").read_text()

    def test_from_record_replay(self, tmp_path, capsys):
        metrics = tmp_path / "metrics"
        assert main(["trace", "--problem", "dp", "--interconnect", "fig1",
                     "--n", "6", "--out", str(tmp_path / "t"),
                     "--stats", "--metrics-dir", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "run record:" in out
        records = list(metrics.glob("run-*.json"))
        assert len(records) == 1
        assert main(["trace", "--from-record", str(records[0])]) == 0
        replay = capsys.readouterr().out
        assert "run record: trace" in replay
        assert "cycles" in replay            # machine stats replayed

    def test_from_record_bad_file(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit, match="cannot read run record"):
            main(["trace", "--from-record", str(bad)])


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


class TestSweepManifest:
    def test_manifest_resume_via_cli(self, tmp_path, capsys):
        manifest = tmp_path / "sweep.manifest"
        argv = ["sweep", "--problems", "dp", "--interconnects", "fig1,fig2",
                "--n", "5,6", "--serial", "--no-cache", "--no-cross-check",
                "--manifest", str(manifest)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "4/4 journaled, 0 restored this run" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "4/4 journaled, 4 restored this run" in warm

        def tables(text):
            return [ln for ln in text.splitlines()
                    if ln.startswith(("|", "+"))]

        assert tables(warm) == tables(cold)


class TestCacheCommand:
    def _populate(self, tmp_path):
        assert main(["sweep", "--problems", "dp", "--interconnects",
                     "fig1,fig2", "--n", "5", "--serial",
                     "--no-cross-check", "--cache-dir", str(tmp_path)]) == 0

    def test_info(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 2 (2 ok, 0 negative)" in out
        assert "completion" in out            # the cache-wide Pareto table

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

    def test_migrate_and_clear(self, tmp_path, capsys):
        self._populate(tmp_path)
        # Flatten the shards to simulate a legacy cache, then migrate.
        for path in list(tmp_path.glob("??/??/*.json")):
            path.rename(tmp_path / path.name)
        capsys.readouterr()
        assert main(["cache", "migrate", "--cache-dir", str(tmp_path)]) == 0
        assert "migrated 2 flat entries" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.json"))
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 2 entries" in capsys.readouterr().out
