"""The persistent design cache: payload round-trips and key stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    Design,
    DesignCache,
    SynthesisOptions,
    cache_key,
    synthesize,
)
from repro.arrays import FIG1_UNIDIRECTIONAL, FIG2_EXTENDED, LINEAR_BIDIR
from repro.problems import convolution_backward, dp_system
from repro.report import render_array


class TestDesignRoundTrip:
    def test_dp_round_trip_renders_identically(self, dp_design_fig2):
        payload = json.loads(json.dumps(dp_design_fig2.to_dict()))
        rebuilt = Design.from_dict(payload, dp_design_fig2.system)
        assert render_array(rebuilt) == render_array(dp_design_fig2)

    def test_conv_backward_round_trip_renders_identically(
            self, conv_design_backward):
        payload = json.loads(json.dumps(conv_design_backward.to_dict()))
        rebuilt = Design.from_dict(payload, conv_design_backward.system)
        assert render_array(rebuilt) == render_array(conv_design_backward)
        assert rebuilt.cell_count == conv_design_backward.cell_count
        assert rebuilt.completion_time == conv_design_backward.completion_time


class TestCacheKey:
    def test_stable_across_processes(self):
        """The key must be value-based: a fresh interpreter recomputes
        the identical SHA-256 for the same job."""
        parent = cache_key(dp_system(), {"n": 8}, FIG2_EXTENDED,
                           SynthesisOptions())
        script = (
            "from repro.core import cache_key, SynthesisOptions\n"
            "from repro.arrays import FIG2_EXTENDED\n"
            "from repro.problems import dp_system\n"
            "print(cache_key(dp_system(), {'n': 8}, FIG2_EXTENDED,"
            " SynthesisOptions()))\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert child == parent

    def test_stable_within_process(self):
        a = cache_key(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)
        b = cache_key(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)
        assert a == b

    def test_sensitive_to_link_min_gap(self):
        # Regression: LinkRule.__repr__ omitted min_gap, so two systems
        # differing only in a link's timing slack fingerprinted (and cache-
        # keyed) identically — a cached infeasibility verdict for one could
        # poison the other.  min_gap=0 (A5's intra-cycle read) vs the strict
        # default is exactly the feasibility-affecting bit.
        import dataclasses

        from repro.core import system_fingerprint
        from repro.ir import Equation, LinkRule, Module, RecurrenceSystem

        def with_min_gap(gap):
            base = dp_system()
            modules = []
            for m in base.modules.values():
                equations = []
                for eqn in m.equations.values():
                    rules = tuple(
                        dataclasses.replace(r, min_gap=gap)
                        if isinstance(r, LinkRule) and r.label == "A5" else r
                        for r in eqn.rules)
                    equations.append(Equation(eqn.var, rules, eqn.where))
                modules.append(Module(m.name, m.dims, m.domain, equations))
            return RecurrenceSystem(base.name, modules, base.outputs,
                                    base.input_names, base.params)

        strict, relaxed = with_min_gap(1), with_min_gap(0)
        assert system_fingerprint(strict) != system_fingerprint(relaxed)
        assert (cache_key(strict, {"n": 8}, FIG1_UNIDIRECTIONAL)
                != cache_key(relaxed, {"n": 8}, FIG1_UNIDIRECTIONAL))

    def test_sensitive_to_every_component(self):
        base = cache_key(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL,
                         SynthesisOptions())
        assert cache_key(dp_system(), {"n": 9}, FIG1_UNIDIRECTIONAL,
                         SynthesisOptions()) != base
        assert cache_key(dp_system(), {"n": 8}, FIG2_EXTENDED,
                         SynthesisOptions()) != base
        assert cache_key(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL,
                         SynthesisOptions(time_bound=5)) != base
        assert cache_key(convolution_backward(), {"n": 8, "s": 3},
                         LINEAR_BIDIR) != base


class TestDesignCache:
    def test_put_get_round_trip(self, tmp_path, dp_sys, dp_params,
                                dp_design_fig2):
        cache = DesignCache(tmp_path)
        key = cache_key(dp_sys, dp_params, dp_design_fig2.interconnect)
        assert key not in cache
        cache.put(key, dp_design_fig2, solve_time=0.5)
        assert key in cache and len(cache) == 1
        cached = cache.get(key, dp_sys)
        assert cached is not None
        assert render_array(cached) == render_array(dp_design_fig2)

    def test_miss_and_corrupt_entry(self, tmp_path, dp_sys):
        cache = DesignCache(tmp_path)
        assert cache.load("no-such-key") is None
        path = cache.path_for("broken")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.load("broken") is None
        assert cache.get("broken", dp_sys) is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = DesignCache(tmp_path)
        cache.store("k", {"status": "ok"})
        entry = json.loads(cache.path_for("k").read_text())
        entry["format"] = -1
        cache.path_for("k").write_text(json.dumps(entry))
        assert cache.load("k") is None

    def test_env_var_overrides_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DESIGN_CACHE", str(tmp_path / "envcache"))
        cache = DesignCache()
        assert cache.root == tmp_path / "envcache"

    def test_clear(self, tmp_path, dp_sys, dp_params, dp_design_fig1):
        cache = DesignCache(tmp_path)
        key = cache_key(dp_sys, dp_params, dp_design_fig1.interconnect)
        cache.put(key, dp_design_fig1)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestShardedLayout:
    def test_store_writes_into_shard(self, tmp_path):
        cache = DesignCache(tmp_path)
        cache.store("abcdef0123", {"status": "ok"})
        assert (tmp_path / "ab" / "cd" / "abcdef0123.json").is_file()
        assert not (tmp_path / "abcdef0123.json").exists()
        assert "abcdef0123" in cache

    def test_flat_entry_is_a_miss_and_resynthesized(self, tmp_path):
        """A file left at the pre-shard ``<key>.json`` path is never
        served: the key misses and a sweep re-synthesizes it into its
        shard."""
        from repro.core import SweepSpec, run_sweep

        spec = SweepSpec(problems=("dp",), interconnects=("fig1",),
                         param_grid=({"n": 5},))
        run_sweep(spec, workers=0, cache_dir=tmp_path, cross_check=False)
        (sharded,) = tmp_path.glob("??/??/*.json")
        flat = tmp_path / sharded.name
        sharded.rename(flat)
        cache = DesignCache(tmp_path)
        key = flat.stem
        assert key not in cache
        assert cache.load(key) is None
        again = run_sweep(spec, workers=0, cache_dir=tmp_path,
                          cross_check=False)
        assert again.cache_hits == 0 and again.cache_misses == 1
        assert cache.path_for(key).is_file() and key in cache

    def test_len_counts_entry_files(self, tmp_path):
        cache = DesignCache(tmp_path)
        for i in range(4):
            cache.store(f"ab{i}d{'0' * 6}", {"status": "ok"})
        assert len(cache) == 4
        # A stray JSON file without the format field is not an entry.
        orphan = tmp_path / "zz" / "yy" / "zzyyorphan.json"
        orphan.parent.mkdir(parents=True)
        orphan.write_text("{}")
        assert len(cache) == 4

    def test_scan_skips_torn_entry(self, tmp_path):
        cache = DesignCache(tmp_path)
        cache.store("abcd" + "0" * 6, {"status": "ok"})
        torn = cache.path_for("abce" + "0" * 6)
        torn.parent.mkdir(parents=True, exist_ok=True)
        torn.write_text('{"format": 2, "key": "abce000000", "sta')
        assert len(cache) == 1
        assert [r["key"] for r in cache.entries()] == ["abcd" + "0" * 6]

    def test_entries_read_from_entry_files(self, tmp_path):
        cache = DesignCache(tmp_path)
        key = "abcd" + "0" * 6
        path = cache.store(key, {"status": "ok", "cells": 3,
                                 "completion_time": 5})
        # A metadata journal left at the root by an older layout is
        # not read.
        (tmp_path / "index.jsonl").write_text(
            '{"key":"ffff000000","status":"ok"}\n')
        (entry,) = cache.entries()
        stat = path.stat()
        assert entry == {"key": key, "status": "ok", "cells": 3,
                         "completion_time": 5, "bytes": stat.st_size,
                         "ts": stat.st_mtime}

    def test_pareto_from_entry_scan(self, tmp_path):
        cache = DesignCache(tmp_path)
        cache.store("aaaa" + "0" * 6, {"status": "ok", "cells": 2,
                                       "completion_time": 10})
        cache.store("bbbb" + "0" * 6, {"status": "ok", "cells": 8,
                                       "completion_time": 4})
        cache.store("cccc" + "0" * 6, {"status": "ok", "cells": 9,
                                       "completion_time": 11})  # dominated
        cache.store("dddd" + "0" * 6, {"status": "error"})
        front = cache.pareto(cache.entries())
        assert [r["key"][:4] for r in front] == ["bbbb", "aaaa"]


class TestPrune:
    def test_age_eviction(self, tmp_path):
        cache = DesignCache(tmp_path)
        cache.store("abcd" + "0" * 6, {"status": "ok"})
        report = cache.prune(max_age_days=0)
        assert report.removed == 1 and report.by_reason == {"age": 1}
        assert report.freed_bytes > 0
        assert len(cache) == 0

    def test_size_eviction_is_oldest_first(self, tmp_path):
        import time as _time

        cache = DesignCache(tmp_path)
        cache.store("old0" + "0" * 6, {"status": "ok"})
        _time.sleep(0.02)
        cache.store("new0" + "0" * 6, {"status": "ok"})
        big = sum(e["bytes"] for e in cache.entries())
        report = cache.prune(max_bytes=big - 1)
        assert report.removed == 1 and report.by_reason == {"size": 1}
        assert [e["key"][:4] for e in cache.entries()] == ["new0"]

    def test_prune_counts_unremovable_entries(self, tmp_path, monkeypatch):
        cache = DesignCache(tmp_path)
        key = "abcd" + "0" * 6
        doomed = cache.store(key, {"status": "ok"})
        unlink = Path.unlink

        def refuse(path, *args, **kwargs):
            if path == doomed:
                raise PermissionError(path)
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", refuse)
        report = cache.prune(max_age_days=0)
        assert report.removed == 0 and report.failed == 1
        assert "1 failed" in str(report)

    def test_prune_without_limits_is_a_noop(self, tmp_path):
        cache = DesignCache(tmp_path)
        cache.store("abcd" + "0" * 6, {"status": "ok"})
        report = cache.prune()
        assert report.examined == 1 and report.removed == 0
        assert len(cache) == 1

    def test_eviction_counters(self, tmp_path):
        from repro.obs import TRACER

        cache = DesignCache(tmp_path)
        cache.store("abcd" + "0" * 6, {"status": "ok"})
        before = TRACER.counters.get("cache.evictions", 0)
        cache.prune(max_age_days=0)
        assert TRACER.counters.get("cache.evictions", 0) == before + 1


#: A writer killed between ``mkstemp`` and ``os.replace``: it leaves its
#: temp file in the shard and exits with status 9.
KILLED_WRITER = (
    "import os, sys\n"
    "from repro.core import DesignCache\n"
    "os.replace = lambda *args: os._exit(9)\n"
    "DesignCache(sys.argv[1]).store(sys.argv[2], {'status': 'ok'})\n")


class TestOrphanedTempFiles:
    KEY = "abcd" + "0" * 6

    def _killed_store(self, root):
        src = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", KILLED_WRITER, str(root), self.KEY],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 9, proc.stderr
        assert len(list(root.glob("ab/cd/*.tmp"))) == 1

    def test_clear_removes_orphans(self, tmp_path):
        self._killed_store(tmp_path)
        cache = DesignCache(tmp_path)
        assert cache.clear() == 0
        assert not list(tmp_path.glob("ab/cd/*.tmp"))

    def test_prune_removes_orphans(self, tmp_path):
        self._killed_store(tmp_path)
        cache = DesignCache(tmp_path)
        cache.store("abcd" + "1" * 6, {"status": "ok"})
        report = cache.prune(max_bytes=0)
        assert report.removed == 1
        assert not list(tmp_path.glob("ab/cd/*.tmp"))


def _store_keys(root, keys, writer, start):
    """One concurrent writer: wait for the shared start, then store."""
    start.wait()
    cache = DesignCache(root)
    for key in keys:
        cache.store(key, {"status": "ok", "cells": 1, "completion_time": 1,
                          "writer": writer})


class TestConcurrentWriters:
    def test_two_processes_share_one_shard(self, tmp_path):
        """Two processes store interleaved keys of one shard, one key from
        both: the per-shard lock and atomic replace keep every entry
        whole."""
        import multiprocessing

        shared = "abcd" + "shared"
        keys = {w: [f"abcd{w}{i:04d}" for i in range(200)] for w in "xy"}
        for w in "xy":
            keys[w].insert(100, shared)
        start = multiprocessing.Barrier(2)
        procs = [multiprocessing.Process(target=_store_keys,
                                         args=(str(tmp_path), keys[w], w,
                                               start))
                 for w in "xy"]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert [proc.exitcode for proc in procs] == [0, 0]

        cache = DesignCache(tmp_path)
        distinct = set(keys["x"]) | set(keys["y"])
        for key in distinct:
            payload = cache.load(key)
            assert payload is not None and payload["key"] == key
            assert payload["status"] == "ok"
        assert cache.load(shared)["writer"] in ("x", "y")
        assert {r["key"] for r in cache.entries()} == distinct
        assert len(cache) == len(distinct)
        assert not list(tmp_path.glob("ab/cd/*.tmp"))
