"""Kill-and-resume: a sweep murdered mid-run, re-run against the same
design cache, executes only its unfinished jobs and produces a report
byte-identical to the uninterrupted run."""

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

from repro.core import DesignCache, SweepSpec, run_sweep
from repro.report import sweep_pareto_table, sweep_table

SPEC = SweepSpec(problems=("dp",), interconnects=("fig1", "fig2"),
                 param_grid=({"n": 5}, {"n": 6}))

#: Script run in a subprocess: starts the sweep with a progress sink that
#: hard-kills the process (os._exit — sinks may not raise their way out)
#: after KILL_AFTER finished jobs.  The design cache keeps what completed.
#: ``same-key`` runs two jobs that differ only in ``verify_seeds`` and so
#: share one cache key.
KILLER = textwrap.dedent("""
    import dataclasses, os, sys
    from repro.core import SweepSpec, run_sweep

    cache_dir, kill_after, grid = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    if grid == "same-key":
        job, = SweepSpec(problems=("dp",), interconnects=("fig1",),
                         param_grid=({"n": 5},)).jobs()
        spec = [job, dataclasses.replace(job, verify_seeds=1)]
    else:
        spec = SweepSpec(problems=("dp",), interconnects=("fig1", "fig2"),
                         param_grid=({"n": 5}, {"n": 6}))

    class Killer:
        jobs = 0
        def emit(self, event):
            if event.kind != "job":
                return
            Killer.jobs += 1
            if Killer.jobs >= kill_after:
                os._exit(9)

    run_sweep(spec, workers=0, cache_dir=cache_dir, cross_check=False,
              progress=Killer())
    os._exit(0)      # not reached when kill_after < job count
""")


def _killed_run(tmp_path, kill_after: int, grid: str = "spec") -> Path:
    cache_dir = tmp_path / "cache"
    proc = subprocess.run(
        [sys.executable, "-c", KILLER, str(cache_dir), str(kill_after),
         grid],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 9, proc.stderr
    return cache_dir


def _uninterrupted():
    return run_sweep(SPEC, workers=0, use_cache=False, cross_check=False)


class TestKillAndResume:
    def test_resume_skips_completed_and_matches_uninterrupted(
            self, tmp_path):
        cache_dir = _killed_run(tmp_path, kill_after=2)
        resumed = run_sweep(SPEC, workers=0, cache_dir=cache_dir,
                            cross_check=False)
        # The two finished jobs hit; only the two unfinished ones executed.
        assert resumed.cache_hits == 2
        assert resumed.cache_misses == 2

        reference = _uninterrupted()
        assert sweep_table(resumed.results) == \
            sweep_table(reference.results)
        assert sweep_pareto_table(resumed.pareto()) == \
            sweep_pareto_table(reference.pareto())

    def test_resume_through_the_pool_path(self, tmp_path):
        cache_dir = _killed_run(tmp_path, kill_after=1)
        resumed = run_sweep(SPEC, workers=2, cache_dir=cache_dir,
                            cross_check=False)
        assert resumed.cache_hits == 1 and resumed.cache_misses == 3
        reference = _uninterrupted()
        assert sweep_table(resumed.results) == \
            sweep_table(reference.results)
        # Everything is cached now: one more re-run executes nothing.
        final = run_sweep(SPEC, workers=2, cache_dir=cache_dir,
                          cross_check=False)
        assert final.cache_misses == 0
        assert sweep_table(final.results) == sweep_table(reference.results)

    def test_killed_sweep_leaves_whole_entries(self, tmp_path):
        cache = DesignCache(_killed_run(tmp_path, kill_after=2))
        entries = cache.entries()
        assert len(entries) == 2
        assert all(cache.load(e["key"]) is not None for e in entries)
        assert not list(cache.root.glob("??/??/*.tmp"))

    def test_same_key_jobs_each_keep_a_result(self, tmp_path):
        """Jobs differing only in ``verify_seeds`` share a cache key: after
        a kill between them, the re-run serves both from the one entry."""
        cache_dir = _killed_run(tmp_path, kill_after=1, grid="same-key")
        job, = SweepSpec(problems=("dp",), interconnects=("fig1",),
                         param_grid=({"n": 5},)).jobs()
        jobs = [job, dataclasses.replace(job, verify_seeds=1)]
        report = run_sweep(jobs, workers=0, cache_dir=cache_dir,
                           cross_check=False)
        assert len(report.results) == 2
        assert report.cache_hits == 2 and report.cache_misses == 0
        assert all(r.ok for r in report.results)
        assert sorted(r.verify_seeds for r in report.results) == [0, 1]
        assert all(r.verified is not False for r in report.results)
