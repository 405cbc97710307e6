"""Kill-and-resume: a sweep murdered mid-run resumes from its manifest
and produces a report byte-identical to the uninterrupted run."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

from repro.core import SweepSpec, read_manifest, run_sweep
from repro.report import sweep_pareto_table, sweep_table

SPEC = SweepSpec(problems=("dp",), interconnects=("fig1", "fig2"),
                 param_grid=({"n": 5}, {"n": 6}))

#: Script run in a subprocess: starts the sweep with a progress sink that
#: hard-kills the process (os._exit — sinks may not raise their way out)
#: after KILL_AFTER finished jobs.  The manifest keeps what completed.
KILLER = textwrap.dedent("""
    import os, sys
    from repro.core import SweepSpec, run_sweep

    manifest, kill_after = sys.argv[1], int(sys.argv[2])
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

    run_sweep(spec, workers=0, use_cache=False, cross_check=False,
              manifest=manifest, progress=Killer())
    os._exit(0)      # not reached when kill_after < job count
""")


def _killed_run(tmp_path, kill_after: int):
    manifest = tmp_path / "sweep.manifest"
    proc = subprocess.run(
        [sys.executable, "-c", KILLER, str(manifest), str(kill_after)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 9, proc.stderr
    return manifest


class TestKillAndResume:
    def test_resume_skips_completed_and_matches_uninterrupted(
            self, tmp_path):
        manifest = _killed_run(tmp_path, kill_after=2)
        info = read_manifest(manifest)
        assert info["total"] == 4
        assert len(info["completed"]) == 2        # died after two jobs

        resumed = run_sweep(SPEC, workers=0, use_cache=False,
                            cross_check=False, manifest=manifest)
        # Only the two unfinished jobs executed.
        assert resumed.cache_misses == 2
        assert resumed.resumed == 2

        reference = run_sweep(SPEC, workers=0, use_cache=False,
                              cross_check=False)
        assert sweep_table(resumed.results) == \
            sweep_table(reference.results)
        assert sweep_pareto_table(resumed.pareto()) == \
            sweep_pareto_table(reference.pareto())

    def test_resume_through_the_pool_path(self, tmp_path):
        manifest = _killed_run(tmp_path, kill_after=1)
        resumed = run_sweep(SPEC, workers=2, use_cache=False,
                            cross_check=False, manifest=manifest)
        reference = run_sweep(SPEC, workers=0, use_cache=False,
                              cross_check=False)
        assert sweep_table(resumed.results) == \
            sweep_table(reference.results)
        # Everything is journaled now: one more resume runs nothing.
        final = run_sweep(SPEC, workers=2, use_cache=False,
                          cross_check=False, manifest=manifest)
        assert final.cache_misses == 0
        assert sweep_table(final.results) == sweep_table(reference.results)

    def test_killed_manifest_is_well_formed_jsonl(self, tmp_path):
        manifest = _killed_run(tmp_path, kill_after=2)
        lines = manifest.read_text().splitlines()
        parsed = [json.loads(line) for line in lines if line.strip()]
        assert parsed[0]["kind"] == "header"
        assert all(r["kind"] == "done" for r in parsed[1:])
