"""Smoke test of the end-to-end benchmark: every workload's code on a
3-case subset, with the output schema checked against BENCHMARK.json.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--cases", "3", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = _result(_run(ROOT, workload, 0))
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_trace_files(workload, tmp_path):
    out = _result(_run(ROOT, workload, 1, "--trace-dir", str(tmp_path)))
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    for name, m in out["metrics"].items():
        if m["unit"] in ("s", "ms", "us"):
            assert m["value"] > 0, name
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert {"pass.schedule", "verify", "problems.build"} <= {
        s["name"] for s in spans}
    assert all(s["trace"] for s in spans)
    chrome = json.loads((tmp_path / "trace.json").read_text())
    assert len(chrome["traceEvents"]) == len(spans)
    assert "per_layer" in json.loads((tmp_path / "layers.json").read_text())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "design_cold", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
