"""Tier-2 gate over the benchmark trajectory files.

Each pinned benchmark appends a ``BENCH_<name>.json`` entry per run (see
``benchmarks/conftest.py:record_pin``).  This script compares the *latest*
entry of each trajectory against the best prior entry measured under the
same workload context, and fails if the gated metric regressed by more
than 2x.  A trajectory with fewer than two comparable entries passes —
the first run of a fresh cache only seeds the baseline.

Usage::

    python benchmarks/check_trajectory.py [dir]

``dir`` defaults to ``$REPRO_BENCH_DIR`` or the repository root.  Exit
status is 0 when every gated metric is within bounds (or unseeded), 1 on
any regression, so CI can wire it straight into a job step.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

#: Per-trajectory gate: (metric key, allowed latest/best ratio).  Lower is
#: better for every gated metric (they are all wall-clock timings).
GATES = {
    "batch_seeds": ("batched_ms", 2.0),
    "machine_batch": ("batched_ms", 2.0),
    "machine_native": ("native_ms", 2.0),
    "machine_verify_native": ("verify_ms", 2.0),
    "machine_verify_vector": ("verify_ms", 2.0),
    "obs_overhead": ("telemetry_on_s", 2.0),
    "sweep_cache": ("warm_s", 2.0),
    "sweep_throughput": ("warm_s", 2.0),
}

#: Keys that never participate in workload-context matching.
_META_KEYS = {"timestamp", "git_sha"}


def _is_timing_key(key: str) -> bool:
    return (key == "speedup" or key.endswith("_ms") or key.endswith("_s")
            or key.endswith("_ratio"))


def _context(entry: dict) -> tuple:
    """The workload identity of one entry (problem size, grid shape, ...).

    Entries are only comparable when their non-timing, non-metadata keys
    agree — a CI smoke run at ``REPRO_BENCH_N=8`` must not gate against a
    local run at n = 18.
    """
    return tuple(sorted(
        (k, v) for k, v in entry.items()
        if k not in _META_KEYS and not _is_timing_key(k)))


def check_trajectory(path: Path, metric: str, ratio: float) -> str | None:
    """``None`` if the trajectory is healthy, else a failure message."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None                      # raced away — same as absent
    if not text.strip():
        # An empty file is an unseeded trajectory, not corruption: the
        # first pinned run seeds the baseline instead of failing the gate.
        print(f"  {path.name}: empty — first pinned run seeds it")
        return None
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"{path.name}: unreadable trajectory ({exc})"
    if not isinstance(entries, list) or not entries:
        print(f"  {path.name}: no entries — first pinned run seeds it")
        return None
    latest = entries[-1]
    if metric not in latest:
        return f"{path.name}: latest entry lacks gated metric {metric!r}"
    prior = [e for e in entries[:-1]
             if metric in e and _context(e) == _context(latest)]
    if not prior:
        print(f"  {path.name}: seeded baseline "
              f"({metric}={latest[metric]}) — nothing to gate yet")
        return None
    best = min(e[metric] for e in prior)
    current = latest[metric]
    verdict = "OK" if current <= best * ratio else "REGRESSED"
    print(f"  {path.name}: {metric} latest={current} best_prior={best} "
          f"(allowed <= {best * ratio:.4g}) {verdict}")
    if verdict == "REGRESSED":
        return (f"{path.name}: {metric} regressed to {current} "
                f"(best prior {best}, limit {ratio}x)")
    return None


def delta_rows(root: Path) -> list[tuple[str, str, str, str, str]]:
    """One row per (pin, timing metric): newest value, the previous
    comparable entry's value, and the percentage delta."""
    rows: list[tuple[str, str, str, str, str]] = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            entries = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(entries, list) or not entries:
            continue
        latest = entries[-1]
        prior = [e for e in entries[:-1] if _context(e) == _context(latest)]
        previous = prior[-1] if prior else None
        pin = path.name[len("BENCH_"):-len(".json")]
        for key in sorted(latest):
            if not _is_timing_key(key):
                continue
            value = latest[key]
            if not isinstance(value, (int, float)):
                continue
            base = previous.get(key) if previous else None
            if isinstance(base, (int, float)) and base:
                delta = f"{(value - base) / base * 100:+.1f}%"
                base_text = f"{base:g}"
            else:
                delta, base_text = "-", "-"
            rows.append((pin, key, f"{value:g}", base_text, delta))
    return rows


def print_delta_table(root: Path) -> None:
    """The human-readable per-pin delta summary shown on a passing gate."""
    rows = delta_rows(root)
    if not rows:
        return
    headers = ("pin", "metric", "newest", "previous", "delta")
    widths = [max(len(headers[i]), max(len(r[i]) for r in rows))
              for i in range(len(headers))]
    print("\nper-pin trajectory deltas (newest vs previous comparable run):")
    print("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        root = Path(argv[1])
    else:
        root = Path(os.environ.get("REPRO_BENCH_DIR")
                    or Path(__file__).resolve().parent.parent)
    print(f"benchmark trajectory gate over {root}")
    failures = []
    for name, (metric, ratio) in sorted(GATES.items()):
        path = root / f"BENCH_{name}.json"
        if not path.is_file():
            print(f"  BENCH_{name}.json: absent — skipped")
            continue
        message = check_trajectory(path, metric, ratio)
        if message:
            failures.append(message)
    if failures:
        print("\ntrajectory gate FAILED:")
        for message in failures:
            print(f"  {message}")
        return 1
    print_delta_table(root)
    print("trajectory gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
