"""Aggregate analytics over persisted run records: ``repro report``.

A sweep campaign leaves hundreds of :class:`~repro.obs.metrics.RunRecord`
files behind (one per CLI invocation, each carrying per-job wall times,
the tracer's counters and timers, and the span trees, worker jobs'
included).  This module turns one or more of those stores into the
operator's questions:

* **latency** — per-problem wall-time tables (count, p50, p95, max),
  built from the per-job samples ``repro sweep`` stashes in
  ``extra["jobs"]`` and the single-design samples of
  ``synthesize``/``profile`` runs (``extra["workload"]``);
* **cache** — hit/miss/negative-rate tables per cache family (design
  cache, native artifact cache, point-set cache), summed over every
  record's counters;
* **stages** — exact latency distributions of the traced stages, one
  sample per span of every record's span trees (a span nested under a
  span of its own name is part of that outer sample, not a sample of its
  own), so a report over N records equals one record over the union of
  their runs;
* **delta** — the same latency table diffed against a *baseline*: either
  a second record store (directory) or a ``BENCH_<name>.json`` trajectory
  file from the benchmark harness, in which case the newest entry is
  diffed against the entry before it.

Everything renders through :func:`repro.report.tables.format_grid`, the
house table style, and everything has a JSON-ready dict form for
``repro report --json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.obs.metrics import RunRecord, list_run_records, load_run_record
from repro.report.tables import format_grid

#: Counter-name prefixes of each cache family shown by the cache table:
#: ``(family, hits name, misses name, negative-hits name)``.
CACHE_FAMILIES: tuple[tuple[str, str, str, str], ...] = (
    ("design", "cache.hits", "cache.misses", "cache.negative_hits"),
    ("native", "native.cache_hits", "native.cache_misses",
     "native.negative_hits"),
    ("points", "points.cache_hit", "points.cache_miss", ""),
)


def _percentile(sorted_values: Sequence[float], q: float,
                ) -> "float | None":
    """The q-th percentile (0..100) of an ascending sequence, by linear
    interpolation; ``None`` on an empty sequence."""
    if not sorted_values:
        return None
    rank = (len(sorted_values) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def load_records(sources: Iterable["str | os.PathLike"],
                 ) -> list[RunRecord]:
    """Load every readable record of ``sources`` (directories of records,
    or individual record files).  Unreadable files are skipped — a store
    being written to while the report runs must not kill the report."""
    records: list[RunRecord] = []
    for source in sources:
        path = Path(source)
        paths = list_run_records(path) if path.is_dir() else [path]
        for p in paths:
            try:
                records.append(load_run_record(p))
            except (OSError, ValueError, KeyError, json.JSONDecodeError):
                continue
    return records


# -- latency -------------------------------------------------------------------

def job_samples(records: Sequence[RunRecord]) -> dict[str, list[float]]:
    """Wall-time samples in seconds, grouped by problem.

    A sweep record contributes one sample per job (``extra["jobs"]``); a
    ``synthesize``/``profile`` record contributes its own wall time under
    the workload it declared (``extra["workload"]``).  Older records also
    name an ``engine`` there; it is ignored.
    """
    groups: dict[str, list[float]] = {}
    for rec in records:
        jobs = rec.extra.get("jobs")
        if jobs:
            for job in jobs:
                groups.setdefault(str(job.get("problem", "?")), []).append(
                    float(job.get("wall_time", 0.0)))
            continue
        workload = rec.extra.get("workload")
        if workload:
            groups.setdefault(str(workload.get("problem", "?")),
                              []).append(float(rec.wall_time))
    return groups


def _ms(value: "float | None") -> str:
    return f"{value * 1000:.1f}" if value is not None else "-"


def latency_dict(records: Sequence[RunRecord]) -> list[dict]:
    out = []
    for problem, samples in sorted(job_samples(records).items()):
        samples = sorted(samples)
        out.append({
            "problem": problem, "count": len(samples),
            "p50_s": _percentile(samples, 50),
            "p95_s": _percentile(samples, 95),
            "max_s": samples[-1] if samples else None,
        })
    return out


def latency_table(records: Sequence[RunRecord], title: str = "") -> str:
    """The per-problem wall-time table (count / p50 / p95 / max)."""
    entries = latency_dict(records)
    if not entries:
        body = "(no latency samples in these records)"
        return f"{title}\n{body}" if title else body
    rows = [[e["problem"], str(e["count"]), _ms(e["p50_s"]),
             _ms(e["p95_s"]), _ms(e["max_s"])] for e in entries]
    table = format_grid(
        ["problem", "jobs", "p50 ms", "p95 ms", "max ms"], rows)
    return f"{title}\n{table}" if title else table


# -- caches --------------------------------------------------------------------

def summed_counters(records: Sequence[RunRecord]) -> dict[str, int]:
    """Every record's flat counters, summed."""
    totals: dict[str, int] = {}
    for rec in records:
        for name, value in rec.stats.get("counters", {}).items():
            totals[name] = totals.get(name, 0) + int(value)
    return totals


def cache_dict(records: Sequence[RunRecord]) -> list[dict]:
    totals = summed_counters(records)
    out = []
    for family, hits_name, misses_name, negative_name in CACHE_FAMILIES:
        hits = totals.get(hits_name, 0)
        misses = totals.get(misses_name, 0)
        if hits == 0 and misses == 0:
            continue
        looked = hits + misses
        out.append({
            "family": family, "hits": hits, "misses": misses,
            "negative_hits": totals.get(negative_name, 0),
            "hit_rate": hits / looked if looked else None,
        })
    return out


def cache_table(records: Sequence[RunRecord], title: str = "") -> str:
    """Hit/miss/negative totals and hit-rate per cache family."""
    entries = cache_dict(records)
    if not entries:
        body = "(no cache activity in these records)"
        return f"{title}\n{body}" if title else body
    rows = [[e["family"], str(e["hits"]), str(e["misses"]),
             str(e["negative_hits"]),
             f"{e['hit_rate']:.0%}" if e["hit_rate"] is not None else "-"]
            for e in entries]
    table = format_grid(
        ["cache", "hits", "misses", "negative", "hit rate"], rows)
    return f"{title}\n{table}" if title else table


# -- stages (span trees) -------------------------------------------------------

def stage_samples(records: Sequence[RunRecord]) -> dict[str, list[float]]:
    """Span durations in seconds, grouped by stage name, over every
    record's span trees.

    A span whose name is already open among its ancestors is skipped: a
    stage that re-enters itself counts once, for its outermost frame —
    the rule the tracer's flat timers follow.
    """
    samples: dict[str, list[float]] = {}
    open_names: set[str] = set()

    def walk(node: Mapping) -> None:
        name = node["name"]
        outermost = name not in open_names
        if outermost:
            samples.setdefault(name, []).append(
                node.get("duration_ms", 0.0) / 1000)
            open_names.add(name)
        for child in node.get("children", ()):
            walk(child)
        if outermost:
            open_names.discard(name)

    for rec in records:
        for root in rec.spans:
            walk(root)
    return samples


def stage_dict(records: Sequence[RunRecord]) -> list[dict]:
    out = []
    for name, samples in sorted(stage_samples(records).items()):
        samples = sorted(samples)
        out.append({
            "stage": name, "count": len(samples),
            "mean": sum(samples) / len(samples),
            "min": samples[0], "max": samples[-1],
            **{f"p{q}": _percentile(samples, q) for q in (50, 90, 95, 99)},
        })
    return out


def stage_table(records: Sequence[RunRecord], title: str = "") -> str:
    """Latency distribution per traced stage, from the span trees."""
    entries = stage_dict(records)
    if not entries:
        body = "(no traced spans in these records)"
        return f"{title}\n{body}" if title else body
    rows = [[e["stage"], str(e["count"]), _ms(e["mean"]),
             _ms(e["p50"]), _ms(e["p95"]), _ms(e["max"])]
            for e in entries]
    table = format_grid(
        ["stage", "n", "mean ms", "p50 ms", "p95 ms", "max ms"], rows)
    return f"{title}\n{table}" if title else table


# -- deltas --------------------------------------------------------------------

def _pct(current: float, base: float) -> str:
    if base == 0:
        return "-"
    delta = (current - base) / base * 100.0
    return f"{delta:+.1f}%"


def delta_records_dict(records: Sequence[RunRecord],
                       baseline: Sequence[RunRecord]) -> list[dict]:
    current = {e["problem"]: e for e in latency_dict(records)}
    base = {e["problem"]: e for e in latency_dict(baseline)}
    out = []
    for problem in sorted(set(current) | set(base)):
        cur, ref = current.get(problem), base.get(problem)
        out.append({
            "problem": problem,
            "p50_s": cur["p50_s"] if cur else None,
            "baseline_p50_s": ref["p50_s"] if ref else None,
        })
    return out


def delta_records_table(records: Sequence[RunRecord],
                        baseline: Sequence[RunRecord],
                        title: str = "") -> str:
    """Current vs. baseline record-set p50 per problem."""
    entries = delta_records_dict(records, baseline)
    if not entries:
        body = "(nothing to compare)"
        return f"{title}\n{body}" if title else body
    rows = []
    for e in entries:
        cur, ref = e["p50_s"], e["baseline_p50_s"]
        delta = _pct(cur, ref) if cur is not None and ref is not None \
            else "-"
        rows.append([e["problem"], _ms(cur), _ms(ref), delta])
    table = format_grid(
        ["problem", "p50 ms", "baseline p50 ms", "delta"], rows)
    return f"{title}\n{table}" if title else table


def bench_delta_dict(path: "str | os.PathLike") -> list[dict]:
    """Newest vs. previous entry of one ``BENCH_<name>.json`` trajectory.

    Only numeric metrics are compared; context keys (git sha, timestamp,
    workload sizes that did not change) pass through unchanged.
    """
    with open(path, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list) or not entries:
        return []
    newest = entries[-1]
    previous = entries[-2] if len(entries) > 1 else {}
    out = []
    for name in sorted(newest):
        value = newest[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        base = previous.get(name)
        if not isinstance(base, (int, float)) or isinstance(base, bool):
            base = None
        out.append({"metric": name, "value": value, "previous": base})
    return out


def bench_delta_table(path: "str | os.PathLike", title: str = "") -> str:
    entries = bench_delta_dict(path)
    if not entries:
        body = f"(no entries in {Path(path).name})"
        return f"{title}\n{body}" if title else body
    rows = []
    for e in entries:
        base = e["previous"]
        rows.append([
            e["metric"], f"{e['value']:g}",
            f"{base:g}" if base is not None else "-",
            _pct(e["value"], base) if base is not None else "-",
        ])
    table = format_grid(["metric", "newest", "previous", "delta"], rows)
    return f"{title}\n{table}" if title else table


# -- the whole report ----------------------------------------------------------

def report_dict(records: Sequence[RunRecord],
                baseline: "str | os.PathLike | None" = None) -> dict:
    """The JSON form of :func:`render_report` (``repro report --json``)."""
    out: dict = {
        "records": len(records),
        "latency": latency_dict(records),
        "caches": cache_dict(records),
        "stages": stage_dict(records),
    }
    if baseline is not None:
        path = Path(baseline)
        if path.is_dir():
            out["delta"] = delta_records_dict(records, load_records([path]))
        else:
            out["bench_delta"] = bench_delta_dict(path)
    return out


def render_report(records: Sequence[RunRecord],
                  baseline: "str | os.PathLike | None" = None) -> str:
    """The full ``repro report`` text: latency, caches, stages, delta."""
    blocks = [
        f"report over {len(records)} run record(s)",
        latency_table(records, "latency by problem"),
        cache_table(records, "cache effectiveness"),
        stage_table(records, "stage latency (merged telemetry)"),
    ]
    if baseline is not None:
        path = Path(baseline)
        if path.is_dir():
            blocks.append(delta_records_table(
                records, load_records([path]),
                f"delta vs baseline records ({path})"))
        else:
            blocks.append(bench_delta_table(
                path, f"trajectory delta ({path})"))
    return "\n\n".join(blocks)
