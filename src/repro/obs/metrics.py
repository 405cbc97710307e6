"""Persistent run metrics: every CLI run can leave a structured record.

A :class:`RunRecord` captures what a ``synthesize`` / ``sweep`` / ``profile``
invocation did — command, arguments, git revision, the tracer's counters
and timers (exactly as :meth:`~repro.obs.tracer.Tracer.snapshot` gives
them) *and* its span tree, machine statistics when a design was
executed — as one JSON file
under the metrics directory (``$REPRO_METRICS_DIR``; recording is off
when the variable is unset and no explicit directory is given).
Records accumulate across runs, so the performance trajectory of the
engine is inspectable long after the individual runs:

* ``repro profile --from-record <file>`` replays a record (span tree,
  counters, machine stats) in the terminal and re-exports its span tree;
* the benchmark harness keeps its own append-only ``BENCH_<name>.json``
  trajectory next to the repository root (see ``benchmarks/conftest.py``),
  built from the same primitives.

File naming is collision-free across concurrent processes
(timestamp + pid + sequence number) and writes are atomic, mirroring the
design cache's discipline.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.tracer import Span, render_spans

#: Environment variable naming the metrics directory.
METRICS_ENV_VAR = "REPRO_METRICS_DIR"

#: Bump on incompatible RunRecord layout changes.
#: v2: ``stats`` holds the whole tracer snapshot; ``extra["telemetry"]``
#: is gone.  Older v2 records carry two more ``stats`` keys (last values
#: and per-stage distributions), which nothing reads.
RECORD_FORMAT_VERSION = 2

_sequence = 0


def metrics_dir(override: "str | os.PathLike | None" = None) -> Path | None:
    """The metrics directory, or ``None`` when recording is disabled."""
    if override is not None:
        return Path(override)
    env = os.environ.get(METRICS_ENV_VAR)
    return Path(env) if env else None


#: Memo for the subprocess-resolved revision: ``False`` = not resolved
#: yet, otherwise the cached ``str | None`` result.  Environment
#: overrides are deliberately *not* memoized (they are cheap and tests /
#: CI mutate them); only the ``git rev-parse`` subprocess is.
_git_sha_cache: "str | None | bool" = False


def _resolve_git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=5, cwd=Path(__file__).resolve().parent)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def git_sha() -> str | None:
    """The current git revision, or ``None`` outside a checkout.

    ``REPRO_GIT_SHA`` (explicit override for CI / hermetic builds) wins,
    then ``GITHUB_SHA`` (set on runners even for shallow operations) —
    both keep record-writing subprocess-free.  Otherwise ``git rev-parse``
    runs **once per process** and the answer is memoized: a sweep that
    writes hundreds of RunRecords must not fork git per write.
    """
    env = os.environ.get("REPRO_GIT_SHA") or os.environ.get("GITHUB_SHA")
    if env:
        return env
    global _git_sha_cache
    if _git_sha_cache is False:
        _git_sha_cache = _resolve_git_sha()
    return _git_sha_cache


@dataclass
class RunRecord:
    """One recorded run of the engine."""

    command: str
    argv: list[str] = field(default_factory=list)
    started_at: str = ""                     # ISO-8601, UTC
    wall_time: float = 0.0
    git_sha: str | None = None
    stats: dict = field(default_factory=dict)     # Tracer.snapshot()
    spans: list[dict] = field(default_factory=list)
    machine_stats: dict | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "format": RECORD_FORMAT_VERSION,
            "command": self.command,
            "argv": list(self.argv),
            "started_at": self.started_at,
            "wall_time": self.wall_time,
            "git_sha": self.git_sha,
            "stats": self.stats,
            "spans": self.spans,
            "machine_stats": self.machine_stats,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        if not isinstance(data, dict):
            raise ValueError(f"a run record is a JSON object, not "
                             f"{type(data).__name__}")
        if data.get("format") != RECORD_FORMAT_VERSION:
            raise ValueError(
                f"unsupported run-record format {data.get('format')!r} "
                f"(expected {RECORD_FORMAT_VERSION})")
        return cls(command=data["command"], argv=list(data.get("argv", ())),
                   started_at=data.get("started_at", ""),
                   wall_time=data.get("wall_time", 0.0),
                   git_sha=data.get("git_sha"),
                   stats=dict(data.get("stats", {})),
                   spans=list(data.get("spans", ())),
                   machine_stats=data.get("machine_stats"),
                   extra=dict(data.get("extra", {})))

    def render(self) -> str:
        """Terminal replay of the record (used by ``repro profile
        --from-record``)."""
        lines = [f"run record: {self.command} "
                 f"({self.started_at or 'unknown time'})"]
        if self.argv:
            lines.append(f"  argv: {' '.join(self.argv)}")
        if self.git_sha:
            lines.append(f"  git:  {self.git_sha}")
        lines.append(f"  wall: {self.wall_time * 1000:.1f} ms")
        for section in ("counters", "timers"):
            entries = self.stats.get(section, {})
            for name in sorted(entries):
                value = entries[name]
                shown = (f"{value * 1000:.1f} ms" if section == "timers"
                         else value)
                lines.append(f"  {name:<40} {shown}")
        if self.machine_stats:
            lines.append("machine:")
            for name in sorted(self.machine_stats):
                lines.append(f"  {name:<40} {self.machine_stats[name]}")
        if self.spans:
            lines.append("spans:")
            lines.append(render_spans(
                [Span.from_dict(s) for s in self.spans], indent="  "))
        return "\n".join(lines)


def write_run_record(record: RunRecord,
                     root: "str | os.PathLike | None" = None) -> Path | None:
    """Atomically persist ``record``; returns the path, or ``None`` when no
    metrics directory is configured."""
    global _sequence
    directory = metrics_dir(root)
    if directory is None:
        return None
    directory.mkdir(parents=True, exist_ok=True)
    _sequence += 1
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"run-{stamp}-{record.command}-{os.getpid()}-{_sequence}.json"
    path = directory / name
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record.to_dict(), fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return path


def load_run_record(path: "str | os.PathLike") -> RunRecord:
    """Load a :class:`RunRecord` previously written as JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        return RunRecord.from_dict(json.load(fh))


def list_run_records(root: "str | os.PathLike | None" = None) -> list[Path]:
    """Record files in the metrics directory, oldest first."""
    directory = metrics_dir(root)
    if directory is None or not directory.is_dir():
        return []
    return sorted(directory.glob("run-*.json"))
