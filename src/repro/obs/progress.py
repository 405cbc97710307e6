"""Live sweep progress: structured events, CLI rendering, JSONL heartbeat.

A million-design sweep is only operable if its state is visible while it
runs.  :func:`repro.core.batch.run_sweep` drives a :class:`SweepProgress`
tracker which computes throughput and ETA and fans structured
:class:`ProgressEvent`\\ s out to any number of sinks:

* :class:`CLIProgress` — a single self-updating terminal line (plain
  line-per-update when the stream is not a TTY), throttled so a fast warm
  sweep does not drown in redraws;
* :class:`JsonlHeartbeat` — one JSON object per event appended to a file
  through the shared journal helper (:mod:`repro.util.journal`): one
  ``write`` per line, file reopened per event, so a tail/monitor — or a
  post-mortem after an interrupted sweep — reads every intact event even
  when the last line was torn;
* anything implementing :class:`ProgressSink`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence

from repro.util.journal import append_record, read_records


@dataclass(frozen=True)
class ProgressEvent:
    """One structured snapshot of a running sweep.

    ``kind`` is ``"start"`` (totals known, nothing run), ``"job"`` (one
    job finished — fresh, failed or cache-hit) or ``"end"`` (sweep
    complete).  Counts are cumulative; ``eta_s`` is ``None`` until at
    least one job has finished.
    """

    kind: str
    total: int
    done: int = 0
    failed: int = 0
    cache_hits: int = 0
    resumed: int = 0                 # jobs restored from a sweep manifest
    elapsed: float = 0.0
    throughput: float = 0.0          # finished jobs per second
    eta_s: "float | None" = None
    label: str = ""                  # the job this event reports, if any

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "total": self.total,
                     "done": self.done, "failed": self.failed,
                     "cache_hits": self.cache_hits,
                     "elapsed_s": round(self.elapsed, 6),
                     "throughput": round(self.throughput, 3)}
        if self.resumed:
            out["resumed"] = self.resumed
        if self.eta_s is not None:
            out["eta_s"] = round(self.eta_s, 3)
        if self.label:
            out["label"] = self.label
        return out

    def render(self) -> str:
        """The one-line human form (what :class:`CLIProgress` shows)."""
        bits = [f"sweep {self.done}/{self.total}"]
        if self.failed:
            bits.append(f"{self.failed} failed")
        if self.cache_hits:
            bits.append(f"{self.cache_hits} cached")
        if self.resumed:
            bits.append(f"{self.resumed} resumed")
        bits.append(f"{self.throughput:.1f} jobs/s")
        if self.eta_s is not None and self.kind != "end":
            bits.append(f"eta {self.eta_s:.1f}s")
        if self.kind == "end":
            bits.append(f"done in {self.elapsed:.2f}s")
        return "  ".join(bits)


class ProgressSink(Protocol):
    """Anything that can receive sweep progress events."""

    def emit(self, event: ProgressEvent) -> None:
        ...


class CLIProgress:
    """Render progress as one self-updating line on ``stream``.

    On a TTY the line redraws in place (carriage return); otherwise each
    update is a plain line.  ``min_interval`` throttles redraws — the
    first, last and every sufficiently-spaced event get through.
    """

    def __init__(self, stream, min_interval: float = 0.1,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.stream = stream
        self.min_interval = min_interval
        self._clock = clock
        self._last = -1e9
        self._tty = bool(getattr(stream, "isatty", lambda: False)())
        self._dirty = False

    def emit(self, event: ProgressEvent) -> None:
        now = self._clock()
        final = event.kind == "end"
        if not final and now - self._last < self.min_interval:
            return
        self._last = now
        line = event.render()
        if self._tty:
            self.stream.write("\r\x1b[2K" + line)
            self._dirty = True
            if final:
                self.stream.write("\n")
                self._dirty = False
        else:
            self.stream.write(line + "\n")
        self.stream.flush()


class JsonlHeartbeat:
    """Append every progress event as one JSON line to ``path``.

    The file is opened per event — slower than keeping a handle, but a
    sweep that dies between events leaves a complete, parseable heartbeat
    behind, which is the whole point of a heartbeat.
    """

    def __init__(self, path) -> None:
        self.path = path

    def emit(self, event: ProgressEvent) -> None:
        append_record(self.path, event.to_dict())


def read_heartbeat(path) -> list[ProgressEvent]:
    """Load the intact events of a heartbeat file written by
    :class:`JsonlHeartbeat` (a torn final line is skipped)."""
    return [ProgressEvent(
                kind=data["kind"], total=data["total"],
                done=data.get("done", 0), failed=data.get("failed", 0),
                cache_hits=data.get("cache_hits", 0),
                resumed=data.get("resumed", 0),
                elapsed=data.get("elapsed_s", 0.0),
                throughput=data.get("throughput", 0.0),
                eta_s=data.get("eta_s"), label=data.get("label", ""))
            for data in read_records(path)]


@dataclass
class SweepProgress:
    """The tracker :func:`~repro.core.batch.run_sweep` drives.

    Computes cumulative counts, throughput and ETA with an injectable
    clock and fans events to every sink (a sink that raises is dropped,
    never killing the sweep).
    """

    sinks: Sequence[ProgressSink] = ()
    clock: Callable[[], float] = time.perf_counter
    total: int = 0
    done: int = 0
    failed: int = 0
    cache_hits: int = 0
    resumed: int = 0
    _t0: float = 0.0
    _dead: list = field(default_factory=list)

    @classmethod
    def create(cls, sinks: "ProgressSink | Iterable[ProgressSink] | None"
               ) -> "SweepProgress | None":
        """Normalise run_sweep's ``progress=`` argument (single sink,
        iterable of sinks, or None)."""
        if sinks is None:
            return None
        if hasattr(sinks, "emit"):
            sinks = (sinks,)
        sinks = tuple(sinks)
        return cls(sinks=sinks) if sinks else None

    def start(self, total: int) -> None:
        self.total = total
        self._t0 = self.clock()
        self._emit("start", "")

    def job_done(self, *, ok: bool, cache_hit: bool, label: str,
                 resumed: bool = False) -> None:
        """One job finished — executed, cache-hit, or (``resumed=True``)
        restored from a sweep manifest without re-running anything."""
        self.done += 1
        if not ok:
            self.failed += 1
        if cache_hit:
            self.cache_hits += 1
        if resumed:
            self.resumed += 1
        self._emit("job", label)

    def finish(self) -> None:
        self._emit("end", "")

    def _emit(self, kind: str, label: str) -> None:
        elapsed = max(self.clock() - self._t0, 0.0)
        throughput = self.done / elapsed if elapsed > 0 else 0.0
        eta = None
        if self.done and throughput > 0:
            eta = max(self.total - self.done, 0) / throughput
        event = ProgressEvent(kind=kind, total=self.total, done=self.done,
                              failed=self.failed,
                              cache_hits=self.cache_hits,
                              resumed=self.resumed, elapsed=elapsed,
                              throughput=throughput, eta_s=eta, label=label)
        for sink in self.sinks:
            if sink in self._dead:
                continue
            try:
                sink.emit(event)
            except Exception:
                # A broken sink (full disk, closed stream) must not kill
                # the sweep; drop it and keep the others flowing.
                self._dead.append(sink)
