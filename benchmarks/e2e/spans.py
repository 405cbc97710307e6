"""Benchmark-side span recording around calls into each layer.

The benchmark measures the program from outside: nothing under ``src/``
knows it is being traced.  In a traced run :func:`install` starts a
:class:`Recorder` and wraps, at run time, the public functions each layer
exposes:

* ``problems`` -- system/spec builders and input factories;
* ``pass.<name>`` -- every pass of the default pipeline, each wrapped in a
  benchmark-side :class:`~repro.rewrite.Pass` handed to ``synthesize``
  through ``pipeline=``;
* ``verify`` -- :func:`repro.api.verify_design` (input factories nest
  inside as ``inputs``);
* ``cache.*`` -- :class:`repro.api.DesignCache` loads and stores and the
  key functions the sweep calls;
* ``op.*`` -- one span per operation the workload times, whose label is
  the trace id shared by every span underneath it.

Spans live in memory and are written once, when the phase ends.  Sweep pool
workers are forked from a traced process, so they inherit the wrappers;
there a span tree is appended to the spool as soon as its root closes,
because a pool worker exits without running exit hooks.  All start/end
stamps come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans from different processes share one
timeline.

Untraced runs call the same helpers; with no recorder active they are the
bare functions.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import weakref
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro import api
from repro.core import batch
from repro.core.cache import DesignCache

#: Span names that are layers (everything else is glue around them).
LAYER_PREFIXES = ("pass.", "verify", "inputs", "problems.", "cache.")

_active: "Recorder | None" = None


class Recorder:
    """The span list and open-span stack of one process."""

    def __init__(self, spool: Path, phase: str) -> None:
        self.spool = spool
        self.phase = phase
        self._start_process(worker=False)

    def _start_process(self, *, worker: bool) -> None:
        self.pid = os.getpid()
        self.worker = worker
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.seq = 0
        #: id -> weak reference of every design verified in this process
        #: (designs compare by value and are unhashable)
        self.verified: dict[int, weakref.ref] = {}

    @contextmanager
    def span(self, name: str, trace: str | None = None, **attrs):
        if os.getpid() != self.pid:
            # First span in a forked pool worker: drop the parent's copy.
            self._start_process(worker=True)
        parent = self.stack[-1] if self.stack else None
        rec = {"id": f"{self.pid}.{self.seq}",
               "parent": parent["id"] if parent else None,
               "trace": trace or (parent["trace"] if parent else self.phase),
               "name": name, "pid": self.pid, "attrs": attrs,
               "start": time.perf_counter(), "end": None}
        self.seq += 1
        self.stack.append(rec)
        self.spans.append(rec)
        try:
            yield rec
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()
            if self.worker and not self.stack:
                self.flush()

    def flush(self) -> None:
        """Append the finished spans to this process's spool file."""
        done = [s for s in self.spans if s["end"] is not None]
        if not done:
            return
        self.spool.mkdir(parents=True, exist_ok=True)
        with open(self.spool / f"spans-{self.pid}.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write("".join(json.dumps(s) + "\n" for s in done))
        self.spans = [s for s in self.spans if s["end"] is None]


def active() -> bool:
    return _active is not None


def _span(name: str, trace: str | None = None, **attrs):
    return _active.span(name, trace, **attrs) if _active else nullcontext()


def op(kind: str, label: str):
    """The span of one timed operation; ``label`` is its trace id."""
    return _span(f"op.{kind}", label)


def stage(name: str, label: str):
    """A span around work that is not itself an operation (a cold sweep
    whose operations are its jobs, a warm-up)."""
    return _span(name, label)


def _label(system, params, interconnect) -> str:
    p = ",".join(f"{k}={v}" for k, v in sorted(dict(params).items()))
    return f"{system.name}({p})@{interconnect.name}"


class _TimedPass(api.Pass):
    def __init__(self, inner: api.Pass) -> None:
        self.inner = inner
        self.name = inner.name
        self.description = inner.description

    def run(self, state):
        with _span(f"pass.{self.name}"):
            return self.inner.run(state)


def _traced_synthesize(synthesize):
    def wrapper(source, params, interconnect, options=None, **kwargs):
        if _active is None:
            return synthesize(source, params, interconnect, options,
                              **kwargs)
        kwargs.setdefault("pipeline", api.PassPipeline(
            [_TimedPass(p) for p in api.default_pipeline()]))
        with _span("synthesize", _label(source, params, interconnect)):
            return synthesize(source, params, interconnect, options,
                              **kwargs)
    return wrapper


def _traced_verify(verify_design):
    def wrapper(design, inputs, *args, **kwargs):
        if _active is None:
            return verify_design(design, inputs, *args, **kwargs)
        seen = _active.verified.get(id(design))
        first = seen is None or seen() is not design
        _active.verified[id(design)] = weakref.ref(design)
        seeds = kwargs.get("seeds")
        with _span("verify", _label(design.system, design.params,
                                    design.interconnect),
                   first=first, seeds=len(seeds) if seeds else 1):
            return verify_design(design, factory(inputs) if callable(inputs)
                                 else inputs, *args, **kwargs)
    return wrapper


def _timed(name: str, fn, attrs=None):
    def wrapper(*args, **kwargs):
        if _active is None:
            return fn(*args, **kwargs)
        with _span(name) as rec:
            out = fn(*args, **kwargs)
            if attrs is not None:
                rec["attrs"].update(attrs(args, out))
            return out
    return wrapper


synthesize = _traced_synthesize(api.synthesize)
verify_design = _traced_verify(api.verify_design)


def factory(make_inputs):
    """Wrap a ``seed -> inputs`` factory so each call is an ``inputs`` span
    (idempotent, so a factory is never timed twice)."""
    if _active is None or getattr(make_inputs, "_traced", False):
        return make_inputs

    def wrapper(seed):
        with _span("inputs"):
            return make_inputs(seed)
    wrapper._traced = True
    return wrapper


def build(builder):
    """Call a system or spec builder under a ``problems.build`` span."""
    with _span("problems.build", builder=builder.__name__):
        return builder()


@dataclass(frozen=True)
class TracedBuilder:
    """A picklable sweep-job builder that records ``problems.build``.

    Sweep jobs carry their builder to pool workers by pickle, so it must be
    importable by reference rather than a closure.
    """

    problem: str

    def __call__(self):
        with _span("problems.build", builder=self.problem):
            return api.PROBLEM_BUILDERS[self.problem][0]()


def install(spool: Path, phase: str) -> Recorder:
    """Start recording in this process and wrap the layers' functions that
    the sweep path reaches internally.  Spans outside any operation carry
    ``phase`` as their trace id."""
    global _active
    _active = Recorder(spool, phase)
    execute_job = batch._execute_job

    def job(job, *args, **kwargs):
        # Each sweep job -- in a pool worker or serially -- is one
        # operation; the worker-side chunk runner looks this name up on
        # every call, so forked workers run it too.
        with _span("op.job", job.label()):
            return execute_job(job, *args, **kwargs)
    batch._execute_job = job
    batch.synthesize = _traced_synthesize(batch.synthesize)
    batch.verify_design = _traced_verify(batch.verify_design)
    make = batch.input_factory
    batch.input_factory = lambda problem, params: factory(
        make(problem, params))
    for name in ("system_fingerprint", "cache_key_from_fingerprint",
                 "cache_key"):
        setattr(batch, name, _timed("cache.key", getattr(batch, name)))
    DesignCache.load = _timed(
        "cache.load", DesignCache.load,
        lambda args, out: {"hit": out is not None,
                           "negative": bool(out)
                           and out.get("status") == "error"})
    DesignCache.store = _timed(
        "cache.store", DesignCache.store,
        lambda args, out: {"negative": args[2].get("status") == "error"})
    return _active


# -- reading spans back ------------------------------------------------------


def load_spool(spool: Path) -> list[dict]:
    spans: list[dict] = []
    for path in sorted(spool.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _is_layer(name: str) -> bool:
    return name.startswith(LAYER_PREFIXES)


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, busy seconds, self seconds, p50 milliseconds."""
    child_time: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    table: dict[str, dict] = {}
    durations: dict[str, list[float]] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        row = table.setdefault(s["name"], {"calls": 0, "busy_s": 0.0,
                                           "self_s": 0.0, "errors": 0})
        row["calls"] += 1
        row["busy_s"] += dur
        row["self_s"] += dur - child_time.get(s["id"], 0.0)
        row["errors"] += "error" in s["attrs"]
        durations.setdefault(s["name"], []).append(dur)
    for name, row in table.items():
        row["p50_ms"] = statistics.median(durations[name]) * 1e3
    return dict(sorted(table.items()))


def coverage(spans: list[dict]) -> float:
    """Share of operation time covered by layer spans (outermost ones, so
    nothing is counted twice); glue such as ``synthesize``'s own work
    between passes stays uncovered."""
    by_parent: dict[str, list[dict]] = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)

    def covered(span_id: str) -> float:
        total = 0.0
        for child in by_parent.get(span_id, ()):
            if _is_layer(child["name"]):
                total += child["end"] - child["start"]
            else:
                total += covered(child["id"])
        return total

    ops = [s for s in spans if s["name"].startswith("op.")]
    wall = sum(s["end"] - s["start"] for s in ops)
    return sum(covered(s["id"]) for s in ops) / wall if wall else 0.0


def chrome_trace(spans: list[dict]) -> dict:
    """Spans as Chrome ``trace_event`` JSON (loads in Perfetto)."""
    t0 = min((s["start"] for s in spans), default=0.0)
    events = [{"ph": "X", "name": s["name"], "pid": s["pid"],
               "tid": s["pid"], "ts": round((s["start"] - t0) * 1e6, 3),
               "dur": round((s["end"] - s["start"]) * 1e6, 3),
               "args": {"trace": s["trace"], **s["attrs"]}}
              for s in spans]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
