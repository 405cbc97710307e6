"""The tracer: the engine's one registry of counters, timers and spans.

The synthesis pipeline is a tree of stages (a sweep contains jobs, a job
contains schedule/space solves, a verification contains compile and machine
passes).  The :class:`Tracer` keeps a flat view of it — ``counters`` and
``timers`` by name, which ``--stats`` prints — and additionally builds a
tree of :class:`Span` nodes when tracing is *enabled*:

* :meth:`Tracer.span` is a re-entrant context manager.  Nested spans become
  children of the active span; re-entering the *same* stage name only
  charges the outermost frame to the flat timer, so recursive stages
  (``verify.compile`` under a warm-cache path) do not double-count.
* When tracing is disabled the fast path allocates no span nodes — one dict
  bump for the re-entrancy depth and one for the timer.
* :meth:`Tracer.snapshot` is the one mergeable serialised form of the
  flat data (counters and timers) and :meth:`Tracer.merge_wire` folds one
  in.  ``core.batch`` workers ship it back per job with their span trees,
  which merge under the active span with :meth:`Tracer.graft`; a
  RunRecord stores the same snapshot.  Stage latency distributions are
  not kept here: ``repro report`` computes them from the span trees
  the records store.

The process-wide instance is :data:`TRACER`.  :data:`STAGES` lists every
stage name the engine opens a span under.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

#: Every stage name the engine opens a span under.  The last entry,
#: ``"pass."``, is a prefix: the pass manager opens ``pass.<name>`` for
#: each pass it runs.
STAGES: tuple[str, ...] = (
    "pipeline",
    "synthesize.enumerate",
    "synthesize.schedule",
    "synthesize.space",
    "machine.compile.placement",
    "machine.compile.routing",
    "vector.lower",
    "vector.gather",
    "vector.exec",
    "native.load",
    "native.cc",
    "native.encode",
    "native.exec",
    "verify.reference",
    "verify.compile",
    "verify.machine",
    "verify.symbolic",
    "sweep.keys",
    "sweep.probe",
    "sweep.solve",
    "sweep.job",
    "sweep.verify",
    "sweep.cross_check",
    "pass.",
)


class Span:
    """One timed node of the trace tree."""

    __slots__ = ("name", "attrs", "counters", "children", "start", "duration")

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.attrs: dict = attrs or {}
        self.counters: dict[str, int] = {}
        self.children: list[Span] = []
        self.start: float = 0.0
        self.duration: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready form (stable keys; children in execution order)."""
        out: dict = {"name": self.name,
                     "duration_ms": round(self.duration * 1000, 3)}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["name"], dict(data.get("attrs", {})))
        span.duration = data.get("duration_ms", 0.0) / 1000
        span.counters = dict(data.get("counters", {}))
        span.children = [cls.from_dict(c) for c in data.get("children", ())]
        return span

    def total(self, name: str) -> int:
        """Counter ``name`` summed over this span and its subtree."""
        return (self.counters.get(name, 0)
                + sum(c.total(name) for c in self.children))

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration * 1000:.1f} ms, "
                f"{len(self.children)} children)")


def render_spans(spans: "list[Span]", indent: str = "  ") -> str:
    """ASCII tree of a span forest (durations in ms, counters inline)."""
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        extras = ""
        if span.counters:
            extras = "  [" + ", ".join(
                f"{k}={v}" for k, v in sorted(span.counters.items())) + "]"
        attrs = ""
        if span.attrs:
            attrs = "  {" + ", ".join(
                f"{k}={v}" for k, v in sorted(span.attrs.items())) + "}"
        lines.append(f"{indent * depth}{span.name:<{max(1, 40 - depth * 2)}} "
                     f"{span.duration * 1000:>9.1f} ms{extras}{attrs}")
        for child in span.children:
            walk(child, depth + 1)

    for span in spans:
        walk(span, 0)
    return "\n".join(lines) if lines else "(no spans recorded)"


class Tracer:
    """Counters and timers plus an optional span tree.

    The flat ``counters``/``timers`` dicts are always maintained; the span
    tree only while :attr:`enabled` is true.

    ``clock`` is injectable for deterministic tests.
    """

    def __init__(self,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, float] = {}
        self.enabled = False
        self._clock = clock
        self._roots: list[Span] = []
        self._stack: list[Span] = []
        #: per-name re-entrancy depth of currently open spans
        self._active: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Clear all recorded data in place (the enabled flag is left
        alone)."""
        self.counters.clear()
        self.timers.clear()
        self._roots.clear()
        self._stack.clear()
        self._active.clear()

    # -- recording -----------------------------------------------------------

    def count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta
        if self.enabled and self._stack:
            span = self._stack[-1]
            span.counters[name] = span.counters.get(name, 0) + delta

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator["Span | None"]:
        """Open a span; yields the node (``None`` while tracing is off).

        Re-entrant: the flat timer for ``name`` is charged only by the
        outermost frame, so a stage that recurses into itself reports its
        true wall time instead of double-counting the nested frames.  The
        span tree records every frame.
        """
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        node: Span | None = None
        if self.enabled:
            node = Span(name, dict(attrs) if attrs else None)
            parent = self._stack[-1] if self._stack else None
            (parent.children if parent else self._roots).append(node)
            self._stack.append(node)
            node.start = self._clock()
            start = node.start
        else:
            start = self._clock()
        try:
            yield node
        finally:
            elapsed = self._clock() - start
            remaining = self._active[name] - 1
            if remaining:
                self._active[name] = remaining
            else:
                del self._active[name]
                self.timers[name] = self.timers.get(name, 0.0) + elapsed
            if node is not None:
                node.duration = elapsed
                if self._stack and self._stack[-1] is node:
                    self._stack.pop()

    def annotate(self, **attrs) -> None:
        """Attach attributes to the active span (no-op when tracing is off)."""
        if self.enabled and self._stack:
            self._stack[-1].attrs.update(attrs)

    # -- span forest ---------------------------------------------------------

    def spans(self) -> list[Span]:
        """The recorded root spans, in execution order."""
        return list(self._roots)

    def span_dicts(self) -> list[dict]:
        return [span.to_dict() for span in self._roots]

    def graft(self, data: dict) -> Span:
        """Attach a serialised span tree (from a worker process) under the
        active span — the tree counterpart of :meth:`merge_wire`."""
        span = Span.from_dict(data)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self._roots).append(span)
        return span

    def discard(self, span: "Span | None") -> None:
        """Drop a root span (worker hygiene after shipping its tree)."""
        if span is not None and span in self._roots:
            self._roots.remove(span)

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """The flat view, the mergeable and JSON-safe form of everything
        but the span tree: key-sorted within each section."""
        return {"counters": {k: self.counters[k]
                             for k in sorted(self.counters)},
                "timers": {k: self.timers[k] for k in sorted(self.timers)}}

    def merge_wire(self, wire: dict) -> None:
        """Fold another tracer's :meth:`snapshot` in: counters and timers
        add, and counters are charged to the active span too.  Any other
        key is ignored."""
        for name, delta in wire.get("counters", {}).items():
            self.count(name, delta)
        for name, value in wire.get("timers", {}).items():
            self.timers[name] = self.timers.get(name, 0.0) + value

    def report(self) -> str:
        """Human-readable summary: flat entries, then the span tree when
        tracing was enabled."""
        lines = ["instrumentation:"]
        for name in sorted(self.counters):
            lines.append(f"  {name:<40} {self.counters[name]}")
        for name in sorted(self.timers):
            lines.append(f"  {name:<40} {self.timers[name] * 1000:.1f} ms")
        if len(lines) == 1:
            lines.append("  (nothing recorded)")
        if self._roots:
            lines.append("spans:")
            lines.append(render_spans(self._roots, indent="  "))
        return "\n".join(lines)


#: The process-wide tracer.
TRACER = Tracer()

#: A second name for :data:`TRACER`, kept for callers that read
#: ``METRICS.counters``.
METRICS = TRACER


# -- profiling exports ---------------------------------------------------------
#
# The span tree is a profile of the synthesis side (pass manager, solver,
# allocation, codegen).  Two standard renderings make it consumable by
# stock tooling:
#
# * collapsed stacks — the ``frame;frame;frame count`` format consumed by
#   flamegraph.pl, speedscope and every "folded stacks" viewer, with
#   *self*-time microseconds as the sample count;
# * Chrome ``trace_event`` JSON — loads in Perfetto / chrome://tracing.
#
# Both work from durations alone (children laid out sequentially inside
# their parent), so they apply equally to live spans and to span trees
# re-hydrated from a persisted RunRecord.


def collapsed_stacks(spans: "list[Span]") -> str:
    """The span forest in collapsed-stack (flamegraph) format.

    One line per distinct stack, ``root;child;leaf <count>`` where the
    count is the stack's *self* time in integer microseconds (duration
    minus child durations, clamped at zero).  Lines are sorted for
    byte-stable output; zero-weight stacks are dropped.
    """
    weights: dict[tuple[str, ...], int] = {}

    def walk(span: Span, prefix: tuple[str, ...]) -> None:
        stack = prefix + (span.name,)
        child_time = sum(c.duration for c in span.children)
        self_us = int(round(max(0.0, span.duration - child_time) * 1e6))
        if self_us:
            weights[stack] = weights.get(stack, 0) + self_us
        for child in span.children:
            walk(child, stack)

    for span in spans:
        walk(span, ())
    return "\n".join(f"{';'.join(stack)} {weights[stack]}"
                     for stack in sorted(weights))


def spans_to_chrome_trace(spans: "list[Span]") -> dict:
    """The span forest as Chrome ``trace_event`` JSON (Perfetto-loadable).

    The timeline is synthesised from durations: roots run back to back and
    every child starts where its previous sibling ended, so nesting and
    proportions are faithful even for spans re-hydrated from a RunRecord
    (which stores durations, not wall-clock starts).
    """
    trace_events: list[dict] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": "repro synthesis"}},
        {"ph": "M", "pid": 0, "tid": 1, "name": "thread_name",
         "args": {"name": "spans"}},
    ]

    def walk(span: Span, ts_us: float) -> None:
        args: dict = {}
        if span.attrs:
            args.update({k: str(v) for k, v in sorted(span.attrs.items())})
        if span.counters:
            args.update({k: v for k, v in sorted(span.counters.items())})
        trace_events.append({
            "ph": "X", "pid": 0, "tid": 1,
            "ts": int(round(ts_us)),
            "dur": int(round(span.duration * 1e6)),
            "cat": "span", "name": span.name, "args": args})
        cursor = ts_us
        for child in span.children:
            walk(child, cursor)
            cursor += child.duration * 1e6

    cursor = 0.0
    for span in spans:
        walk(span, cursor)
        cursor += span.duration * 1e6
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
