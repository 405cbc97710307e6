"""Observability layer: one tracer, events, progress, run records.

All opt-in and zero-cost on hot paths when unused:

* :mod:`repro.obs.tracer` — the process-wide :data:`TRACER`, the one
  registry of counters, timers and spans, with one mergeable flat form
  (:meth:`Tracer.snapshot`), the list of stage names (:data:`STAGES`)
  and the profiling exports (:func:`collapsed_stacks` flamegraph format,
  Chrome trace);
* :mod:`repro.obs.events` — the cycle-level machine event vocabulary with
  JSON-lines and Chrome ``trace_event`` (Perfetto) exporters;
* :mod:`repro.obs.progress` — structured live sweep progress
  (:class:`ProgressEvent`, CLI rendering, JSONL heartbeat);
* :mod:`repro.obs.metrics` — persistent :class:`RunRecord` files under
  ``$REPRO_METRICS_DIR`` capturing each CLI run's counters, timers, spans
  and machine statistics.

Nothing here imports from the engine, so every layer can report into
:data:`TRACER`.
"""

from repro.obs.events import (
    EVENT_KINDS,
    EventLog,
    EventSink,
    MachineEvent,
    canonical_order,
    read_jsonl,
)
from repro.obs.metrics import (
    METRICS_ENV_VAR,
    RunRecord,
    git_sha,
    list_run_records,
    load_run_record,
    metrics_dir,
    write_run_record,
)
from repro.obs.progress import (
    CLIProgress,
    JsonlHeartbeat,
    ProgressEvent,
    ProgressSink,
    SweepProgress,
    read_heartbeat,
)
from repro.obs.tracer import (
    METRICS,
    STAGES,
    TRACER,
    Span,
    Tracer,
    collapsed_stacks,
    render_spans,
    spans_to_chrome_trace,
)

__all__ = [
    "CLIProgress",
    "EVENT_KINDS",
    "EventLog",
    "EventSink",
    "JsonlHeartbeat",
    "MachineEvent",
    "METRICS",
    "METRICS_ENV_VAR",
    "ProgressEvent",
    "ProgressSink",
    "RunRecord",
    "Span",
    "STAGES",
    "SweepProgress",
    "TRACER",
    "Tracer",
    "canonical_order",
    "collapsed_stacks",
    "git_sha",
    "list_run_records",
    "load_run_record",
    "metrics_dir",
    "read_heartbeat",
    "read_jsonl",
    "render_spans",
    "spans_to_chrome_trace",
    "write_run_record",
]
