"""The blessed public surface of the synthesis engine.

Everything a caller — the CLI, a service wrapper, a notebook — needs sits
behind this one module, so the internal package layout can keep moving
without breaking users::

    from repro import api

    design = api.synthesize(system, {"n": 8}, api.resolve_interconnect("fig2"))
    report = api.run_sweep(api.SweepSpec(
        problems=("dp", "conv-backward"),
        interconnects=("fig1", "linear"),
        param_grid=({"n": 8, "s": 4},)))

Surface groups:

* single-shot synthesis — :func:`synthesize` (accepts a canonic
  :class:`~repro.ir.program.RecurrenceSystem` or a high-level spec, and an
  optional ``pipeline=``), :func:`explore_uniform`,
  :func:`explore_interconnects`, :func:`verify_design` (single input
  binding or multi-seed batch), :class:`SynthesisOptions`,
  :class:`Design`, :func:`random_inputs` / :func:`input_factory` for
  seeded problem instances;
* execution — :func:`verify_design` and the machine take
  ``engine="native"`` (default, the tiered fast engine) or
  ``engine="interpreted"`` (the cycle-by-cycle oracle), and
  :func:`native_available` gates the native backend's C tier;
* pass pipeline — :class:`Pass`, :class:`PassPipeline`,
  :class:`PipelineState`, :func:`default_pipeline` (the exact lowering
  :func:`synthesize` runs), :func:`make_pass` / :func:`available_passes`
  (the registry of its five passes) and :func:`run_pipeline` for partial
  lowerings with access to intermediate state;
* batch sweeps — :class:`SweepSpec`, :func:`run_sweep` (cache misses
  on one process pool, with ``manifest=`` resume), :class:`SweepReport`,
  :data:`PROBLEM_BUILDERS`, :func:`default_workers` (honours
  ``$REPRO_WORKERS``), and resumable manifests (:class:`SweepManifest`,
  :func:`read_manifest`, :class:`ManifestError`);
* persistent cache — :class:`DesignCache` (sharded ``ab/cd/<key>.json``
  store, listed by scanning its entry files, with
  :meth:`~DesignCache.prune`),
  :class:`PruneReport`, :func:`cache_key`,
  :func:`cache_key_from_fingerprint`, :func:`system_fingerprint`;
* fuzzing — :func:`fuzz` (budgeted random round-trips of the nonuniform
  pipeline), :func:`run_case` / :class:`CaseDescriptor` /
  :class:`CaseOutcome`, and the regression corpus (:func:`load_corpus`,
  :func:`replay_corpus`);
* errors — :class:`SynthesisError` and its concrete subclasses;
* naming — :func:`resolve_interconnect`, :data:`STOCK_INTERCONNECTS`;
* observability — the tracer (:data:`TRACER`, also named
  :data:`METRICS`), the one registry of counters, timers and spans, with
  its profiling exports (:func:`collapsed_stacks`,
  :func:`spans_to_chrome_trace`), live sweep progress
  (:class:`ProgressEvent`, :class:`CLIProgress`, :class:`JsonlHeartbeat`,
  :func:`read_heartbeat`),
  cycle-level machine event logs (:class:`EventLog`,
  :class:`MachineEvent`), persistent run metrics (:class:`RunRecord`,
  :func:`write_run_record`, :func:`load_run_record`, :func:`metrics_dir`)
  and run-record analytics (:func:`load_records`, :func:`render_report`,
  :func:`report_dict` — the engine behind ``repro report``, whose stage
  latency table comes from the records' span trees).
"""

from repro.arrays.interconnect import (
    INTERCONNECT_ALIASES,
    STOCK_INTERCONNECTS,
    Interconnect,
    resolve_interconnect,
)
from repro.core.batch import (
    PROBLEM_BUILDERS,
    SweepJob,
    SweepReport,
    SweepResult,
    SweepSpec,
    default_workers,
    run_sweep,
)
from repro.core.cache import (
    CACHE_ENV_VAR,
    DesignCache,
    PruneReport,
    cache_key,
    cache_key_from_fingerprint,
    default_cache_dir,
    system_fingerprint,
)
from repro.core.design import Design
from repro.core.manifest import (
    ManifestError,
    SweepManifest,
    read_manifest,
)
from repro.core.errors import (
    NoScheduleExists,
    NoSpaceMapExists,
    SynthesisError,
)
from repro.core.explore import (
    ExploredDesign,
    explore_interconnects,
    explore_uniform,
    pareto_front,
)
from repro.core.nonuniform import synthesize
from repro.core.options import SynthesisOptions
from repro.core.verify import VerificationReport, verify_design
from repro.codegen.toolchain import native_available
from repro.rewrite import (
    Pass,
    PassPipeline,
    PipelineState,
    available_passes,
    default_pipeline,
    make_pass,
    run_pipeline,
)
from repro.fuzz import (
    CaseDescriptor,
    CaseOutcome,
    FuzzReport,
    fuzz,
    load_corpus,
    replay_corpus,
    run_case,
)
from repro.machine.analysis import CellUtilization, cell_utilization
from repro.problems import input_factory, random_inputs
from repro.obs import (
    METRICS,
    METRICS_ENV_VAR,
    TRACER,
    CLIProgress,
    EventLog,
    EventSink,
    JsonlHeartbeat,
    MachineEvent,
    ProgressEvent,
    ProgressSink,
    RunRecord,
    collapsed_stacks,
    load_run_record,
    metrics_dir,
    read_heartbeat,
    spans_to_chrome_trace,
    write_run_record,
)
from repro.report import load_records, render_report, report_dict

__all__ = [
    "CACHE_ENV_VAR",
    "CLIProgress",
    "CaseDescriptor",
    "CaseOutcome",
    "CellUtilization",
    "Design",
    "DesignCache",
    "EventLog",
    "EventSink",
    "ExploredDesign",
    "FuzzReport",
    "INTERCONNECT_ALIASES",
    "Interconnect",
    "JsonlHeartbeat",
    "METRICS",
    "METRICS_ENV_VAR",
    "MachineEvent",
    "ManifestError",
    "NoScheduleExists",
    "NoSpaceMapExists",
    "PROBLEM_BUILDERS",
    "Pass",
    "PassPipeline",
    "PipelineState",
    "ProgressEvent",
    "ProgressSink",
    "PruneReport",
    "RunRecord",
    "STOCK_INTERCONNECTS",
    "SweepJob",
    "SweepManifest",
    "SweepReport",
    "SweepResult",
    "SweepSpec",
    "SynthesisError",
    "SynthesisOptions",
    "TRACER",
    "VerificationReport",
    "available_passes",
    "cache_key",
    "cache_key_from_fingerprint",
    "cell_utilization",
    "collapsed_stacks",
    "default_cache_dir",
    "default_pipeline",
    "default_workers",
    "explore_interconnects",
    "explore_uniform",
    "fuzz",
    "input_factory",
    "load_corpus",
    "load_records",
    "load_run_record",
    "make_pass",
    "metrics_dir",
    "native_available",
    "pareto_front",
    "random_inputs",
    "read_heartbeat",
    "read_manifest",
    "render_report",
    "replay_corpus",
    "report_dict",
    "resolve_interconnect",
    "run_case",
    "run_pipeline",
    "run_sweep",
    "spans_to_chrome_trace",
    "synthesize",
    "system_fingerprint",
    "verify_design",
    "write_run_record",
]
