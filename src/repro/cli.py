"""Command-line interface: synthesize and inspect designs without code.

All synthesis entry points come from :mod:`repro.api`, the blessed public
surface.

Examples::

    python -m repro synthesize --problem dp --interconnect fig2 --n 8
    python -m repro synthesize --problem conv-backward --n 12 --s 4 --verify
    python -m repro explore --recurrence forward --n 12 --s 4
    python -m repro sweep --problems dp,conv-backward --interconnects \
fig1,linear --n 6,8 --stats
    python -m repro figures --n 8
    python -m repro cell --n 8 --x 3 --y 2
    python -m repro profile --problem dp --interconnect fig1 --n 8
    python -m repro report ./metrics --baseline BENCH_sweep_scaling.json
    python -m repro fuzz --examples 200 --budget 120 --seed 1
    python -m repro fuzz --replay

Observability: every command accepts ``--stats`` (hierarchical span report)
and ``--metrics-dir`` (persist a :class:`~repro.obs.metrics.RunRecord`;
defaults to ``$REPRO_METRICS_DIR`` when set).  ``profile`` additionally
exports one design's span tree (collapsed stacks and Chrome
``trace_event`` JSON) and its cycle-level machine event log (JSON-lines
and Chrome ``trace_event`` JSON) for flamegraph tools and Perfetto.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from repro.api import (
    PROBLEM_BUILDERS,
    DesignCache,
    SweepSpec,
    SynthesisOptions,
    available_passes,
    explore_uniform,
    resolve_interconnect,
    run_sweep,
    synthesize,
    verify_design,
)
from repro.problems import (
    classify_design,
    convolution_backward,
    convolution_forward,
    dp_system,
    input_factory,
    random_inputs,
)
from repro.ir import trace_execution
from repro.machine import cell_utilization, compile_design, run
from repro.obs import (
    CLIProgress,
    EventLog,
    JsonlHeartbeat,
    RunRecord,
    Span,
    TRACER,
    canonical_order,
    collapsed_stacks,
    git_sha,
    load_run_record,
    metrics_dir,
    spans_to_chrome_trace,
    write_run_record,
)
from repro.report import (
    cell_utilization_table,
    design_table,
    load_records,
    module_table,
    render_array,
    render_cell_actions,
    render_report,
    report_dict,
    sweep_pareto_table,
    sweep_table,
)

#: Per-invocation extras commands may stash for the run record
#: (machine stats, event counts, exported file paths).
RUN_EXTRA: dict = {}


def _interconnect(name: str):
    try:
        return resolve_interconnect(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0])


def _random_inputs(problem: str, params, seed: int = 0):
    try:
        return random_inputs(problem, params, seed)
    except KeyError as exc:
        raise SystemExit(exc.args[0])


def _csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def cmd_synthesize(args) -> int:
    builder, needed = PROBLEM_BUILDERS[args.problem]
    params = {"n": args.n}
    if "s" in needed:
        params["s"] = args.s
    system = builder()
    design = synthesize(system, params, _interconnect(args.interconnect))
    RUN_EXTRA["workload"] = {"problem": args.problem, "params": params,
                             "interconnect": args.interconnect}
    print(module_table(design, f"{args.problem} on {args.interconnect} "
                               f"({params})"))
    print()
    print(render_array(design))
    if args.verify:
        if args.seeds > 1:
            report = verify_design(
                design, input_factory(args.problem, params),
                seeds=range(args.seed, args.seed + args.seeds))
            print(f"\nverification: {report}  "
                  f"(seeds={args.seed}..{args.seed + args.seeds - 1})")
        else:
            report = verify_design(
                design, _random_inputs(args.problem, params, args.seed))
            print(f"\nverification: {report}  (seed={args.seed})")
        if report.machine_stats:
            s = report.machine_stats
            RUN_EXTRA["machine_stats"] = asdict(s)
            print(f"machine: {s.cycles} cycles, {s.cells_used} cells, "
                  f"{s.operations} ops, utilization {s.utilization:.0%}")
        return 0 if report.ok else 1
    return 0


def cmd_explore(args) -> int:
    builder = (convolution_backward if args.recurrence == "backward"
               else convolution_forward)
    params = {"n": args.n, "s": args.s}
    designs = explore_uniform(builder(), params,
                              _interconnect(args.interconnect),
                              time_bound=args.time_bound)
    named = {}
    for d in designs:
        label = classify_design(d.flows)
        if label and label not in named:
            named[label] = d
    print(design_table(
        sorted(named.items()),
        f"designs from the {args.recurrence} recurrence ({params})"))
    print(f"\n{len(designs)} designs explored; named: {sorted(named)}")
    return 0


def cmd_sweep(args) -> int:
    problems = _csv(args.problems)
    for prob in problems:
        if prob not in PROBLEM_BUILDERS:
            raise SystemExit(f"unknown problem {prob!r}; choose from "
                             f"{sorted(PROBLEM_BUILDERS)}")
    interconnects = tuple(_interconnect(name)
                          for name in _csv(args.interconnects))
    try:
        ns = [int(v) for v in _csv(args.n)]
        ss = [int(v) for v in _csv(args.s)]
    except ValueError as exc:
        raise SystemExit(f"bad --n/--s value: {exc}")
    if not problems or not interconnects or not ns or not ss:
        raise SystemExit("sweep needs at least one problem, interconnect "
                         "and parameter value")
    grid = tuple({"n": n, "s": s} for n in ns for s in ss)
    options = SynthesisOptions(time_bound=args.time_bound,
                               space_bound=args.space_bound)
    spec = SweepSpec(problems=tuple(problems), interconnects=interconnects,
                     param_grid=grid, options=options,
                     verify_seeds=args.verify_seeds)
    sinks = []
    if args.progress:
        sinks.append(CLIProgress(sys.stderr))
    if args.heartbeat:
        sinks.append(JsonlHeartbeat(args.heartbeat))
    report = run_sweep(
        spec,
        workers=args.workers,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        cross_check=not args.no_cross_check,
        progress=sinks or None)
    RUN_EXTRA["jobs"] = [
        {"problem": r.problem, "params": dict(r.params),
         "interconnect": r.interconnect, "ok": r.ok,
         "cache_hit": r.cache_hit, "wall_time": r.wall_time}
        for r in report.results]
    print(sweep_table(
        report.results,
        f"sweep: {len(problems)} problem(s) x {len(interconnects)} "
        f"interconnect(s) x {len(grid)} binding(s)"))
    print()
    print(sweep_pareto_table(
        report.pareto(), "Pareto front (completion time vs. cells)"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
        print(f"\nwrote {args.json}")
    if args.heartbeat:
        print(f"heartbeat: {args.heartbeat}")
    # A failed verification or a corrupt cache entry fails the sweep even
    # without --stats: neither is an infeasibility the grid may contain.
    unverified = [r for r in report.results if r.verified is False]
    for r in unverified:
        print(f"verify FAILED: {r.label()}: {r.verify_failures[0]}")
    mismatch = (report.cross_check or "").startswith("MISMATCH")
    if mismatch:
        print(f"cross-check: {report.cross_check}")
    if args.stats:
        print()
        print(report.summary())
    return 1 if unverified or mismatch or not report.ok_results else 0


def cmd_cache(args) -> int:
    """Inspect and maintain the persistent design cache."""
    cache = DesignCache(args.cache_dir)
    if args.action == "info":
        entries = cache.entries()
        ok = sum(1 for e in entries if e.get("status") == "ok")
        size = sum(e.get("bytes") or 0 for e in entries)
        print(f"cache: {cache.root}")
        print(f"entries: {len(entries)} ({ok} ok, {len(entries) - ok} "
              f"negative), {size / 1024:.1f} KiB")
        front = cache.pareto(entries)
        if front:
            rows = [[str(e["completion_time"]), str(e["cells"]),
                     e["key"][:12]] for e in front]
            from repro.report import format_grid
            print(format_grid(["completion", "cells", "key"], rows))
        RUN_EXTRA["cache"] = {"entries": len(entries), "bytes": size}
        return 0
    if args.action == "prune":
        if args.max_age_days is None and args.max_bytes is None:
            raise SystemExit("cache prune needs --max-age-days and/or "
                             "--max-bytes")
        report = cache.prune(max_age_days=args.max_age_days,
                             max_bytes=args.max_bytes)
        print(f"{report} under {cache.root}")
        RUN_EXTRA["cache"] = {"examined": report.examined,
                              "removed": report.removed,
                              "freed_bytes": report.freed_bytes}
        return 0
    removed = cache.clear()                              # action == "clear"
    print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} from "
          f"{cache.root}")
    RUN_EXTRA["cache"] = {"cleared": removed}
    return 0


def cmd_profile(args) -> int:
    """Profile one design end to end and export both views of it.

    Default mode force-enables the span tracer, synthesizes the requested
    design, verifies it (adding the ``verify.*`` spans) and executes it
    once more with an event sink attached.  It writes four files: the
    machine's event log as ``<out>.events.jsonl`` (one event per line) and
    ``<out>.trace.json`` (Chrome ``trace_event``), and the span forest as
    ``<out>.collapsed`` (folded stacks — feed to flamegraph.pl or drop into
    speedscope) and ``<out>.profile.json`` (Chrome ``trace_event``).  Open
    either JSON file in Perfetto or ``chrome://tracing``.  It prints the
    verification report and, after the exports, exits 1 when the design
    fails it.  With
    ``--from-record`` it replays a persisted
    :class:`~repro.obs.metrics.RunRecord` in the terminal instead, and
    re-exports the record's span tree when it carries one.
    """
    if args.from_record:
        try:
            record = load_run_record(args.from_record)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot read run record "
                             f"{args.from_record!r}: {exc}")
        print(record.render())
        spans = [Span.from_dict(s) for s in record.spans]
        if spans:
            _export_spans(spans, args.out or f"profile-{record.command}")
        return 0

    TRACER.enable()          # regardless of --stats: spans ARE the output
    builder, needed = PROBLEM_BUILDERS[args.problem]
    params = {"n": args.n}
    if "s" in needed:
        params["s"] = args.s
    system = builder()
    design = synthesize(system, params, _interconnect(args.interconnect))
    inputs = _random_inputs(args.problem, params, args.seed)
    report = verify_design(design, inputs)
    trace = trace_execution(system, params, inputs)
    mc = compile_design(trace, design.schedules, design.space_maps,
                        design.interconnect.decomposer())
    log = EventLog()
    machine = run(mc, trace, inputs, engine="native", sink=log)

    # Canonical order makes the exports byte-identical to the
    # interpreter's stream.
    log.events = canonical_order(log.events)

    out = args.out or f"profile-{args.problem}-n{args.n}"
    jsonl_path = f"{out}.events.jsonl"
    chrome_path = f"{out}.trace.json"
    log.write_jsonl(jsonl_path)
    log.write_chrome_trace(chrome_path)

    s = machine.stats
    lo, hi = log.cycle_range()
    counts = log.counts_by_kind()
    print(f"profile: {args.problem} on {args.interconnect} ({params})")
    print(f"machine: {s.cycles} cycles [{lo}, {hi}], {s.cells_used} cells, "
          f"{s.operations} ops, {s.hops} hops, "
          f"utilization {s.utilization:.0%}")
    print("events: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"verification: {report}  (seed={args.seed})")
    print()
    print(cell_utilization_table(cell_utilization(mc),
                                 "per-cell utilization",
                                 limit=args.cells))
    print(f"\nwrote {jsonl_path}")
    print(f"wrote {chrome_path}  (load in Perfetto / chrome://tracing)")
    RUN_EXTRA["machine_stats"] = asdict(s)
    RUN_EXTRA["event_counts"] = counts
    RUN_EXTRA["workload"] = {"problem": args.problem, "params": params,
                             "interconnect": args.interconnect}
    span_paths = _export_spans(TRACER.spans(), out)
    RUN_EXTRA["exports"] = [jsonl_path, chrome_path, *span_paths]
    return 0 if report.ok else 1


def _export_spans(spans: list[Span], out: str) -> list[str]:
    """Write ``<out>.collapsed`` and ``<out>.profile.json``; return both
    paths."""
    collapsed_path = f"{out}.collapsed"
    chrome_path = f"{out}.profile.json"
    folded = collapsed_stacks(spans)
    with open(collapsed_path, "w", encoding="utf-8") as fh:
        fh.write(folded + ("\n" if folded else ""))
    with open(chrome_path, "w", encoding="utf-8") as fh:
        json.dump(spans_to_chrome_trace(spans), fh, indent=1, sort_keys=True)
    total_ms = sum(s.duration for s in spans) * 1000
    print(f"profiled {len(spans)} root span(s), {total_ms:.1f} ms total")
    print(f"wrote {collapsed_path}  (collapsed stacks: flamegraph.pl, "
          f"speedscope)")
    print(f"wrote {chrome_path}  (load in Perfetto / chrome://tracing)")
    return [collapsed_path, chrome_path]


def cmd_report(args) -> int:
    """Aggregate run-record stores into the operator's analytics tables."""
    sources = list(args.records)
    if not sources:
        default = metrics_dir()
        if default is None:
            raise SystemExit(
                "repro report: give one or more record directories/files, "
                "or set $REPRO_METRICS_DIR")
        sources = [str(default)]
    records = load_records(sources)
    if not records:
        print(f"no run records under: {', '.join(sources)}")
        return 1
    print(render_report(records, baseline=args.baseline))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report_dict(records, baseline=args.baseline), fh,
                      indent=1, sort_keys=True)
        print(f"\nwrote {args.json}")
    RUN_EXTRA["report"] = {"records": len(records), "sources": sources}
    return 0


def cmd_figures(args) -> int:
    params = {"n": args.n}
    for alias in ("fig1", "fig2"):
        design = synthesize(dp_system(), params, _interconnect(alias))
        print(f"== {alias} (n={args.n}): {design.cell_count} cells, "
              f"completion {design.completion_time} ==")
        print(render_array(design))
        print()
    return 0


def cmd_cell(args) -> int:
    design = synthesize(dp_system(), {"n": args.n},
                        _interconnect(args.interconnect))
    print(render_cell_actions(design, (args.x, args.y)))
    return 0


def cmd_fuzz(args) -> int:
    from repro.fuzz import fuzz, load_corpus, replay_corpus

    if args.replay:
        results = replay_corpus(args.corpus_dir)
        if not results:
            print(f"no corpus artifacts under {args.corpus_dir}")
            return 0
        failed = 0
        for artifact, outcome, ok in results:
            mark = "ok" if ok else "FAIL"
            want = artifact["expect"] or "not-a-bug"
            print(f"{mark:4} {artifact['path'].name}: {outcome.status} "
                  f"(expect {want})")
            if not ok:
                failed += 1
                detail = outcome.detail.strip()
                if detail:
                    print("     " + detail.splitlines()[-1])
        print(f"replayed {len(results)} artifacts, {failed} failing")
        RUN_EXTRA["fuzz"] = {"replayed": len(results), "failed": failed}
        return 1 if failed else 0

    report = fuzz(max_examples=args.examples, budget=args.budget,
                  seed=args.seed, corpus_dir=args.corpus_dir,
                  max_failures=args.max_failures, db_dir=args.db,
                  log=print)
    print(report.summary())
    known = len(load_corpus(args.corpus_dir))
    print(f"corpus: {known} artifacts under {args.corpus_dir}")
    RUN_EXTRA["fuzz"] = {"examples_run": report.examples_run,
                         "counts": report.counts,
                         "failures": len(report.failures),
                         "seed": report.seed}
    return 1 if report.failures else 0


def cmd_passes(args) -> int:
    rows = available_passes()
    width = max(len(name) for name, _ in rows)
    print("passes of the synthesis pipeline, in order:")
    for name, description in rows:
        print(f"  {name:<{width}}  {description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Synthesize non-uniform systolic designs "
                    "(Guerra & Melhem, 1986)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--stats", action="store_true",
                        help="print solver instrumentation (candidates "
                             "examined, cache hits, stage wall times and "
                             "the hierarchical span tree)")
    common.add_argument("--metrics-dir", default=None, metavar="DIR",
                        help="persist a structured RunRecord of this run "
                             "(default: $REPRO_METRICS_DIR when set)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="synthesize one design",
                       parents=[common])
    p.add_argument("--problem", choices=sorted(PROBLEM_BUILDERS),
                   default="dp")
    p.add_argument("--interconnect", default="fig1")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--s", type=int, default=4)
    p.add_argument("--verify", action="store_true",
                   help="run the design on the systolic machine")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for the random verification inputs")
    p.add_argument("--seeds", type=int, default=1, metavar="S",
                   help="verify S seeded random instances (seed..seed+S-1) "
                        "in one batched pass")
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("explore", help="enumerate convolution designs",
                       parents=[common])
    p.add_argument("--recurrence", choices=["backward", "forward"],
                   default="backward")
    p.add_argument("--interconnect", default="linear")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--s", type=int, default=4)
    p.add_argument("--time-bound", type=int, default=2)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser(
        "sweep", parents=[common],
        help="batch-synthesize a (problems x interconnects x params) grid "
             "in parallel, with a persistent design cache")
    p.add_argument("--problems", default="dp,conv-backward,conv-forward",
                   help="comma-separated problem names")
    p.add_argument("--interconnects", default="fig1,fig2,linear",
                   help="comma-separated interconnect names/aliases")
    p.add_argument("--n", default="8", help="comma-separated n values")
    p.add_argument("--s", default="4", help="comma-separated s values "
                                            "(problems that use s)")
    p.add_argument("--time-bound", type=int, default=3)
    p.add_argument("--space-bound", type=int, default=1)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: cpu_count-1, min 1; "
                        "0 runs in-process without a worker pool, for "
                        "debugging)")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the persistent design cache")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: $REPRO_DESIGN_CACHE or "
                        "~/.cache/repro-designs); every finished job is "
                        "stored as it lands, so re-running a killed sweep "
                        "with the same cache resumes it")
    p.add_argument("--no-cross-check", action="store_true",
                   help="skip re-synthesizing one cached entry as a "
                        "consistency check")
    p.add_argument("--verify-seeds", type=int, default=0, metavar="S",
                   help="verify every solved design on S seeded random "
                        "instances (0 = skip; a failure exits 1)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the full sweep report as JSON")
    p.add_argument("--progress", action="store_true",
                   help="live progress line on stderr (jobs done/failed/"
                        "cached, throughput, ETA)")
    p.add_argument("--heartbeat", default=None, metavar="FILE",
                   help="append every progress event as one JSON line to "
                        "FILE (tail-able; survives an interrupted sweep)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "cache", parents=[common],
        help="inspect and maintain the persistent design cache "
             "(info / prune / clear)")
    p.add_argument("action", choices=["info", "prune", "clear"],
                   help="info: entry counts, size and the cache-wide "
                        "Pareto front; prune: evict by age/size; clear: "
                        "delete everything")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: $REPRO_DESIGN_CACHE or "
                        "~/.cache/repro-designs)")
    p.add_argument("--max-age-days", type=float, default=None, metavar="D",
                   help="prune: evict entries older than D days")
    p.add_argument("--max-bytes", type=int, default=None, metavar="B",
                   help="prune: evict oldest-first until the cache fits "
                        "B bytes")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser(
        "profile", parents=[common],
        help="profile one design end to end: export the machine's event "
             "log (JSON-lines + Chrome trace_event) and the span tree "
             "(collapsed stacks + Chrome trace_event), or replay a run "
             "record")
    p.add_argument("--problem", choices=sorted(PROBLEM_BUILDERS),
                   default="dp")
    p.add_argument("--interconnect", default="fig1")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--s", type=int, default=4)
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for the machine's host inputs")
    p.add_argument("--out", default=None, metavar="PREFIX",
                   help="output prefix (default: profile-<problem>-n<n>)")
    p.add_argument("--cells", type=int, default=12, metavar="N",
                   help="rows of the per-cell utilization table (busiest "
                        "first; default 12)")
    p.add_argument("--from-record", default=None, metavar="FILE",
                   help="replay a persisted RunRecord and re-export its "
                        "span tree instead of profiling a fresh run")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "report", parents=[common],
        help="aggregate RunRecord stores into latency (per problem "
             "p50/p95/max), cache hit-rate and stage tables, with an "
             "optional delta against a baseline store or BENCH_*.json")
    p.add_argument("records", nargs="*", metavar="DIR_OR_FILE",
                   help="record directories or files (default: "
                        "$REPRO_METRICS_DIR)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="a baseline record directory (p50 delta per "
                        "problem) or a BENCH_<name>.json "
                        "trajectory file (newest vs previous entry)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write the report as JSON")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "passes", parents=[common],
        help="list the synthesis pipeline's passes, in order")
    p.set_defaults(fn=cmd_passes)

    p = sub.add_parser("figures", help="print both DP arrays",
                       parents=[common])
    p.add_argument("--n", type=int, default=8)
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("cell", help="one cell's action timetable",
                       parents=[common])
    p.add_argument("--interconnect", default="fig2")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.set_defaults(fn=cmd_cell)

    p = sub.add_parser(
        "fuzz", parents=[common],
        help="property-fuzz the nonuniform pipeline: random recurrence "
             "systems through restructure/synthesize/every engine, "
             "cross-checked against a direct evaluation; shrunk failures "
             "are saved as corpus artifacts")
    p.add_argument("--examples", type=int, default=100, metavar="N",
                   help="example budget (default 100)")
    p.add_argument("--budget", type=float, default=60.0, metavar="SEC",
                   help="time budget in seconds (default 60)")
    p.add_argument("--seed", type=int, default=0,
                   help="generation seed (a run is reproducible from "
                        "seed + budgets)")
    p.add_argument("--corpus-dir", default=str(Path("tests") / "corpus"),
                   metavar="DIR",
                   help="where shrunk failing artifacts are saved and "
                        "replayed from (default tests/corpus)")
    p.add_argument("--max-failures", type=int, default=3, metavar="K",
                   help="stop after K distinct failure signatures")
    p.add_argument("--db", default=None, metavar="DIR",
                   help="persistent hypothesis example database (CI keeps "
                        "shrunk examples across runs)")
    p.add_argument("--replay", action="store_true",
                   help="re-run every corpus artifact instead of "
                        "generating new examples")
    p.set_defaults(fn=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    record_root = metrics_dir(getattr(args, "metrics_dir", None))
    want_stats = getattr(args, "stats", False)
    was_enabled = TRACER.enabled
    if want_stats or record_root is not None:
        TRACER.enable()        # build span trees for the report/record
    RUN_EXTRA.clear()
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    t0 = time.perf_counter()
    try:
        rc = args.fn(args)
    finally:
        TRACER.enabled = was_enabled
    wall = time.perf_counter() - t0
    if want_stats:
        print()
        print(TRACER.report())
    if record_root is not None:
        extra = {k: v for k, v in RUN_EXTRA.items() if k != "machine_stats"}
        record = RunRecord(
            command=args.command,
            argv=list(argv) if argv is not None else sys.argv[1:],
            started_at=started, wall_time=wall, git_sha=git_sha(),
            stats=TRACER.snapshot(), spans=TRACER.span_dicts(),
            machine_stats=RUN_EXTRA.get("machine_stats"),
            extra=extra)
        path = write_run_record(record, record_root)
        print(f"\nrun record: {path}")
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
