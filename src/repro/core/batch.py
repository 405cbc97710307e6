"""Parallel batch-synthesis sweeps over (problem × interconnect × params).

The paper's Section I payoff — "automatically generating a number of viable
algorithms ... enables the selection of an optimal algorithm among a wider
set of candidates" — needs synthesis to run as a *service*, not a function
call: fan a grid of jobs out over worker processes, survive individual
infeasibilities, persist every solved design, and answer the selection
question with a Pareto front over (completion time, cell count).

Shape of a sweep::

    spec = SweepSpec(problems=("dp", "conv-backward"),
                     interconnects=("fig1", "linear"),
                     param_grid=({"n": 6, "s": 3}, {"n": 8, "s": 3}))
    report = run_sweep(spec, workers=2)
    best = report.pareto()

Execution model:

* every job is *keyed* once in the parent — the system is built and
  fingerprinted once per distinct builder, then each (params,
  interconnect, options) binding keys off that fingerprint — so the warm
  path never pays per-job synthesis-IR construction;
* the parent probes the :class:`~repro.core.cache.DesignCache` for every
  job — hits (including cached *failures*) never reach a worker;
* every finished job is stored in the cache as it completes (one atomic
  file per key), so re-running the same sweep against the same cache
  resumes a killed one: finished jobs hit, only the rest execute, and the
  report tables render byte-identically to the uninterrupted run's;
* misses go to one process pool (``workers`` processes, default
  ``os.cpu_count() - 1``, min 1, overridable via ``$REPRO_WORKERS``), one
  task per job, results taken as they complete; ``workers=0`` forces the
  serial in-process path — the debug route with no pickling or process
  boundaries;
* a failed job records its :class:`~repro.util.errors.SynthesisError`
  in its :class:`SweepResult` instead of killing the sweep;
* per-job wall time and the job's tracer snapshot (counters and timers)
  and span trees travel back with each result and are merged into the
  parent's :data:`~repro.obs.TRACER`;
* with ``cross_check=True`` one cached entry per sweep (the cheapest, to
  keep warm runs fast) is re-synthesized from scratch and compared against
  the stored payload — a standing guard against stale or corrupted caches.
"""

from __future__ import annotations

import gc
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.arrays.interconnect import Interconnect, resolve_interconnect
from repro.core.cache import (
    DesignCache,
    cache_key,
    cache_key_from_fingerprint,
    system_fingerprint,
)
from repro.core.design import Design
from repro.core.explore import non_dominated
from repro.core.nonuniform import synthesize
from repro.core.options import SynthesisOptions
from repro.core.verify import verify_design
from repro.ir.program import RecurrenceSystem
from repro.obs import TRACER
from repro.obs.progress import ProgressSink, SweepProgress
from repro.problems import (
    convolution_backward,
    convolution_forward,
    dp_system,
    input_factory,
    matmul_system,
)
from repro.util.errors import SynthesisError

#: name -> (system builder, parameter names the problem needs).  Builders
#: are module-level callables so jobs pickle across process boundaries.
PROBLEM_BUILDERS: dict[str, tuple[Callable[[], RecurrenceSystem],
                                  tuple[str, ...]]] = {
    "dp": (dp_system, ("n",)),
    "conv-backward": (convolution_backward, ("n", "s")),
    "conv-forward": (convolution_forward, ("n", "s")),
    "matmul": (matmul_system, ("n",)),
}


def resolve_problem(name: str) -> tuple[Callable[[], RecurrenceSystem],
                                        tuple[str, ...]]:
    try:
        return PROBLEM_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; choose from "
                       f"{sorted(PROBLEM_BUILDERS)}") from None


def default_workers() -> int:
    """One process per core minus one, at least 1.

    ``$REPRO_WORKERS`` overrides (clamped to ≥ 1) — the knob CI and
    shared boxes use to stop a sweep claiming every core.  A value that
    does not parse as an integer is ignored.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, (os.cpu_count() or 2) - 1)


@dataclass(frozen=True)
class SweepJob:
    """One synthesis task: a problem instance on one interconnect."""

    problem: str
    builder: Callable[[], RecurrenceSystem]
    params: tuple[tuple[str, int], ...]          # sorted, hashable
    interconnect: Interconnect
    options: SynthesisOptions = SynthesisOptions()
    verify_seeds: int = 0

    @property
    def params_dict(self) -> dict[str, int]:
        return dict(self.params)

    def label(self) -> str:
        p = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.problem}({p}) on {self.interconnect.name}"


@dataclass(frozen=True)
class SweepSpec:
    """The sweep space: problems × interconnects × parameter bindings.

    ``param_grid`` entries may carry parameters a problem does not use
    (e.g. ``s`` for ``dp``); each job keeps only the parameters its problem
    needs, and jobs that collapse to the same binding are deduplicated.

    ``verify_seeds > 0`` makes every solved design (fresh or cached) run
    through :func:`~repro.core.verify.verify_design` with that many seeded
    random instances on the native engine, all seeds in one batched pass.
    """

    problems: tuple[str, ...]
    interconnects: tuple["str | Interconnect", ...]
    param_grid: tuple[Mapping[str, int], ...]
    options: SynthesisOptions = SynthesisOptions()
    verify_seeds: int = 0

    def jobs(self) -> list[SweepJob]:
        out: list[SweepJob] = []
        seen: set[tuple] = set()
        for prob in self.problems:
            builder, needed = resolve_problem(prob)
            for ic in self.interconnects:
                icobj = resolve_interconnect(ic)
                for binding in self.param_grid:
                    missing = [k for k in needed if k not in binding]
                    if missing:
                        raise KeyError(
                            f"problem {prob!r} needs parameters {missing} "
                            f"absent from grid entry {dict(binding)}")
                    params = tuple(sorted(
                        (k, int(binding[k])) for k in needed))
                    sig = (prob, icobj.name, params)
                    if sig in seen:
                        continue
                    seen.add(sig)
                    out.append(SweepJob(prob, builder, params, icobj,
                                        self.options, self.verify_seeds))
        return out


@dataclass
class SweepResult:
    """Outcome of one job — success or recorded failure, fresh or cached."""

    problem: str
    params: dict[str, int]
    interconnect: str
    key: str
    ok: bool
    cache_hit: bool = False
    cells: int | None = None
    completion_time: int | None = None
    wall_time: float = 0.0              # this run's cost (probe or solve)
    solve_time: float = 0.0             # the original synthesis cost
    error_type: str | None = None
    error: str | None = None
    error_module: str | None = None
    stats: dict = field(default_factory=dict)
    design_payload: dict | None = None
    verify_seeds: int = 0               # seeds cross-checked (0 = not asked)
    verify_failures: list[str] = field(default_factory=list)

    @property
    def verified(self) -> "bool | None":
        """``True``/``False`` once verification ran, ``None`` otherwise."""
        if self.verify_seeds == 0:
            return None
        return not self.verify_failures

    def label(self) -> str:
        p = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.problem}({p}) on {self.interconnect}"

    def design(self, system: RecurrenceSystem) -> Design:
        """Rebuild the full design (successful results only)."""
        if not self.ok or self.design_payload is None:
            raise ValueError(f"{self.label()}: no design (job failed)")
        return Design.from_dict(self.design_payload, system)

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "params": dict(self.params),
            "interconnect": self.interconnect,
            "key": self.key,
            "ok": self.ok,
            "cache_hit": self.cache_hit,
            "cells": self.cells,
            "completion_time": self.completion_time,
            "wall_time": self.wall_time,
            "solve_time": self.solve_time,
            "error_type": self.error_type,
            "error": self.error,
            "error_module": self.error_module,
            "design": self.design_payload,
            "verify_seeds": self.verify_seeds,
            "verify_failures": list(self.verify_failures),
        }

    def _sort_key(self) -> tuple:
        return (self.problem, self.interconnect,
                tuple(sorted(self.params.items())))


@dataclass
class SweepReport:
    """Everything a sweep produced, plus the bookkeeping around it."""

    results: list[SweepResult]
    wall_time: float
    workers: int
    cache_hits: int = 0
    cache_misses: int = 0
    cross_check: str | None = None

    @property
    def ok_results(self) -> list[SweepResult]:
        return [r for r in self.results if r.ok]

    @property
    def failures(self) -> list[SweepResult]:
        return [r for r in self.results if not r.ok]

    def pareto(self) -> list[SweepResult]:
        """Successful results not dominated in (completion time, cells),
        one representative per distinct point, sorted by completion time."""
        ranked = sorted(self.ok_results,
                        key=lambda r: (r.completion_time, r.cells,
                                       r._sort_key()))
        return non_dominated(ranked,
                             lambda r: (r.completion_time, r.cells))

    def summary(self) -> str:
        lines = [
            f"sweep: {len(self.results)} jobs "
            f"({len(self.ok_results)} ok, {len(self.failures)} infeasible) "
            f"in {self.wall_time:.2f}s with {self.workers} worker(s)",
            f"cache: {self.cache_hits} hits, {self.cache_misses} misses",
        ]
        verified = [r for r in self.results if r.verify_seeds]
        if verified:
            bad = [r for r in verified if not r.verified]
            total = sum(r.verify_seeds for r in verified)
            lines.append(f"verify: {len(verified)} design(s), "
                         f"{total} seeded runs, {len(bad)} failure(s)")
        if self.cross_check is not None:
            lines.append(f"cross-check: {self.cross_check}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "wall_time": self.wall_time,
            "workers": self.workers,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cross_check": self.cross_check,
            "results": [r.to_dict() for r in self.results],
        }


def _execute_job(job: SweepJob, cache_root: "str | None",
                 tracing: bool = False,
                 in_worker: bool = False) -> SweepResult:
    """Synthesize one job (worker side or serial path), verify it when
    asked, and cache the outcome under ``cache_root`` (``None``: no cache)
    — the solved design, or the failure as a negative entry.

    Stats protocol: a *worker* process resets the tracer, so at the end of
    the job ``result.stats`` is exactly the job's own
    :meth:`~repro.obs.tracer.Tracer.snapshot` — with ``tracing``, plus its
    root span trees under ``"spans"`` — and the parent folds it in with
    :func:`_merge_stats`.  On the serial path the tracer belongs to the
    caller and is **left untouched**: the job accrues into it directly,
    and ``result.stats`` is the counter/timer delta the job added.
    """
    if in_worker:
        TRACER.reset()
        if tracing:
            TRACER.enable()
    else:
        before = TRACER.snapshot()
    t0 = time.perf_counter()
    system = job.builder()
    key = cache_key(system, job.params_dict, job.interconnect, job.options)
    with TRACER.span("sweep.job", job=job.label()):
        try:
            design = synthesize(system, job.params_dict, job.interconnect,
                                job.options)
            error = None
        except SynthesisError as exc:
            design = None
            error = exc
    wall = time.perf_counter() - t0
    if design is not None:
        result = SweepResult(
            problem=job.problem, params=job.params_dict,
            interconnect=job.interconnect.name, key=key, ok=True,
            cells=design.cell_count,
            completion_time=design.completion_time,
            wall_time=wall, solve_time=wall,
            design_payload=design.to_dict())
        if job.verify_seeds > 0:
            _verify_result(job, design, result)
        if cache_root is not None:
            DesignCache(cache_root).put(key, design, solve_time=wall)
    else:
        result = SweepResult(
            problem=job.problem, params=job.params_dict,
            interconnect=job.interconnect.name, key=key, ok=False,
            wall_time=wall, solve_time=wall,
            error_type=type(error).__name__, error=str(error),
            error_module=error.module)
        if cache_root is not None:
            DesignCache(cache_root).store(key, {
                "status": "error",
                "error_type": type(error).__name__,
                "error": str(error),
                "error_module": error.module,
                "solve_time": wall,
            })
    if in_worker:
        result.stats = TRACER.snapshot()
        roots = TRACER.spans()
        if roots:
            # Ship the trees; drop the worker-side copies so a reused pool
            # process does not grow an unbounded span forest.
            result.stats["spans"] = [root.to_dict() for root in roots]
            for root in roots:
                TRACER.discard(root)
    else:
        after = TRACER.snapshot()
        result.stats = {
            section: {k: v - before[section].get(k, 0)
                      for k, v in after[section].items()
                      if v != before[section].get(k, 0)}
            for section in ("counters", "timers")}
    return result


def _verify_result(job: SweepJob, design: Design,
                   result: SweepResult) -> None:
    """Cross-check a solved design on ``job.verify_seeds`` seeded random
    instances (the native engine batches them into one pass)."""
    try:
        factory = input_factory(job.problem, job.params_dict)
        with TRACER.span("sweep.verify"):
            report = verify_design(design, factory,
                                   seeds=range(job.verify_seeds))
        result.verify_seeds = report.seeds_checked
        result.verify_failures = list(report.failures)
    except KeyError:
        # Problems without a random-instance generator stay unverified.
        result.verify_seeds = 0
    TRACER.count("sweep.verified_seeds", result.verify_seeds)


def _result_from_payload(job: SweepJob, key: str,
                         payload: dict, wall: float) -> SweepResult:
    if payload.get("status") == "ok":
        return SweepResult(
            problem=job.problem, params=job.params_dict,
            interconnect=job.interconnect.name, key=key, ok=True,
            cache_hit=True, cells=payload["cells"],
            completion_time=payload["completion_time"], wall_time=wall,
            solve_time=payload.get("solve_time", 0.0),
            design_payload=payload["design"])
    return SweepResult(
        problem=job.problem, params=job.params_dict,
        interconnect=job.interconnect.name, key=key, ok=False,
        cache_hit=True, wall_time=wall,
        solve_time=payload.get("solve_time", 0.0),
        error_type=payload.get("error_type"), error=payload.get("error"),
        error_module=payload.get("error_module"))


def _merge_stats(stats: dict) -> None:
    """Fold a worker job's stats — its tracer snapshot and span trees — into
    the parent's tracer (the serial path needs no merge: it accrued
    directly)."""
    TRACER.merge_wire(stats)
    if TRACER.enabled:
        for span_dict in stats.get("spans", ()):
            TRACER.graft(span_dict)


def _pool_job(job: SweepJob, cache_root: "str | None",
              tracing: bool) -> SweepResult:
    """Pool-worker entry point.  ``_execute_job`` is looked up on every
    call, so a wrapper installed on this module before the pool forks runs
    in the workers too."""
    return _execute_job(job, cache_root, tracing, in_worker=True)


def _run_pool(jobs: Sequence[SweepJob], nworkers: int,
              cache_root: "str | None",
              on_result: Callable[[SweepResult], None]
              ) -> list[SweepResult]:
    """Run cache misses on one process pool: one task per job, results
    taken as they complete and returned in job order.

    Each job index is accepted exactly once (``by_index``), so its stats
    delta merges once and ``on_result`` sees it once.  A worker that dies
    (segfault, OOM kill) breaks the pool: every completed future is
    salvaged, and the jobs without a result retry serially in-process.
    """
    by_index: dict[int, SweepResult] = {}

    def accept(idx: int, result: SweepResult, *, merge: bool = True) -> None:
        by_index[idx] = result
        if merge:
            _merge_stats(result.stats)
        on_result(result)

    futures: dict = {}                       # future -> job index
    # Forked workers inherit the parent's heap.  Frozen, it is never
    # rescanned by a worker's full collections, which otherwise cost 20-30
    # ms each and land in whichever job's synthesis the inherited
    # allocation counts happen to reach.
    gc.freeze()
    try:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            for idx, job in enumerate(jobs):
                futures[pool.submit(_pool_job, job, cache_root,
                                    TRACER.enabled)] = idx
            for fut in as_completed(futures):
                accept(futures[fut], fut.result())
    except BrokenProcessPool:
        for fut, idx in futures.items():
            if idx not in by_index and fut.done() and not fut.cancelled() \
                    and fut.exception() is None:
                accept(idx, fut.result())
        retry = [idx for idx in range(len(jobs)) if idx not in by_index]
        TRACER.count("sweep.worker_retries", len(retry))
        for idx in retry:
            # The serial path accrues stats straight into this tracer.
            accept(idx, _execute_job(jobs[idx], cache_root), merge=False)
    finally:
        gc.unfreeze()
    return [by_index[idx] for idx in range(len(jobs))]


def _cross_check(results: Sequence[SweepResult],
                 jobs_by_key: Mapping[str, SweepJob]) -> str | None:
    """Re-synthesize the cheapest cached success and compare payloads;
    ``jobs_by_key`` maps each cache key to the job that owns it."""
    hits = [r for r in results if r.cache_hit and r.ok]
    if not hits:
        return None
    probe = min(hits, key=lambda r: (r.solve_time, r._sort_key()))
    job = jobs_by_key[probe.key]
    fresh = synthesize(job.builder(), job.params_dict, job.interconnect,
                       job.options)
    TRACER.count("sweep.cross_checks")
    if fresh.to_dict() == probe.design_payload:
        return f"ok ({probe.label()})"
    TRACER.count("sweep.cross_check_mismatches")
    return (f"MISMATCH at {probe.label()}: cached payload differs from "
            "fresh synthesis — clear the cache directory")


def _key_jobs(jobs: Sequence[SweepJob]) -> list[str]:
    """Cache key per job, building + fingerprinting each distinct system
    once.

    The memo is keyed by the *builder callable*, not the problem name —
    two custom jobs may share the name ``"dp"`` while building different
    systems.  The fingerprint (repr-ing every rule of every equation)
    dominates key cost, so the warm path collapses from
    O(jobs · system size) to O(builders · system size)."""
    fingerprints: dict[Callable, str] = {}
    keys: list[str] = []
    for job in jobs:
        fp = fingerprints.get(job.builder)
        if fp is None:
            fp = system_fingerprint(job.builder())
            fingerprints[job.builder] = fp
        keys.append(cache_key_from_fingerprint(fp, job.params_dict,
                                               job.interconnect,
                                               job.options))
    return keys


def run_sweep(spec: "SweepSpec | Iterable[SweepJob]", *,
              workers: int | None = None,
              use_cache: bool = True,
              cache_dir: "str | os.PathLike | None" = None,
              cross_check: bool = True,
              progress: "ProgressSink | Iterable[ProgressSink] | None"
              = None) -> SweepReport:
    """Run every job of ``spec``; never raises on per-job infeasibility.

    ``workers=None`` uses :func:`default_workers` (which honours
    ``$REPRO_WORKERS``); ``workers=0`` forces the serial in-process path
    (useful under a debugger).  A worker process that *dies* (rather than
    failing a job) breaks only itself: completed results are salvaged and
    the unfinished jobs retry serially.  Results come back sorted by
    (problem, interconnect, params) so downstream tables are byte-stable
    regardless of completion order.

    To resume a killed sweep, run it again with the same ``cache_dir``:
    every job that finished before the kill was stored in the cache, so
    it hits, and only the unfinished jobs execute.

    ``progress`` takes one sink or an iterable of sinks (see
    :mod:`repro.obs.progress`): a structured event is emitted when totals
    are known, after every finished job (cache hits included) and on
    completion, carrying cumulative counts, throughput and ETA.
    """
    jobs = spec.jobs() if isinstance(spec, SweepSpec) else list(spec)
    nworkers = default_workers() if workers is None else max(0, int(workers))
    tracker = SweepProgress.create(progress)
    t0 = time.perf_counter()
    cache = DesignCache(cache_dir) if use_cache else None
    cache_root = str(cache.root) if cache is not None else None
    if tracker is not None:
        tracker.start(len(jobs))

    results: list[SweepResult] = []
    pending: list[SweepJob] = []
    jobs_by_key: dict[str, SweepJob] = {}

    def _finished(result: SweepResult) -> None:
        if tracker is not None:
            tracker.job_done(ok=result.ok, cache_hit=result.cache_hit,
                             label=result.label())

    # Without a cache, builders never run in the parent at all — the
    # crash-recovery path depends on that.
    hits = 0
    if cache is None:
        pending = jobs
    else:
        with TRACER.span("sweep.keys"):
            keys = _key_jobs(jobs)
            jobs_by_key.update(zip(keys, jobs))
        with TRACER.span("sweep.probe"):
            for job, key in zip(jobs, keys):
                p0 = time.perf_counter()
                payload = cache.load(key)
                if payload is None:
                    pending.append(job)
                    continue
                hits += 1
                result = _result_from_payload(
                    job, key, payload, time.perf_counter() - p0)
                if job.verify_seeds > 0 and result.ok:
                    _verify_result(job, result.design(job.builder()),
                                   result)
                results.append(result)
                _finished(result)

    with TRACER.span("sweep.solve"):
        if not pending:
            pass
        elif nworkers == 0 or len(pending) == 1:
            for job in pending:
                result = _execute_job(job, cache_root)
                results.append(result)
                _finished(result)
        else:
            results.extend(_run_pool(
                pending, min(nworkers, len(pending)), cache_root,
                _finished))

    check = None
    if cross_check:
        with TRACER.span("sweep.cross_check"):
            check = _cross_check(results, jobs_by_key)

    results.sort(key=SweepResult._sort_key)
    if tracker is not None:
        tracker.finish()
    return SweepReport(results=results,
                       wall_time=time.perf_counter() - t0,
                       workers=nworkers,
                       cache_hits=hits,
                       cache_misses=len(pending),
                       cross_check=check)
