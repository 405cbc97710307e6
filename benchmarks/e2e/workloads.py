"""The four workloads, and the phase runner ``run.py`` starts per phase.

A benchmark run is a sequence of phases, each in a fresh interpreter so
that in-memory caches start cold exactly as they do for a user::

    python benchmarks/e2e/workloads.py '<phase spec as JSON>'

* ``prep`` (sweep_warm and verify_batch only) makes what every round of
  the run shares: the seeded design cache, or the six verification designs;
* ``round`` sets up (imports, inputs, first-call artifacts), marks the end
  of set-up, runs the timed closed loop and then checks every output;
* ``probe`` (traced runs only) measures fixed per-layer micro-costs.

Each phase writes ``<run_dir>/<phase>-<round>.json`` and exits 0.  All
workloads are closed loops with one client: each operation waits for the
previous one.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

from repro import api

import oracle
import spans
from oracle import Case

CONV = ("conv-backward", "conv-forward")
CONV_ICS = ("linear", "linear-uni", "fig1", "mesh")
MATMUL_ICS = ("mesh", "hex", "fig2", "linear")

#: design_cold: every family, sized so one cold pass takes about 5 s on
#: one core.  The specifications exercise Section III restructuring; dp
#: and matmul on linear are fast infeasibility verdicts.  The 10-16 s
#: infeasibility proof of dp on mesh is left out: it alone would take
#: longer than two passes.
DESIGN_POOL = (
    [Case.of("dp-spec", "fig1", n=8), Case.of("dp-spec", "fig2", n=8),
     Case.of("paren-spec", "fig1", n=8), Case.of("sp-spec", "fig2", n=8),
     Case.of("dp", "fig1", n=6), Case.of("dp", "fig2", n=6),
     Case.of("dp", "fig1", n=10), Case.of("dp", "linear", n=8)]
    + [Case.of(p, ic, n=n, s=4) for p in CONV for n in (16, 32)
       for ic in CONV_ICS]
    + [Case.of("matmul", ic, n=n) for n in (4, 6) for ic in MATMUL_ICS])

#: sweep_cold / sweep_warm: 147 jobs of mixed cost -- 128 convolution jobs
#: of 10-100 ms beside dp jobs of up to 1 s -- so dispatch, chunking and
#: ordering all show, sized so one cold sweep takes about 5 s on two
#: workers.  Sweeps keep this order, as a caller's grid would: the
#: schedule depends on it, and a seed-shuffled order moved jobs/s by
#: several percent from seed to seed.
SWEEP_GRID = (
    [Case.of(p, ic, n=n, s=s) for p in CONV for n in (8, 16, 24, 32)
     for s in (3, 4, 5, 6) for ic in CONV_ICS]
    + [Case.of("matmul", ic, n=n) for n in (3, 4, 5) for ic in MATMUL_ICS]
    + [Case.of("dp", ic, n=n) for n in (6, 8)
       for ic in ("fig1", "fig2", "linear")]
    + [Case.of("dp", "fig2", n=10)])

#: verify_batch: the largest design of each family; convolution inputs
#: carry a float ``zero`` and so take the int64 -> object fallback.
VERIFY_SET = (
    Case.of("dp", "fig1", n=18), Case.of("dp", "fig2", n=16),
    Case.of("dp-spec", "fig2", n=12), Case.of("matmul", "hex", n=7),
    Case.of("conv-backward", "linear", n=32, s=4),
    Case.of("conv-forward", "linear", n=32, s=4))

DESIGN_VERIFY_SEEDS = 4
SWEEP_VERIFY_SEEDS = 4
SWEEP_WORKERS = 2
BATCH_SEEDS = 64


def all_cases() -> list[Case]:
    return list(dict.fromkeys(DESIGN_POOL + SWEEP_GRID + list(VERIFY_SET)))


def _rng(spec: dict, purpose: str) -> random.Random:
    return random.Random(f"{spec['seed']}:{spec['round']}:{purpose}")


def _subset(cases, spec: dict) -> list[Case]:
    return list(cases)[:spec.get("cases") or None]


def _shuffled(cases, spec: dict) -> list[Case]:
    cases = _subset(cases, spec)
    _rng(spec, "order").shuffle(cases)
    return cases


class Phase:
    """What one phase measured and checked."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.expected = oracle.load_expected()
        #: one ``[kind, seconds, units]`` per timed operation
        self.ops: list[list] = []
        #: sweep job label -> its fastest solve (cold) or probe (warm) time
        self.job_s: dict[str, float] = {}
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}
        self.ready_at: float | None = None
        self.extras: dict = {}

    def ready(self) -> None:
        """Set-up is over: the next thing is the first timed operation."""
        if self.ready_at is None:
            self.ready_at = time.perf_counter()

    def timed(self, kind: str, seconds: float, units: int) -> None:
        self.ops.append([kind, seconds, units])

    def fail(self, key: str, messages: list[str]) -> None:
        if messages:
            self.failures.setdefault(key, []).extend(messages)

    def add(self, name: str, value) -> None:
        self.extras[name] = self.extras.get(name, 0) + value


# -- design_cold -------------------------------------------------------------


def design_cold(ph: Phase) -> None:
    spec = ph.spec
    rng = _rng(spec, "verify")
    cases = _shuffled(DESIGN_POOL, spec)
    outcomes = []
    ph.ready()
    for case in cases:
        base = rng.randrange(1 << 30)
        seeds = range(base, base + DESIGN_VERIFY_SEEDS)
        t0 = time.perf_counter()
        design = error = report = None
        with spans.op("design", case.label):
            try:
                design = spans.synthesize(
                    spans.build(oracle.SOURCES[case.problem]),
                    case.params_dict,
                    api.resolve_interconnect(case.interconnect))
                report = spans.verify_design(
                    design, spans.factory(oracle.input_factory(case)),
                    seeds=seeds)
            except api.SynthesisError as exc:
                error = exc
            except Exception as exc:        # counted, and the loop goes on
                error = exc
                ph.fail(case.label, [traceback.format_exc(limit=-3)])
        ph.timed(case.label, time.perf_counter() - t0, 1)
        outcomes.append((case, design, error, report))
    ph.attempted = len(cases)
    for case, design, error, report in outcomes:
        msgs = oracle.check_verdict(ph.expected, case,
                                    oracle.verdict_of(design, error))
        if report is not None and not report.ok:
            msgs.append(f"{case.label}: verify failed: {report.failures[:2]}")
        if design is not None and spec["round"] == 0:
            msgs += oracle.golden(case, design, spec["seed"])
        ph.fail(case.label, msgs)


# -- sweeps ------------------------------------------------------------------


class _JobClock:
    """Progress sink keeping each job's completion time since sweep start."""

    def __init__(self) -> None:
        self.done: list[float] = []

    def emit(self, event) -> None:
        if event.kind == "job":
            self.done.append(event.elapsed)


def _jobs(cases, verify_seeds: int) -> list:
    return [api.SweepJob(c.problem, spans.TracedBuilder(c.problem)
                         if spans.active()
                         else api.PROBLEM_BUILDERS[c.problem][0],
                         c.params, api.resolve_interconnect(c.interconnect),
                         api.SynthesisOptions(), verify_seeds)
            for c in cases]


def _sweep(ph: Phase, jobs, cache_dir: str, label: str):
    clock = _JobClock()
    timers0 = dict(api.TRACER.timers)
    t0 = time.perf_counter()
    with (spans.op("sweep", label) if label == "warm"
          else spans.stage("sweep", label)):
        report = api.run_sweep(jobs, workers=SWEEP_WORKERS,
                               cache_dir=cache_dir, progress=clock)
    wall = time.perf_counter() - t0
    if label in ("cold", "warm"):
        ph.timed("sweep", wall, len(jobs))
        for r in report.results:
            ph.job_s[r.label()] = min(r.wall_time,
                                      ph.job_s.get(r.label(), r.wall_time))
    ph.add("sweeps", 1)
    ph.add("sweep_wall_s", wall)
    ph.add("worker_s", wall * SWEEP_WORKERS)
    ph.add("job_busy_s", sum(r.wall_time for r in report.results))
    ph.add("first_result_s", min(clock.done, default=0.0))
    ph.add("cross_check_s", api.TRACER.timers.get("sweep.cross_check", 0.0)
           - timers0.get("sweep.cross_check", 0.0))
    ph.add("infeasible_jobs", len(report.failures))
    ph.add("verified_seeds", sum(r.verify_seeds for r in report.results))
    return report


def _check_sweep(ph: Phase, cases, report, key: str, *,
                 golden: bool) -> None:
    by_label = {(r.problem, tuple(sorted(r.params.items())),
                 r.interconnect): r for r in report.results}
    for case in cases:
        ph.attempted += 1
        ic = api.resolve_interconnect(case.interconnect).name
        result = by_label.get((case.problem, case.params, ic))
        if result is None:
            ph.fail(f"{key}/{case.label}", [f"{case.label}: no result"])
            continue
        if result.ok:
            verdict = {"ok": True, "cells": result.cells,
                       "completion_time": result.completion_time}
        else:
            verdict = {"ok": False, "error_type": result.error_type}
        msgs = oracle.check_verdict(ph.expected, case, verdict)
        if result.verified is False:
            msgs.append(f"{case.label}: verify failed: "
                        f"{result.verify_failures[:2]}")
        if golden and result.ok:
            design = result.design(api.PROBLEM_BUILDERS[case.problem][0]())
            msgs += oracle.golden(case, design, ph.spec["seed"])
        ph.fail(f"{key}/{case.label}", msgs)
    if report.cross_check is not None:
        ph.attempted += 1
        if not report.cross_check.startswith("ok"):
            ph.fail(f"{key}/cross-check", [report.cross_check])


def sweep_cold(ph: Phase) -> None:
    cases = _subset(SWEEP_GRID, ph.spec)
    jobs = _jobs(cases, SWEEP_VERIFY_SEEDS)
    ph.ready()
    report = _sweep(ph, jobs, ph.spec["cache"], "cold")
    _check_sweep(ph, cases, report, "cold", golden=ph.spec["round"] == 0)


def sweep_warm_prep(ph: Phase) -> None:
    """Seed the shared cache with one verified cold sweep; the warm rounds
    then never reach the solvers or the worker pool."""
    cases = _subset(SWEEP_GRID, ph.spec)
    report = _sweep(ph, _jobs(cases, SWEEP_VERIFY_SEEDS), ph.spec["cache"],
                    "seed")
    _check_sweep(ph, cases, report, "seed", golden=False)


def sweep_warm(ph: Phase) -> None:
    spec = ph.spec
    cases = _subset(SWEEP_GRID, spec)
    jobs = _jobs(cases, 0)
    report = _sweep(ph, jobs, spec["cache"], "warm-up")
    ph.extras.clear()
    _check_sweep(ph, cases, report, "warm-up", golden=spec["round"] == 0)
    ph.ready()
    end = ph.ready_at + spec["slice_s"]
    while time.perf_counter() < end:
        report = _sweep(ph, jobs, spec["cache"], "warm")
        key = f"warm{len(ph.ops)}"
        ph.attempted += 1
        if report.cache_hits != len(jobs):
            ph.fail(key, [f"{len(jobs) - report.cache_hits} cache misses"])
        _check_sweep(ph, cases, report, key, golden=False)


# -- verify_batch ------------------------------------------------------------


_FRONT = ("decompose-chains", "fuse-accumulators")


def _system(case: Case):
    """The system a synthesized design of ``case`` carries: restructured
    (for specifications) and accumulator-fused, but not solved."""
    state = api.run_pipeline(
        spans.build(oracle.SOURCES[case.problem]), case.params_dict,
        api.resolve_interconnect(case.interconnect), api.SynthesisOptions(),
        pipeline=api.PassPipeline([api.make_pass(n) for n in _FRONT]))
    return state.system


def _design_key(case: Case, system) -> str:
    return api.cache_key(system, case.params_dict,
                         api.resolve_interconnect(case.interconnect))


def verify_batch_prep(ph: Phase) -> None:
    """Synthesize the six designs once per run into a design cache, from
    which every round loads them without solving again."""
    store = api.DesignCache(ph.spec["designs"])
    for case in VERIFY_SET[:ph.spec.get("cases") or None]:
        ph.attempted += 1
        design = spans.synthesize(
            spans.build(oracle.SOURCES[case.problem]), case.params_dict,
            api.resolve_interconnect(case.interconnect))
        ph.fail(case.label, oracle.check_verdict(
            ph.expected, case, oracle.verdict_of(design)))
        store.put(_design_key(case, design.system), design)


def verify_batch(ph: Phase) -> None:
    spec = ph.spec
    store = api.DesignCache(spec["designs"])
    loaded = []
    for case in VERIFY_SET[:spec.get("cases") or None]:
        system = _system(case)
        design = store.get(_design_key(case, system), system)
        if design is None:
            raise RuntimeError(f"{case.label}: design missing from prep")
        make = spans.factory(oracle.input_factory(case))
        # First call per design builds its native kernel: set-up.
        first = spans.verify_design(design, make, seeds=range(BATCH_SEEDS),
                                    engine="native")
        ph.attempted += 1
        ph.fail(case.label, [] if first.ok else first.failures[:2])
        loaded.append((case, design, make))
    rng = _rng(spec, "verify")
    ph.ready()
    end = ph.ready_at + spec["slice_s"]
    while time.perf_counter() < end:
        for case, design, make in rng.sample(loaded, len(loaded)):
            base = rng.randrange(1 << 30)
            t0 = time.perf_counter()
            with spans.op("verify", case.label):
                report = spans.verify_design(
                    design, make, seeds=range(base, base + BATCH_SEEDS),
                    engine="native")
            ph.timed(case.label, time.perf_counter() - t0, BATCH_SEEDS)
            ph.attempted += 1
            if not report.ok:
                ph.fail(f"{case.label}/{base}", report.failures[:2])
    if spec["round"] == 0:
        for case, design, _ in loaded:
            ph.fail(case.label, oracle.golden(case, design, spec["seed"]))


# -- per-layer probes (traced runs) ------------------------------------------


def _timings(fn, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _p50(fn, repeats: int) -> float:
    return statistics.median(_timings(fn, repeats))


def probe(ph: Phase) -> None:
    """Fixed micro-costs of the cache, verify and sweep layers, the same on
    every workload, so each layer has a time even where a workload does
    not use it."""
    ic = api.resolve_interconnect("fig1")
    system = api.PROBLEM_BUILDERS["dp"][0]()
    params = {"n": 10}
    fp = api.system_fingerprint(system)
    design = api.synthesize(system, params, ic)
    store = api.DesignCache(ph.spec["cache"])
    payload = {"status": "ok", "design": design.to_dict(),
               "cells": design.cell_count,
               "completion_time": design.completion_time}
    keys = [f"{i:064x}" for i in range(40)]
    out = ph.extras
    out["cache.fingerprint_ms"] = _p50(
        lambda: api.system_fingerprint(system), 20) * 1e3
    out["cache.key_us"] = _p50(
        lambda: api.cache_key_from_fingerprint(fp, params, ic), 200) * 1e6
    it = iter(keys)
    out["cache.store_p50_ms"] = _p50(lambda: store.store(next(it), payload),
                                     len(keys)) * 1e3
    it = iter(keys)
    out["cache.load_p50_ms"] = _p50(lambda: store.load(next(it)),
                                    len(keys)) * 1e3
    make = api.input_factory("dp", params)
    api.verify_design(design, make, seeds=range(BATCH_SEEDS), engine="native")
    one = _p50(lambda: api.verify_design(design, make, seeds=range(1),
                                         engine="native"), 30)
    many = _p50(lambda: api.verify_design(
        design, make, seeds=range(BATCH_SEEDS), engine="native"), 30)
    out["verify.fixed_ms"] = one * 1e3
    out["verify.per_seed_us"] = (many - one) / (BATCH_SEEDS - 1) * 1e6
    jobs = _jobs([Case.of(p, name, n=8, s=s) for p in CONV for s in (3, 4)
                  for name in CONV_ICS], 0)
    clock = _JobClock()
    t0 = time.perf_counter()
    api.run_sweep(jobs, workers=SWEEP_WORKERS, cache_dir=ph.spec["cache"],
                  progress=clock)
    out["sweep.probe_cold_ms"] = (time.perf_counter() - t0) * 1e3
    out["sweep.first_result_ms"] = min(clock.done) * 1e3
    walls, hits = [], []
    for _ in range(10):
        t0 = time.perf_counter()
        report = api.run_sweep(jobs, workers=SWEEP_WORKERS,
                               cache_dir=ph.spec["cache"])
        walls.append(time.perf_counter() - t0)
        hits += [r.wall_time for r in report.results]
    out["sweep.probe_warm_ms"] = statistics.median(walls) * 1e3
    out["sweep.probe_p50_ms"] = statistics.median(hits) * 1e3


PHASES = {
    ("design_cold", "round"): design_cold,
    ("sweep_cold", "round"): sweep_cold,
    ("sweep_warm", "prep"): sweep_warm_prep,
    ("sweep_warm", "round"): sweep_warm,
    ("verify_batch", "prep"): verify_batch_prep,
    ("verify_batch", "round"): verify_batch,
}


def _spin() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def host_speed_ms() -> float:
    """Fastest of five runs of a fixed pure-Python loop: how fast this host
    runs a thread right now (a diagnostic printed beside the metrics)."""
    return min(_timings(_spin, 5)) * 1e3


def _rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def run_phase(spec: dict) -> dict:
    """Run one phase in this process and return its result record."""
    ph = Phase(spec)
    if spec["trace"]:
        recorder = spans.install(Path(spec["spool"]),
                                 f"{spec['phase']}-{spec['round']}")
    counters0 = dict(api.METRICS.counters)
    timers0 = dict(api.TRACER.timers)
    fn = probe if spec["phase"] == "probe" else PHASES[
        (spec["workload"], spec["phase"])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn(ph)
    if spec["trace"]:
        recorder.flush()
    wall = time.perf_counter() - spec["spawned_at"]
    seen: dict[str, int] = {}
    for w in caught:
        name = f"{w.category.__name__}: {str(w.message)[:160]}"
        seen[name] = seen.get(name, 0) + 1
    return {
        "phase": spec["phase"], "round": spec["round"],
        "trace": spec["trace"],
        "setup_s": (ph.ready_at - spec["spawned_at"]
                    if ph.ready_at is not None else None),
        "wall_s": wall,
        "ops": ph.ops, "job_s": ph.job_s,
        "attempted": ph.attempted, "failed": len(ph.failures),
        "failures": [m for msgs in ph.failures.values() for m in msgs][:20],
        "rss_mb": _rss_mb(),
        "counters": {k: v - counters0.get(k, 0)
                     for k, v in api.METRICS.counters.items()
                     if v != counters0.get(k, 0)},
        "timers": {k: v - timers0.get(k, 0.0)
                   for k, v in api.TRACER.timers.items()
                   if v != timers0.get(k, 0.0)},
        "warnings": seen,
        "host_speed_ms": host_speed_ms(),
        "extras": ph.extras,
        "nproc": os.cpu_count(),
        "native_available": api.native_available(),
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    result = run_phase(spec)
    out = Path(spec["run_dir"]) / f"{spec['phase']}-{spec['round']}.json"
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
