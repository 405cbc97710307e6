#!/usr/bin/env python
"""Pin every synthesized design of the benchmark's case grid.

The snapshot lives at ``tests/data/design_fingerprints.json``.  It holds
the case list itself (the distinct cases of the end-to-end benchmark's
``DESIGN_POOL`` and ``SWEEP_GRID``) and, per case, the sha256 of the
sorted-key JSON of ``Design.to_dict()``, or the type name of the
``SynthesisError`` the case raises, and the summed
``space.assignments_examined`` counter of the whole grid.  A solver change
that is meant to be exact (faster search, same winners) must leave every
entry unchanged; one that changes how many joint assignments the space
search visits must say so by rewriting the snapshot.

Every feasible case also pins its lowering: the sha256 of the allocate
pass's ``Microcode`` (injections, operations and hops in list order,
placement sorted by value key, ops by name), of the ``MachineStats`` of
``native.lower(microcode, trace, record_events=True)`` and of that call's
canonical structural event stream.  A change to how designs are compiled
or lowered that is meant to be exact must leave these unchanged too.

Usage::

    python tools/check_design_fingerprints.py --write   # rebuild the snapshot
    python tools/check_design_fingerprints.py --check   # exit 1 on drift (CI)

``--write`` takes the case list from ``benchmarks/e2e/workloads.py``;
``--check`` reads it from the snapshot, so it needs only ``src/``.  Both
synthesize serially and print the wall time and the summed
``space.assignments_examined`` and ``space.candidates_enumerated``
counters.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO / "tests" / "data" / "design_fingerprints.json"


def _sources() -> dict:
    from repro import problems

    return {
        "dp": problems.dp_system,
        "dp-spec": problems.dp_spec,
        "paren-spec": problems.parenthesization_spec,
        "sp-spec": problems.shortest_path_spec,
        "conv-backward": problems.convolution_backward,
        "conv-forward": problems.convolution_forward,
        "matmul": problems.matmul_system,
    }


def case_label(case: dict) -> str:
    params = ",".join(f"{k}={v}" for k, v in sorted(case["params"].items()))
    return f"{case['problem']}({params})@{case['interconnect']}"


def lowering_fingerprint(state) -> str:
    """``sha256:<hex>`` of the allocate pass's microcode and its lowering:
    the lowered machine's statistics and structural event stream."""
    from dataclasses import asdict

    from repro.ir.evaluate import SystemTrace, build_execution_plan
    from repro.machine.native import lower

    mc = state.microcode
    plan = build_execution_plan(state.system, state.params)
    machine = lower(mc, SystemTrace(plan), record_events=True)
    body = {
        "injections": [[repr(e.key), e.cell, e.cycle, e.input_name,
                        e.input_index] for e in mc.injections],
        "operations": [[repr(o.key), o.cell, o.cycle,
                        None if o.op is None else o.op.name,
                        [repr(k) for k in o.operands], o.stream]
                       for o in mc.operations],
        "hops": [[repr(h.key), h.src, h.dst, h.cycle, h.stream]
                 for h in mc.hops],
        "placement": sorted([k.module, k.var, k.point, t, cell]
                            for k, (t, cell) in mc.placement.items()),
        "cycles": [mc.first_cycle, mc.last_cycle],
        "stats": asdict(machine.stats),
        "events": [e.to_dict() for e in machine.events],
    }
    blob = json.dumps(body, sort_keys=True).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def fingerprints(case: dict, sources: dict | None = None
                 ) -> tuple[str, str | None]:
    """``(design, lowering)`` of one case.  ``design`` is ``sha256:<hex>``
    of the design, or ``error:<SynthesisError type>``; ``lowering`` is
    :func:`lowering_fingerprint`, ``None`` for an infeasible case."""
    from repro import api

    sources = sources or _sources()
    try:
        interconnect = api.resolve_interconnect(case["interconnect"])
        state = api.run_pipeline(sources[case["problem"]](),
                                 dict(case["params"]), interconnect,
                                 api.SynthesisOptions())
    except api.SynthesisError as exc:
        return f"error:{type(exc).__name__}", None
    blob = json.dumps(state.design.to_dict(), sort_keys=True).encode()
    return ("sha256:" + hashlib.sha256(blob).hexdigest(),
            lowering_fingerprint(state))


def benchmark_cases() -> list[dict]:
    """The distinct cases of ``DESIGN_POOL`` and ``SWEEP_GRID``, in order."""
    sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))
    import workloads

    cases = dict.fromkeys(workloads.DESIGN_POOL + workloads.SWEEP_GRID)
    return [{"problem": c.problem, "params": dict(c.params),
             "interconnect": c.interconnect} for c in cases]


COUNTERS = ("space.assignments_examined", "space.candidates_enumerated")


def compute(cases: list[dict]
            ) -> tuple[dict[str, str], dict[str, str], dict[str, int]]:
    """The design and lowering fingerprints of every case and the grid's
    summed ``COUNTERS``."""
    from repro.obs import TRACER

    sources = _sources()
    before = {name: TRACER.counters.get(name, 0) for name in COUNTERS}
    t0 = time.perf_counter()
    prints: dict[str, str] = {}
    lowerings: dict[str, str] = {}
    for case in cases:
        label = case_label(case)
        prints[label], lowering = fingerprints(case, sources)
        if lowering is not None:
            lowerings[label] = lowering
    wall = time.perf_counter() - t0
    counts = {name: TRACER.counters.get(name, 0) - before[name]
              for name in COUNTERS}
    print(f"{len(cases)} cases synthesized and lowered in {wall:.1f} s; "
          + ", ".join(f"{name}={n}" for name, n in counts.items()))
    return prints, lowerings, counts


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(REPO / "src"))
    if "--check" in argv:
        if not SNAPSHOT.exists():
            print(f"missing snapshot {SNAPSHOT}; run "
                  "`python tools/check_design_fingerprints.py --write`",
                  file=sys.stderr)
            return 1
        committed = json.loads(SNAPSHOT.read_text())
        current, lowerings, counts = compute(committed["cases"])
        drift = [(label, want, current.get(label))
                 for label, want in committed["fingerprints"].items()
                 if current.get(label) != want]
        if set(lowerings) != set(committed.get("lowerings", {})):
            drift.append(("lowered cases", sorted(committed.get(
                "lowerings", {})), sorted(lowerings)))
        drift += [(f"{label} lowering", want, lowerings.get(label))
                  for label, want in committed.get("lowerings", {}).items()
                  if lowerings.get(label) != want]
        examined = counts["space.assignments_examined"]
        if examined != committed.get("assignments_examined"):
            drift.append(("space.assignments_examined",
                          committed.get("assignments_examined"), examined))
        if not drift:
            print(f"design fingerprints match {SNAPSHOT}")
            return 0
        for label, want, got in drift:
            print(f"{label}: expected {want}, got {got}", file=sys.stderr)
        print(f"\n{len(drift)} snapshot entries drifted", file=sys.stderr)
        return 1
    if "--write" in argv:
        cases = benchmark_cases()
        prints, lowerings, counts = compute(cases)
        snapshot = {"cases": cases,
                    "assignments_examined":
                        counts["space.assignments_examined"],
                    "fingerprints": prints,
                    "lowerings": lowerings}
        SNAPSHOT.parent.mkdir(parents=True, exist_ok=True)
        SNAPSHOT.write_text(json.dumps(snapshot, indent=1) + "\n")
        print(f"wrote {SNAPSHOT} ({len(cases)} cases)")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
