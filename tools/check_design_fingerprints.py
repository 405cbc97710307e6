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


def fingerprint(case: dict, sources: dict | None = None) -> str:
    """``sha256:<hex>`` of the design, or ``error:<SynthesisError type>``."""
    from repro import api

    sources = sources or _sources()
    try:
        design = api.synthesize(sources[case["problem"]](),
                                dict(case["params"]),
                                api.resolve_interconnect(case["interconnect"]))
    except api.SynthesisError as exc:
        return f"error:{type(exc).__name__}"
    blob = json.dumps(design.to_dict(), sort_keys=True).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def benchmark_cases() -> list[dict]:
    """The distinct cases of ``DESIGN_POOL`` and ``SWEEP_GRID``, in order."""
    sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))
    import workloads

    cases = dict.fromkeys(workloads.DESIGN_POOL + workloads.SWEEP_GRID)
    return [{"problem": c.problem, "params": dict(c.params),
             "interconnect": c.interconnect} for c in cases]


COUNTERS = ("space.assignments_examined", "space.candidates_enumerated")


def compute(cases: list[dict]) -> tuple[dict[str, str], dict[str, int]]:
    """The fingerprint of every case and the grid's summed ``COUNTERS``."""
    from repro.obs import TRACER

    sources = _sources()
    before = {name: TRACER.counters.get(name, 0) for name in COUNTERS}
    t0 = time.perf_counter()
    prints = {case_label(c): fingerprint(c, sources) for c in cases}
    wall = time.perf_counter() - t0
    counts = {name: TRACER.counters.get(name, 0) - before[name]
              for name in COUNTERS}
    print(f"{len(cases)} cases synthesized in {wall:.1f} s; "
          + ", ".join(f"{name}={n}" for name, n in counts.items()))
    return prints, counts


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(REPO / "src"))
    if "--check" in argv:
        if not SNAPSHOT.exists():
            print(f"missing snapshot {SNAPSHOT}; run "
                  "`python tools/check_design_fingerprints.py --write`",
                  file=sys.stderr)
            return 1
        committed = json.loads(SNAPSHOT.read_text())
        current, counts = compute(committed["cases"])
        drift = [(label, want, current.get(label))
                 for label, want in committed["fingerprints"].items()
                 if current.get(label) != want]
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
        prints, counts = compute(cases)
        snapshot = {"cases": cases,
                    "assignments_examined":
                        counts["space.assignments_examined"],
                    "fingerprints": prints}
        SNAPSHOT.parent.mkdir(parents=True, exist_ok=True)
        SNAPSHOT.write_text(json.dumps(snapshot, indent=1) + "\n")
        print(f"wrote {SNAPSHOT} ({len(cases)} cases)")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
