"""Compare two run sets against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

``A`` is the parent (or the first set of runs), ``B`` the change (or the
second set); both are files written by ``runset.py``.  One row per
(workload, metric) gives each side's median and quartiles and a verdict:

* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- either side's spread (interquartile range over median)
  exceeds the bound, so no-change cannot be shown; unless every run of B
  reads better than every run of A, which is ``better``;
* ``WIN`` -- the claim rule: B beats A in at least 9/10 of the pairs (runs
  matched by seed, ties counting for neither) and the medians differ by
  more than A's interquartile range;
* ``ok`` otherwise.

Per-layer metrics (traced run sets) have no bound; their rows carry only
the claim rule.  The exit code is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path: Path) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value}, plus failure totals."""
    values: dict[tuple[str, str], dict[int, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            res = rec["result"]
            for name, m in res["metrics"].items():
                values.setdefault((rec["workload"], name), {})[
                    rec["seed"]] = m["value"]
            values.setdefault((rec["workload"], "failed"), {})[
                rec["seed"]] = res["failed"]
    return values


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs: list[float]) -> float:
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(a: dict[int, float], b: dict[int, float], better: str,
            bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0     # sign * value: up is good
    av, bv = list(a.values()), list(b.values())
    aq1, amed, aq3 = quartiles(av)
    bmed = quartiles(bv)[1]
    pairs = [(a[s], b[s]) for s in sorted(a.keys() & b.keys())]
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if (pairs and wins >= 0.9 * len(pairs)
            and sign * (bmed - amed) > aq3 - aq1):
        return "WIN"
    if bound is None:
        return ""
    if min(sign * y for y in bv) > max(sign * x for x in av):
        return "better"
    if spread(av) > bound or spread(bv) > bound:
        return "unresolved"
    if sign * (bmed - amed) < -bound * abs(amed):
        return "regressed"
    return "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a, b = load(args.a), load(args.b)
    print(f"{'workload':<13} {'metric':<30} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'spread A/B':>13} "
          f"{'bound':>6}  verdict")
    regressed = False
    for key in sorted(a.keys() & b.keys()):
        workload, name = key
        if name == "failed":
            fa, fb = sum(a[key].values()), sum(b[key].values())
            if fb > fa:
                print(f"{workload:<13} B failed {fb} operations, A {fa}: "
                      "no gain counts")
            continue
        m = spec[name]
        bound = m.get("bound")
        av, bv = list(a[key].values()), list(b[key].values())
        aq, bq = quartiles(av), quartiles(bv)
        change = (bq[1] - aq[1]) / abs(aq[1]) if aq[1] else 0.0
        v = verdict(a[key], b[key], m["better"], bound)
        regressed |= v == "regressed"
        print(f"{workload:<13} {name:<30} "
              f"{aq[1]:>12.5g} [{aq[0]:>9.5g}, {aq[2]:>9.5g}] "
              f"{bq[1]:>12.5g} [{bq[0]:>9.5g}, {bq[2]:>9.5g}] "
              f"{change:>+8.1%} {spread(av):>6.1%}/{spread(bv):<6.1%} "
              f"{'' if bound is None else f'{bound:.0%}':>6}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
