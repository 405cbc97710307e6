"""Collect a run set: the benchmark once per (workload, seed), as JSON lines.

    python3 benchmarks/e2e/runset.py A.jsonl --seeds 1-10
    python3 benchmarks/e2e/runset.py A.jsonl --pair ../other B.jsonl

Every workload runs once per seed for ``run_seconds`` from BENCHMARK.json.
Each line is ``{"workload", "seed", "wall_s", "result"}`` where ``result``
is the last line ``run.py`` printed.  With ``--pair ROOT OUT`` the same
seeds also run from the checkout at ``ROOT`` into ``OUT``, alternating
which side goes first, so ``compare.py`` can apply the claim rule to the
pairs; ``--trace 1`` collects per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(root: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=root, capture_output=True, text=True, timeout=200)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{root} {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "result": json.loads(lines[-1])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pair", nargs=2, metavar=("ROOT", "OUT"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = [(ROOT, args.out)]
    if args.pair:
        sides.append((Path(args.pair[0]).resolve(), Path(args.pair[1])))
    for workload in WORKLOADS:
        for i, seed in enumerate(args.seeds):
            for root, out in (sides if i % 2 == 0 else sides[::-1]):
                record = run_once(root, workload, seed,
                                  bench["run_seconds"], args.trace)
                with open(out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                res = record["result"]
                print(f"{out.name} {workload} seed={seed} "
                      f"{record['wall_s']:.1f}s correct={res['correct']}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
