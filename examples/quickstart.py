#!/usr/bin/env python3
"""Quickstart: synthesize the W2 convolution design and run it.

This walks the paper's Section II pipeline on Example 1 (convolution,
backward recurrence (4)):

1. state the problem as a canonic-form recurrence;
2. solve condition (1) for the optimal time function  T(i,k) = i + k;
3. solve conditions (2)/(3) for the space map          S(i,k) = k;
4. classify the data flows (this is design W2 of Table 1);
5. execute the design on the cycle-accurate systolic machine and compare
   with the sequential reference.

Run:  python examples/quickstart.py
"""

import random

from repro.arrays import LINEAR_BIDIR
from repro.core import synthesize, verify_design
from repro.problems import (
    classify_design,
    convolution_backward,
    convolution_inputs,
)
from repro.reference import convolve
from repro.report import flow_table, render_gantt


def main() -> None:
    n, s = 12, 4
    params = {"n": n, "s": s}

    print("== 1. problem: convolution, backward recurrence (4) ==")
    system = convolution_backward()
    print(f"   index set: 1 <= i <= {n}, 1 <= k <= {s}")

    print("\n== 2-3. synthesis on a bidirectional linear array ==")
    design = synthesize(system, params, LINEAR_BIDIR)
    sched = design.schedules["conv"]
    smap = design.space_maps["conv"]
    print(f"   time  function: T(i,k) = {sched.as_expr()}")
    print(f"   space function: S(i,k) = {smap}")
    print(f"   processors: {design.cell_count}   "
          f"completion time: {design.completion_time} cycles")

    print("\n== 4. data flows (Table 1) ==")
    flows = design.flows()["conv"]
    print(flow_table(flows))
    print(f"   Kung taxonomy: design {classify_design(flows)}")

    print("\n== 5. execution on the systolic machine ==")
    rng = random.Random(0)
    x = [rng.randint(-9, 9) for _ in range(n)]
    w = [rng.randint(-3, 3) for _ in range(s)]
    inputs = convolution_inputs(x, w)
    report = verify_design(design, inputs)
    assert report.ok, report.failures
    stats = report.machine_stats
    print(f"   machine: {stats.cycles} cycles on {stats.cells_used} cells, "
          f"{stats.operations} ops, {stats.hops} hops, "
          f"utilization {stats.utilization:.0%}")
    print(f"   results match sequential reference: "
          f"{report.machine_matches_reference}")
    print(f"   y = {convolve(x, w)}")

    print("\n== cell occupancy ==")
    print(render_gantt(design, "conv"))


if __name__ == "__main__":
    main()
