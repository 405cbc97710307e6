"""Experiment T1 — Table 1: systolic designs from the backward convolution
recurrence (4).

Paper's claim: the backward recurrence yields design **W2** (output moves at
speed 1, input moves in the same direction at speed 1/2, weights stay) with
``T(i,k) = i + k`` and ``S(i,k) = k``; designs W1 and R2 are *not* reachable
from this recurrence.
"""

import pytest

from conftest import machine_run
from repro.arrays import LINEAR_BIDIR
from repro.core import explore_uniform, synthesize
from repro.problems import (
    classify_design,
    convolution_backward,
    convolution_inputs,
)
from repro.reference import convolve
from repro.report import design_table

PARAMS = {"n": 16, "s": 4}


def named_designs():
    designs = explore_uniform(convolution_backward(), PARAMS, LINEAR_BIDIR,
                              time_bound=2)
    named = {}
    for d in designs:
        label = classify_design(d.flows)
        if label and label not in named:
            named[label] = d
    return named, designs


def test_table1_design_set(benchmark):
    named, designs = benchmark(named_designs)
    print("\n" + design_table(
        sorted(named.items()),
        "Table 1 (reproduced) — backward recurrence (4), "
        f"n={PARAMS['n']}, s={PARAMS['s']}"))
    # W2 arises; W1 and R2 do not (the paper's disjointness claim).
    assert "W2" in named
    assert "W1" not in named and "R2" not in named


def test_table1_w2_transformations(benchmark):
    design = benchmark(synthesize, convolution_backward(), PARAMS,
                       LINEAR_BIDIR)
    # T(i,k) = i + k and S(i,k) = k — the exact paper solution.
    assert design.schedules["conv"].coeffs == (1, 1)
    assert design.space_maps["conv"].matrix == ((0, 1),)
    flows = design.flows()["conv"]
    assert flows["w"].stays
    assert flows["y"].speed == 1 and flows["x"].speed.numerator == 1 \
        and flows["x"].speed.denominator == 2
    assert flows["y"].direction == flows["x"].direction
    print(f"\nW2: T={design.schedules['conv'].as_expr()}, "
          f"S={design.space_maps['conv']}, cells={design.cell_count}, "
          f"completion={design.completion_time}")


def test_table1_w2_machine(benchmark, rng):
    system = convolution_backward()
    design = synthesize(system, PARAMS, LINEAR_BIDIR)
    x = [rng.randint(-9, 9) for _ in range(PARAMS["n"])]
    w = [rng.randint(-3, 3) for _ in range(PARAMS["s"])]
    inputs = convolution_inputs(x, w)

    result, _ = benchmark(machine_run, system, PARAMS, design, inputs)
    got = [result.results[(i,)] for i in range(1, PARAMS["n"] + 1)]
    assert got == convolve(x, w)
    s = result.stats
    print(f"\nmachine: {s.cycles} cycles, {s.cells_used} cells, "
          f"{s.operations} ops, {s.hops} hops, util {s.utilization:.0%}")
