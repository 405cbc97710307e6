"""Experiment E2 — Example 2: recursive convolution.

Paper's claim: "only the forward recurrence has to be considered for a
systolic implementation.  The backward recurrence does not lead to any
reasonable design since it cannot overlap computations of y_{i,k} for
different values of index k."

Reproduction: the forward recurrence's optimal schedule is ``T = (2, -1)``
with makespan ~2n (computations for different k overlap); the backward
recurrence's feedback dependence ``(1, 1-s)`` forces ``T_1 >= s``, so its
best makespan grows like s*n — the overlap factor s/2 separates them, and
widens with the filter order.
"""

import functools

import pytest

from conftest import machine_run
from repro.core import SynthesisOptions, synthesize
from repro.arrays import LINEAR_BIDIR
from repro.deps import module_dependence_matrix
from repro.ir.indexset import Polyhedron
from repro.problems import (
    recursive_convolution_backward,
    recursive_convolution_forward,
    recursive_convolution_inputs,
)
from repro.reference import recursive_convolve
from repro.schedule import optimal_schedule

N, S = 16, 4


def forward_solution():
    system = recursive_convolution_forward()
    deps = module_dependence_matrix(system.modules["rconv"])
    return optimal_schedule(deps, system.modules["rconv"].domain,
                            {"n": N, "s": S})


def backward_solution():
    system = recursive_convolution_backward(S)
    deps = module_dependence_matrix(system.modules["rconv"])
    return optimal_schedule(deps, system.modules["rconv"].domain,
                            {"n": N}, bound=S + 1)


def test_forward_schedule(benchmark):
    sol = benchmark(forward_solution)
    assert sol.schedule.coeffs == (2, -1)
    print(f"\nforward: T = {sol.schedule.as_expr()}, "
          f"makespan {sol.makespan} (~2n = {2 * N})")
    assert sol.makespan <= 2 * N + S


def test_backward_cannot_overlap(benchmark):
    sol = benchmark(backward_solution)
    # T1 >= 1 + (s-1)*T2 >= s: the k loop serialises.
    assert sol.schedule.coeffs[0] >= S
    print(f"\nbackward: best T = {sol.schedule.as_expr()}, "
          f"makespan {sol.makespan} (~s*n = {S * N})")
    assert sol.makespan >= (N - 1) * S


def test_overlap_factor(benchmark):
    fwd = forward_solution()
    bwd = benchmark(backward_solution)
    ratio = bwd.makespan / fwd.makespan
    print(f"\nmakespan ratio backward/forward = {ratio:.2f} "
          f"(paper predicts ~s/2 = {S / 2:.1f})")
    assert ratio > S / 2 * 0.8


def test_forward_design_runs_on_machine(benchmark, rng):
    system = recursive_convolution_forward()
    params = {"n": N, "s": S}
    design = synthesize(system, params, LINEAR_BIDIR,
                        SynthesisOptions(time_bound=2))
    w = [round(rng.uniform(-0.6, 0.6), 3) for _ in range(S)]
    seeds = [round(rng.uniform(-1, 1), 3) for _ in range(S)]
    inputs = recursive_convolution_inputs(w, seeds)
    result, _ = benchmark(machine_run, system, params, design, inputs)
    expected = recursive_convolve(w, seeds, N)
    got = [result.results[(i,)] for i in range(1, N + 1)]
    assert all(abs(a - b) < 1e-9 for a, b in zip(got, expected))
    s = result.stats
    print(f"\nforward design on machine: {s.cycles} cycles, "
          f"{s.cells_used} cells, util {s.utilization:.0%}")
