"""Experiment X1 (beyond the paper) — matrix multiplication, the uniform
Section-II machinery at full dimensionality.

Sanity anchor for the whole pipeline on a problem with a well-known design
space: a 3-index uniform recurrence mapped onto 2-D arrays.  The wavefront
schedule ``T = i + j + k``, an n×n array with one stationary stream, and
``3(n-1)`` completion are classic results the solvers must rediscover.
"""

import functools

import numpy as np
import pytest

from conftest import machine_run
from repro.arrays import HEX_6, MESH_4
from repro.core import synthesize
from repro.problems import matmul_inputs, matmul_system

N = 6
PARAMS = {"n": N}


@functools.lru_cache(maxsize=None)
def design_on(pattern_name: str):
    pattern = {"mesh": MESH_4, "hex": HEX_6}[pattern_name]
    return synthesize(matmul_system(), PARAMS, pattern)


def test_matmul_synthesis_mesh(benchmark):
    design = benchmark.pedantic(
        synthesize, args=(matmul_system(), PARAMS, MESH_4),
        rounds=1, iterations=1)
    assert design.schedules["mm"].coeffs == (1, 1, 1)
    assert design.cell_count == N * N
    assert design.completion_time == 3 * (N - 1)
    flows = design.flows()["mm"]
    stationary = [v for v, f in flows.items() if f.stays]
    print(f"\nmesh: T=i+j+k, {design.cell_count} cells, "
          f"completion {design.completion_time}, stationary {stationary}")
    assert len(stationary) == 1


def test_matmul_machine_mesh(benchmark):
    system = matmul_system()
    design = design_on("mesh")
    rng = np.random.default_rng(7)
    A = rng.integers(-9, 10, size=(N, N))
    B = rng.integers(-9, 10, size=(N, N))
    inputs = matmul_inputs(A, B)
    result, _ = benchmark(machine_run, system, PARAMS, design, inputs)
    C = A @ B
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            assert result.results[(i, j)] == C[i - 1, j - 1]
    s = result.stats
    print(f"\nmesh machine: {s.cycles} cycles, {s.cells_used} cells, "
          f"{s.operations} ops ({s.operations / s.cycles:.0f}/cycle), "
          f"util {s.utilization:.0%}")


def test_matmul_hex_vs_mesh(benchmark):
    hexd = benchmark.pedantic(
        synthesize, args=(matmul_system(), PARAMS, HEX_6),
        rounds=1, iterations=1)
    mesh = design_on("mesh")
    print(f"\nhex: {hexd.cell_count} cells vs mesh {mesh.cell_count}; "
          f"completion {hexd.completion_time} vs {mesh.completion_time}")
    assert hexd.cell_count <= mesh.cell_count
    assert hexd.completion_time <= mesh.completion_time
