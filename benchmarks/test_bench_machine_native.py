"""Benchmark VIII — the native (C executor) engine.

The native engine's ndarray tier (Benchmark VII) already runs each level
as one ndarray kernel, but every group still pays ufunc dispatch,
gather/scatter temporaries and the checked-overflow probes in
Python/NumPy.  Its C tier encodes the *same* level-grouped schedule as an ``int32``
instruction stream and runs it on one fixed C executor — sequential
per-level loops over integer-indexed slots with ``__builtin_*_overflow``
checks — compiled once per toolchain and content-addressed, so no design
compiles code of its own.

This file pins three claims:

* **bit-identity** — on the Figure 1 DP workload the native machine run
  equals the interpreted oracle exactly (values, results, stats);
* **kernel speed** — one warm C-tier value pass is at least 3x faster
  than the ndarray tier's single-run pass at n = 18 (median of
  repeated in-process passes, both tiers warm);
* **one executor** — lowering other designs reuses the executor already
  loaded: no second ``cc`` invocation, observable via the ``--stats``
  counters.

Everything here requires a C toolchain; without one the whole module
skips (the native engine itself degrades gracefully — that path is
covered in ``tests/machine/test_native.py``).

``REPRO_BENCH_N`` overrides the problem size (CI smoke uses a small n).
"""

import os
import random
import time

import pytest

from conftest import machine_run, record_pin
from repro.arrays import FIG1_UNIDIRECTIONAL
from repro.codegen import native_available, native_disabled
from repro.core import synthesize
from repro.ir import trace_execution
from repro.machine import compile_design, lower, nativize
from repro.obs import TRACER
from repro.problems import dp_inputs, dp_system

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this machine")

N = int(os.environ.get("REPRO_BENCH_N", "18"))
PARAMS = {"n": N}
REPEATS = 30


def _workload():
    system = dp_system()
    design = synthesize(system, PARAMS, FIG1_UNIDIRECTIONAL)
    rng = random.Random(1986)
    inputs = dp_inputs([rng.randint(1, 40) for _ in range(N - 1)])
    return system, design, inputs


def _machines(design, inputs):
    """One ndarray-tier and one warm C-tier machine over one lowering."""
    trace = trace_execution(design.system, design.params, inputs)
    mc = compile_design(trace, design.schedules, design.space_maps,
                        design.interconnect.decomposer())
    compiled = lower(mc, trace)
    with native_disabled():
        vm = nativize(compiled)
    nm = nativize(compiled)
    assert nm.code is not None, nm.fallback_reason
    return vm, nm


def _median_seconds(fn, repeats=REPEATS):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def test_bit_identical_machine_run():
    system, design, inputs = _workload()
    interp, _ = machine_run(system, PARAMS, design, inputs,
                            engine="interpreted")
    native, _ = machine_run(system, PARAMS, design, inputs,
                            engine="native")
    assert native.values == interp.values
    assert native.results == interp.results
    assert native.stats == interp.stats


def test_native_single_run_speedup(benchmark):
    """>= 3x over the ndarray tier's single-run pass at n = 18."""
    _, design, inputs = _workload()
    vm, nm = _machines(design, inputs)
    vm.execute(inputs, want_values=False)       # both tiers warm
    nm.execute(inputs, want_values=False)

    fast = _median_seconds(
        lambda: nm.execute(inputs, want_values=False))
    slow = _median_seconds(
        lambda: vm.execute(inputs, want_values=False))
    speedup = slow / fast
    print(f"\nn={N}: vector {slow * 1e3:.3f} ms, "
          f"native {fast * 1e3:.3f} ms, speedup {speedup:.1f}x")
    record_pin("machine_native", n=N,
               vector_ms=round(slow * 1e3, 3),
               native_ms=round(fast * 1e3, 3),
               speedup=round(speedup, 2))
    assert speedup >= 3.0
    benchmark(lambda: nm.execute(inputs, want_values=False))


def test_one_executor_serves_every_design():
    """Lowering a second and third design compiles nothing new."""
    _, design, inputs = _workload()
    _, first = _machines(design, inputs)      # ensure the executor exists
    compiles = TRACER.counters.get("native.compiles", 0)
    for n in (N - 1, N - 2):
        other = synthesize(dp_system(), {"n": n}, FIG1_UNIDIRECTIONAL)
        rng = random.Random(n)
        _, nm = _machines(other, dp_inputs([rng.randint(1, 40)
                                            for _ in range(n - 1)]))
        assert nm.executor is first.executor
    assert TRACER.counters.get("native.compiles", 0) == compiles
