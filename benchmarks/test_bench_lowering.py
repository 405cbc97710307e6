"""Benchmark XIII — the structural lowering on node-id arrays.

A solved design is lowered in four stages: the execution plan
(:func:`repro.ir.evaluate.build_execution_plan`), placement and routing
(:func:`repro.machine.microcode.compile_design`), the native machine
(:func:`repro.machine.native.lower`) and the reference program
(:func:`repro.ir.vector.lower_plan`).  All four work on dense node-id
arrays; their record-walking predecessors are kept as test oracles
(``tests/ir/plan_oracle.py``, ``tests/machine/lower_oracle.py``).  This
file pins, over the feasible designs of the end-to-end benchmark's
``design_cold`` pool:

* **bit-identity** — every stage's output equals its oracle's (plans
  field by field, microcode, machines and encoded programs);
* **speed** — the four stages together are at least 1.5x faster than the
  oracles (each stage's best of five interleaved repetitions per design,
  summed over the pool).
"""

import gc
import sys
import time
from pathlib import Path

import pytest

from conftest import record_pin
from repro import api
from repro.ir import SystemTrace, build_execution_plan, lower_plan
from repro.machine import compile_design, lower

from tests.ir import plan_oracle
from tests.ir.test_plan_oracle import assert_same_plan, assert_same_program
from tests.machine import lower_oracle
from tests.machine.test_lower_oracle import assert_same_machine

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
import oracle  # noqa: E402
from workloads import DESIGN_POOL  # noqa: E402

REPEATS = 5
MIN_SPEEDUP = 1.5


@pytest.fixture(scope="module")
def pool():
    """``(label, design, decomposer, plan, trace, microcode)`` of every
    feasible pool case."""
    out = []
    for case in DESIGN_POOL:
        try:
            design = api.synthesize(
                oracle.SOURCES[case.problem](), case.params_dict,
                api.resolve_interconnect(case.interconnect))
        except api.SynthesisError:
            continue
        decomposer = design.interconnect.decomposer()
        plan = build_execution_plan(design.system, design.params)
        trace = SystemTrace(plan)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            decomposer)
        out.append((case.label, design, decomposer, plan, trace, mc))
    assert len(out) == 29
    return out


STAGES = {
    "plan": (
        lambda d, dec, plan, tr, mc: build_execution_plan(d.system,
                                                          d.params),
        lambda d, dec, plan, tr, mc: plan_oracle.build_execution_plan(
            d.system, d.params)),
    "compile": (
        lambda d, dec, plan, tr, mc: compile_design(
            tr, d.schedules, d.space_maps, dec),
        lambda d, dec, plan, tr, mc: lower_oracle.compile_design(
            tr, d.schedules, d.space_maps, dec)),
    "lower": (
        lambda d, dec, plan, tr, mc: lower(mc, tr),
        lambda d, dec, plan, tr, mc: lower_oracle.lower(mc, tr)),
    "lower_plan": (
        lambda d, dec, plan, tr, mc: lower_plan(plan),
        lambda d, dec, plan, tr, mc: plan_oracle.lower_plan(plan)),
}


def test_stages_match_oracles(pool):
    for label, design, dec, plan, trace, mc in pool:
        assert_same_plan(build_execution_plan(design.system, design.params),
                         plan_oracle.build_execution_plan(design.system,
                                                          design.params))
        assert mc == lower_oracle.compile_design(
            trace, design.schedules, design.space_maps, dec), label
        assert_same_machine(lower(mc, trace, record_events=True),
                            lower_oracle.lower(mc, trace,
                                               record_events=True))
        assert_same_program(lower_plan(plan), plan_oracle.lower_plan(plan))


def _best(fn, args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_lowering_speedup(pool):
    """The four stages together >= 1.5x over the oracles."""
    totals = {name: [0.0, 0.0] for name in STAGES}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _, *args in pool:
            for name, (new, old) in STAGES.items():
                best_new = best_old = float("inf")
                for _ in range(REPEATS):
                    best_old = min(best_old, _best(old, args))
                    best_new = min(best_new, _best(new, args))
                totals[name][0] += best_new
                totals[name][1] += best_old
    finally:
        if enabled:
            gc.enable()
    new_s = sum(t[0] for t in totals.values())
    old_s = sum(t[1] for t in totals.values())
    speedup = old_s / new_s
    for name, (new, old) in totals.items():
        print(f"\n{name:>10}: oracle {old * 1e3:6.1f} ms, "
              f"arrays {new * 1e3:6.1f} ms, {old / new:.2f}x", end="")
    print(f"\n  combined: oracle {old_s * 1e3:.1f} ms, arrays "
          f"{new_s * 1e3:.1f} ms, {speedup:.2f}x")
    record_pin("lowering", designs=len(pool), oracle_ms=old_s * 1e3,
               arrays_ms=new_s * 1e3, speedup=speedup,
               **{f"{name}_ms": new * 1e3
                  for name, (new, _) in totals.items()})
    assert speedup >= MIN_SPEEDUP
