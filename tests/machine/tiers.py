"""The native engine's two tiers, for equivalence tests against the
interpreter oracle.

``native`` runs the C executor where a toolchain exists (the ndarray
kernels otherwise); ``vector`` forces the ndarray kernels with
``$REPRO_NO_NATIVE``.  Both drop to exact object arrays for non-int64
inputs and on int64 overflow.
"""

from contextlib import nullcontext

from repro.codegen import native_disabled
from repro.ir import trace_execution
from repro.machine import compile_design, run

TIERS = ("native", "vector")


def tier(name):
    """Context manager selecting one of :data:`TIERS`."""
    return native_disabled() if name == "vector" else nullcontext()


def microcode(design, inputs):
    """``(microcode, trace)`` of ``design`` on one input binding."""
    trace = trace_execution(design.system, design.params, inputs)
    mc = compile_design(trace, design.schedules, design.space_maps,
                        design.interconnect.decomposer())
    return mc, trace


def run_all(mc, trace, inputs, **kwargs) -> dict:
    """The interpreter and ``native`` on each tier, keyed by name."""
    runs = {"interpreted": run(mc, trace, inputs, **kwargs)}
    for name in TIERS:
        with tier(name):
            runs[name] = run(mc, trace, inputs, engine="native", **kwargs)
    return runs


def cross_check(design, inputs, strict=True, reclaim_registers=True):
    """Run the interpreter and both tiers on one design and assert
    identical values, results and stats; returns the runs by name."""
    mc, trace = microcode(design, inputs)
    runs = run_all(mc, trace, inputs, strict=strict,
                   reclaim_registers=reclaim_registers)
    oracle = runs["interpreted"]
    for name in TIERS:
        assert runs[name].values == oracle.values, name
        assert runs[name].results == oracle.results, name
        assert runs[name].stats == oracle.stats, name
    return runs
