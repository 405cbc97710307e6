"""Fuzzing the whole uniform pipeline with randomly generated problems.

Hypothesis generates random broadcast-form weighted reductions (random
stream index maps, random accumulation direction, random inputs); the
transformer derives a canonic recurrence, the synthesizer maps it onto a
linear array, and the systolic machine must agree with the reference
evaluator — which itself must agree with a direct dumb evaluation of the
reduction.  Infeasible random instances (no valid schedule on the array)
are skipped, not failed.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arrays import LINEAR_BIDIR
from repro.core import SynthesisOptions, synthesize
from repro.ir import run_system
from repro.ir.affine import const, var
from repro.ir.ops import ADD, MUL
from repro.ir.evaluate import trace_execution
from repro.machine import compile_design, run
from repro.schedule import NoScheduleExists
from repro.space import NoSpaceMapExists
from repro.transform import StreamSpec, WeightedReduction, build_recurrence

I, K = var("i"), var("k")

N, S = 6, 3
PARAMS = {"n": N, "s": S}

# Host-index shapes for the two streams: (coef_i, coef_k, offset).
INDEX_SHAPES = [(0, 1, 0), (1, 0, 0), (1, 1, 0), (1, -1, 0),
                (1, 1, -1), (0, 1, 1), (1, -1, 1)]


def reduction_from(shape_a, shape_b):
    def expr(shape):
        a, b, c = shape
        return a * I + b * K + const(c)

    return WeightedReduction(
        name="fuzz",
        dims=("i", "k"),
        outer_range=(const(1), var("n")),
        inner_range=(const(1), var("s")),
        streams=(StreamSpec("u", (expr(shape_a),)),
                 StreamSpec("v", (expr(shape_b),))),
        term=MUL,
        combine=ADD,
        params=("n", "s"))


def dumb_eval(shape_a, shape_b, u, v):
    """Direct evaluation of the reduction, no IR involved."""

    def fetch(table, idx):
        return table.get(idx, 0)

    out = {}
    for i in range(1, N + 1):
        acc = 0
        for k in range(1, S + 1):
            ia = shape_a[0] * i + shape_a[1] * k + shape_a[2]
            ib = shape_b[0] * i + shape_b[1] * k + shape_b[2]
            acc += fetch(u, ia) * fetch(v, ib)
        out[(i,)] = acc
    return out


@settings(max_examples=25, deadline=None)
@given(
    shape_a=st.sampled_from(INDEX_SHAPES),
    shape_b=st.sampled_from(INDEX_SHAPES),
    direction=st.sampled_from(["backward", "forward"]),
    values=st.lists(st.integers(-5, 5), min_size=40, max_size=40),
)
def test_random_reductions_end_to_end(shape_a, shape_b, direction, values):
    reduction = reduction_from(shape_a, shape_b)
    system = build_recurrence(reduction, direction)

    # Random (sparse-ish) host tables over the index range the shapes reach.
    span = range(-2 * (N + S), 2 * (N + S) + 1)
    u = {idx: values[abs(idx) % 20] for idx in span}
    v = {idx: values[20 + abs(idx) % 20] for idx in span}
    inputs = {"u": lambda m: u.get(m, 0), "v": lambda m: v.get(m, 0)}

    # 1. IR evaluator agrees with the dumb evaluation.
    res = run_system(system, PARAMS, inputs)
    expected = dumb_eval(shape_a, shape_b, u, v)
    assert res == expected

    # 2. Synthesize; skip instances the linear array cannot host.
    try:
        design = synthesize(system, PARAMS, LINEAR_BIDIR,
                            SynthesisOptions(time_bound=2))
    except (NoScheduleExists, NoSpaceMapExists):
        assume(False)
        return

    # 3. The machine agrees with everything.
    trace = trace_execution(system, PARAMS, inputs)
    mc = compile_design(trace, design.schedules, design.space_maps,
                        LINEAR_BIDIR.decomposer())
    machine = run(mc, trace, inputs, strict=True)
    assert machine.results == expected
