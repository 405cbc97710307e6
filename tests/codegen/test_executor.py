"""The one native executor serves both sides of every native check, so its
semantics are pinned here tag by tag: each stock op and each accumulator
composite against the ndarray fast path (:func:`execute_program`) and the
interpreter's own rule (``op.fn`` applied per node), the checked-overflow
edges, and rejection of malformed code streams."""

import random

import numpy as np
import pytest

from repro.codegen import (
    UnsupportedForNative,
    encode_program,
    load_or_build,
    native_available,
)
from repro.ir.ops import ADD, IDENTITY, MAC, MAX, MIN, MIN_PLUS, MUL, make_op
from repro.ir.vector import (
    build_program,
    execute_gathered,
    execute_program,
    fused_int_kernel,
)
from repro.machine.native import native_pass

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this machine")

INT64_MIN = -2**63
INT64_MAX = 2**63 - 1
WIDTH = 12

STOCK = (ADD, MIN_PLUS, MUL, MIN, MAX, MAC)
COMBINE = (ADD, MUL, MIN, MAX)
INNER = (IDENTITY, ADD, MUL, MIN, MAX, MAC)


def composite(h, f):
    """``h(prev, f(*xs))`` built the way the DP problems build it."""
    return make_op(f"{h.name}_after_{f.name}", f.arity + 1,
                   lambda prev, *xs: h.fn(prev, f.fn(*xs)),
                   int_kernel=fused_int_kernel(h, f), components=(h, f))


def one_op_program(op, width=WIDTH):
    """``width`` independent applications of ``op`` to host inputs
    ``x0..x{arity-1}``, each read at index ``(t,)``."""
    arity = op.arity
    inputs = [(j * width + t, f"x{j}", (t,))
              for j in range(arity) for t in range(width)]
    entries = [(arity * width + t, op,
                tuple(j * width + t for j in range(arity)))
               for t in range(width)]
    return build_program((arity + 1) * width, entries, inputs)


def bindings(columns):
    """Host inputs serving ``columns[j][t]`` as ``x{j}(t)``."""
    return {f"x{j}": (lambda t, col=col: col[t])
            for j, col in enumerate(columns)}


def run_native(program, input_sets):
    """``(status, matrix)`` of the executor on the int64 gather."""
    executor, reason = load_or_build()
    assert executor is not None, reason
    values = program.gather().collect(input_sets).matrix(
        0, program.node_count, int_mode=True)
    return executor.run(values, encode_program(program)), values


def interpreted(op, columns):
    return [op.fn(*args) for args in zip(*columns)]


def random_sets(op, rng, seeds=4, lo=-1000, hi=1000):
    return [[[rng.randint(lo, hi) for _ in range(WIDTH)]
             for _ in range(op.arity)] for _ in range(seeds)]


@pytest.mark.parametrize("op", STOCK, ids=lambda op: op.name)
def test_stock_tags_match_fast_path_and_interpreter(op):
    rng = random.Random(op.name)
    sets = random_sets(op, rng)
    program = one_op_program(op)
    input_sets = [bindings(cols) for cols in sets]
    status, got = run_native(program, input_sets)
    assert status == 0
    assert np.array_equal(got, execute_program(program, input_sets))
    for row, cols in zip(got.tolist(), sets):
        assert row[op.arity * WIDTH:] == interpreted(op, cols)


@pytest.mark.parametrize("f", INNER, ids=lambda op: op.name)
@pytest.mark.parametrize("h", COMBINE, ids=lambda op: op.name)
def test_composites_match_fast_path_and_interpreter(h, f):
    op = composite(h, f)
    rng = random.Random(op.name)
    sets = random_sets(op, rng, lo=-40, hi=40)
    program = one_op_program(op)
    input_sets = [bindings(cols) for cols in sets]
    status, got = run_native(program, input_sets)
    assert status == 0
    assert np.array_equal(got, execute_program(program, input_sets))
    for row, cols in zip(got.tolist(), sets):
        assert row[op.arity * WIDTH:] == interpreted(op, cols)


@pytest.mark.parametrize("op", (MIN, MAX, ADD, MUL), ids=lambda op: op.name)
def test_int64_extremes_without_overflow(op):
    edges = [INT64_MIN, INT64_MAX, -1, 0, 1]
    pairs = [(a, b) for a in edges for b in edges
             if INT64_MIN <= op.fn(a, b) <= INT64_MAX]
    columns = [[a for a, _ in pairs], [b for _, b in pairs]]
    program = one_op_program(op, width=len(pairs))
    status, got = run_native(program, [bindings(columns)])
    assert status == 0
    assert got[0, 2 * len(pairs):].tolist() == interpreted(op, columns)


OVERFLOWS = [
    ("add", ADD, [[2**62], [2**62]]),
    ("add-negative", ADD, [[INT64_MIN], [-1]]),
    ("mul", MUL, [[2**32], [2**32]]),
    ("minus-one-times-min", MUL, [[-1], [INT64_MIN]]),
    ("min-times-minus-one", MUL, [[INT64_MIN], [-1]]),
    ("mac-product", MAC, [[0], [2**32], [2**32]]),
    ("mac-sum", MAC, [[INT64_MAX], [1], [1]]),
    ("min-after-mul", composite(MIN, MUL), [[0], [-1], [INT64_MIN]]),
    ("add-after-mac", composite(ADD, MAC), [[0], [0], [2**32], [2**32]]),
]


@pytest.mark.filterwarnings("ignore:exact int64 fast path:RuntimeWarning")
@pytest.mark.parametrize("op, columns", [(op, cols) for _, op, cols
                                         in OVERFLOWS],
                         ids=[name for name, _, _ in OVERFLOWS])
def test_overflow_returns_nonzero_and_reruns_exactly(op, columns):
    program = one_op_program(op, width=1)
    input_sets = [bindings(columns)]
    status, _ = run_native(program, input_sets)
    assert status == 1
    executor, _ = load_or_build()
    got = execute_gathered(program, program.gather().collect(input_sets),
                           0, native_pass(executor, encode_program(program)))
    assert got.dtype == object
    assert got[0, -1] == interpreted(op, columns)[0]


def test_encoding_rejects_nested_and_custom_components():
    custom = make_op("odd", 2, lambda a, b: a ^ b)
    for op in (composite(custom, ADD), composite(MIN, custom),
               composite(MIN, composite(MIN, ADD))):
        with pytest.raises(UnsupportedForNative):
            encode_program(one_op_program(op, width=1))


def test_malformed_streams_are_rejected_before_running():
    program = one_op_program(ADD, width=3)
    code = encode_program(program)
    executor, _ = load_or_build()
    values = np.zeros((2, program.node_count), dtype=np.int64)
    for bad in (code[:-1],                            # truncated record
                np.concatenate([code, code[:3]]),     # dangling header
                np.where(np.arange(len(code)) == 5,   # slot out of range
                         program.node_count, code).astype(np.int32),
                np.where(np.arange(len(code)) == 2,   # unknown tag
                         99, code).astype(np.int32),
                np.where(np.arange(len(code)) == 4,   # arity mismatch
                         1, code).astype(np.int32)):
        assert executor.run(values, np.ascontiguousarray(bad)) == 2
    assert not values.any()
    assert executor.run(values, code) == 0


def test_buffers_are_checked_before_passing_pointers():
    program = one_op_program(ADD, width=3)
    code = encode_program(program)
    executor, _ = load_or_build()
    good = np.zeros((2, program.node_count), dtype=np.int64)
    for values, stream in ((good.astype(np.int32), code),
                           (np.asfortranarray(good), code),
                           (good[:, ::2], code),
                           (good, code.astype(np.int64)),
                           (good, code[::2])):
        with pytest.raises(ValueError):
            executor.run(values, stream)
