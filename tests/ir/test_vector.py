"""The level-grouped kernel engine against the interpreter oracle:
plan-level equivalence (every node's value against :func:`execute_plan`),
the exact int64/object dtype policy, the batch axis, and the lowering's
level/group structure."""

from fractions import Fraction

import numpy as np
import pytest

from repro.ir import (
    ADD,
    ComputeRule,
    Equation,
    InputRule,
    Module,
    OutputSpec,
    Polyhedron,
    RecurrenceSystem,
    Ref,
    ValueKey,
    build_execution_plan,
    execute_plan,
    lower_plan,
    make_op,
    trace_execution,
)
from repro.codegen import native_available
from repro.ir.affine import var
from repro.ir.predicates import at_least
from repro.ir.vector import (
    IntegerFallback,
    _checked_add,
    _checked_mul,
    build_program,
    fused_int_kernel,
)
from tests.ir.vector_oracle import execute_program

#: Deliberate fallbacks raise the one-time int64 fallback RuntimeWarning,
#: which this suite otherwise treats as an error.
expected_fallback = pytest.mark.filterwarnings(
    "ignore:exact int64 fast path:RuntimeWarning")

I = var("i")


def fib_system(op=ADD):
    domain = Polyhedron.box({"i": (1, 10)})
    eqn = Equation("x", (
        InputRule("seed", (I,), guard=at_least(2 - I, 0)),
        ComputeRule(op, (Ref.of("x", I - 1), Ref.of("x", I - 2)),
                    guard=at_least(I, 3)),
    ))
    m = Module("fib", ("i",), domain, [eqn])
    return RecurrenceSystem(
        "fib", [m], outputs=[OutputSpec("fib", "x", domain, (I,))],
        input_names=("seed",))


#: The last Fibonacci value of :func:`fib_system`.
FIB10 = ValueKey("fib", "x", (10,))


def kernel_values(plan, input_sets, program=None):
    """Per binding set, every node's value from the kernel program of
    ``plan``, keyed like the events of :func:`execute_plan`."""
    program = lower_plan(plan) if program is None else program
    return [dict(zip(plan.keys, row))
            for row in execute_program(program, input_sets).tolist()]


def interpreted_values(plan, inputs):
    return {k: e.value for k, e in execute_plan(plan, inputs).events.items()}


def assert_matches_plan(plan, inputs, program=None):
    """The kernel program computes :func:`execute_plan`'s value at every
    node; returns those values."""
    got = kernel_values(plan, [inputs], program)[0]
    assert got == interpreted_values(plan, inputs)
    return got


class TestPlanEquivalence:
    def test_fibonacci(self):
        plan = build_execution_plan(fib_system(), {})
        assert_matches_plan(plan, {"seed": lambda i: 1})

    def test_dp_system(self, dp_sys, dp_params, dp_host_inputs):
        plan = build_execution_plan(dp_sys, dp_params)
        assert_matches_plan(plan, dp_host_inputs)

    def test_missing_input_binding(self):
        plan = build_execution_plan(fib_system(), {})
        with pytest.raises(KeyError):
            execute_program(lower_plan(plan), [{}])

    def test_reusable_lowered_program(self):
        plan = build_execution_plan(fib_system(), {})
        program = lower_plan(plan)
        for seed in (1, 2, 5):
            got = kernel_values(plan, [{"seed": lambda i: seed}], program)
            assert got[0][FIB10] == 55 * seed


class TestDtypePolicy:
    def test_integer_path_stays_exact_python_int(self):
        plan = build_execution_plan(fib_system(), {})
        got = assert_matches_plan(plan, {"seed": lambda i: 1})
        assert got[FIB10] == 55
        assert type(got[FIB10]) is int

    @expected_fallback
    def test_fraction_inputs_fall_back_to_object(self):
        plan = build_execution_plan(fib_system(), {})
        got = assert_matches_plan(plan, {"seed": lambda i: Fraction(1, 3)})
        assert isinstance(got[FIB10], Fraction)

    @expected_fallback
    def test_huge_ints_overflow_to_object_path(self):
        plan = build_execution_plan(fib_system(), {})
        got = assert_matches_plan(plan, {"seed": lambda i: 2**62})
        assert got[FIB10] == 55 * 2**62     # exceeds int64

    @expected_fallback
    def test_input_wider_than_int64_falls_back(self):
        plan = build_execution_plan(fib_system(), {})
        assert_matches_plan(plan, {"seed": lambda i: 2**100})

    def test_custom_op_uses_object_kernel(self):
        # Tuple-valued custom op: no stock int64 kernel may apply.
        pair = make_op("pair", 2, lambda a, b: (a, b))
        plan = build_execution_plan(fib_system(op=pair), {})
        program = lower_plan(plan)
        assert not program.int_ok
        assert_matches_plan(plan, {"seed": lambda i: i}, program)

    def test_same_name_custom_op_misses_fast_path(self):
        # Equality on Op ignores fn; the fast path must not.
        fake_add = make_op("add", 2, lambda a, b: a - b)
        assert fake_add == ADD
        plan = build_execution_plan(fib_system(op=fake_add), {})
        program = lower_plan(plan)
        assert not program.int_ok
        assert_matches_plan(plan, {"seed": lambda i: 1}, program)

    def test_custom_op_with_int_kernel_stays_fast(self):
        # An op may carry its own exact kernel (the fused DP body does).
        plus = make_op("plus3", 2, lambda a, b: a + b,
                       int_kernel=_checked_add)
        plan = build_execution_plan(fib_system(op=plus), {})
        program = lower_plan(plan)
        assert program.int_ok
        assert_matches_plan(plan, {"seed": lambda i: 1}, program)

    def test_fused_dp_body_takes_fast_path(self):
        from repro.problems import dp_system

        plan = build_execution_plan(dp_system(), {"n": 6})
        assert lower_plan(plan).int_ok

    def test_fused_kernel_requires_stock_components(self):
        from repro.ir import MIN, MIN_PLUS

        assert fused_int_kernel(MIN, MIN_PLUS) is not None
        custom = make_op("weird", 2, lambda a, b: a * b - 1)
        assert fused_int_kernel(MIN, custom) is None
        assert fused_int_kernel(custom, MIN_PLUS) is None
        # Same-name impostor: fn identity is checked, not op equality.
        fake_min = make_op("min", 2, lambda a, b: a)
        assert fused_int_kernel(fake_min, MIN_PLUS) is None

    def test_fused_kernel_accepts_any_body_arity(self):
        # Restructured systems fuse combine ∘ body where the body may be
        # unary (IDENTITY) or binary; the fused kernel is variadic.
        from repro.ir import IDENTITY, MIN, MIN_PLUS

        unary = fused_int_kernel(MIN, IDENTITY)
        assert unary is not None
        prev = np.array([5, 1], dtype=np.int64)
        x = np.array([3, 4], dtype=np.int64)
        assert unary(prev, x).tolist() == [3, 1]
        binary = fused_int_kernel(MIN, MIN_PLUS)
        assert binary(prev, x, x).tolist() == [5, 1]

    @expected_fallback
    def test_fused_kernel_overflow_falls_back_exactly(self):
        from repro.problems import dp_inputs, dp_system

        plan = build_execution_plan(dp_system(), {"n": 5})
        got = assert_matches_plan(plan, dp_inputs([2**62] * 4))
        assert any(v > 2**63 for v in got.values())

    @expected_fallback
    def test_bool_inputs_fall_back(self):
        plan = build_execution_plan(fib_system(), {})
        assert_matches_plan(plan, {"seed": lambda i: True})


class TestFallbackObservability:
    def test_counter_counts_and_warning_fires_once(self, monkeypatch):
        import warnings

        import repro.ir.vector as vec
        from repro.obs import TRACER

        monkeypatch.setattr(vec, "_fallback_warned", False)
        program = lower_plan(build_execution_plan(fib_system(), {}))
        inputs = [{"seed": lambda i: Fraction(1, 3)}]
        before = TRACER.counters.get("vector.int64_fallbacks", 0)
        with pytest.warns(RuntimeWarning, match="int64 fast path"):
            execute_program(program, inputs)
        assert TRACER.counters.get("vector.int64_fallbacks", 0) == before + 1
        # Later fallbacks keep counting but never warn again.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            execute_program(program, inputs)
        assert TRACER.counters.get("vector.int64_fallbacks", 0) == before + 2


class TestCheckedKernels:
    def test_add_overflow_raises(self):
        big = np.array([2**62, 1], dtype=np.int64)
        with pytest.raises(IntegerFallback):
            _checked_add(big, big)

    def test_add_in_range_ok(self):
        a = np.array([2**62, -5], dtype=np.int64)
        b = np.array([-(2**62), 7], dtype=np.int64)
        assert _checked_add(a, b).tolist() == [0, 2]

    def test_mul_overflow_raises(self):
        a = np.array([2**33], dtype=np.int64)
        with pytest.raises(IntegerFallback):
            _checked_mul(a, a)

    def test_mul_with_zero_operand_ok(self):
        a = np.array([0, 3], dtype=np.int64)
        b = np.array([2**62, 4], dtype=np.int64)
        assert _checked_mul(a, b).tolist() == [0, 12]

    def test_mul_neg_one_times_int64_min_falls_back(self):
        # Regression (found by 'repro fuzz'): -1 * INT64_MIN wraps back to
        # INT64_MIN, and the quotient probe c // -1 overflows identically,
        # so the old check declared the wrapped product exact.
        int64_min = np.iinfo(np.int64).min
        for a, b in [(-1, int64_min), (int64_min, -1)]:
            with pytest.raises(IntegerFallback):
                _checked_mul(np.array([a], dtype=np.int64),
                             np.array([b], dtype=np.int64))

    def test_mul_neg_one_in_range_stays_exact(self):
        # The largest products involving -1 that still fit must not be
        # kicked off the fast path.
        int64_min = np.iinfo(np.int64).min
        a = np.array([-1, int64_min + 1, -1], dtype=np.int64)
        b = np.array([int64_min + 1, -1, 9], dtype=np.int64)
        assert _checked_mul(a, b).tolist() == [2**63 - 1, 2**63 - 1, -9]


class TestBatchAxis:
    def test_batch_matches_loop(self):
        plan = build_execution_plan(fib_system(), {})
        input_sets = [{"seed": (lambda i, s=s: s)} for s in range(1, 6)]
        batch = kernel_values(plan, input_sets)
        assert len(batch) == 5
        for bindings, got in zip(input_sets, batch):
            assert got == interpreted_values(plan, bindings)

    def test_empty_batch(self):
        plan = build_execution_plan(fib_system(), {})
        assert execute_program(lower_plan(plan), []).shape == \
            (0, plan.node_count)

    @expected_fallback
    def test_one_fraction_seed_demotes_whole_batch_exactly(self):
        # A single non-integer instantiation sends the *pass* to the object
        # path; every seed must still match its own interpreter run.
        plan = build_execution_plan(fib_system(), {})
        input_sets = [{"seed": lambda i: 2},
                      {"seed": lambda i: Fraction(1, 2)}]
        batch = kernel_values(plan, input_sets)
        for bindings, got in zip(input_sets, batch):
            assert got == interpreted_values(plan, bindings)


class TestLazyEvents:
    def test_execute_plan_defers_event_build(self):
        plan = build_execution_plan(fib_system(), {})
        trace = execute_plan(plan, {"seed": lambda i: 1})
        assert trace._pending is not None      # no Event objects built yet
        assert trace.results[(10,)] == 55      # results stay eager
        events = trace.events
        assert trace._pending is None
        assert events[ValueKey("fib", "x", (10,))].value == 55

    def test_trace_execution_contract_unchanged(self):
        trace = trace_execution(fib_system(), {}, {"seed": lambda i: 1})
        assert trace.events[ValueKey("fib", "x", (5,))].value == 5

    def test_events_setter_clears_pending(self):
        plan = build_execution_plan(fib_system(), {})
        trace = execute_plan(plan, {"seed": lambda i: 1})
        trace.events = {}
        assert trace.events == {}


@pytest.mark.skipif(not native_available(),
                    reason="no C toolchain on this machine")
class TestNativeKernel:
    """The native executor against the ndarray fast path, at the level of
    one lowered program — the fourth engine's innermost contract."""

    def run_both(self, program, input_sets, tmp_path):
        from repro.codegen import encode_program, load_or_build

        want = execute_program(program, input_sets)
        executor, reason = load_or_build(cache_dir=tmp_path)
        assert executor is not None, reason
        values = program.gather().collect(input_sets).matrix(
            0, program.node_count, int_mode=True)
        assert executor.run(values, encode_program(program)) == 0
        return values, want

    def test_fibonacci_matches_fast_path(self, tmp_path):
        plan = build_execution_plan(fib_system(), {})
        program = lower_plan(plan)
        input_sets = [{"seed": (lambda i, s=s: s)} for s in (1, 2, 5)]
        values, want = self.run_both(program, input_sets, tmp_path)
        assert values.tolist() == np.asarray(want).tolist()

    def test_dp_fused_body_matches_fast_path(self, tmp_path):
        from repro.problems import dp_inputs, dp_system

        plan = build_execution_plan(dp_system(), {"n": 7})
        program = lower_plan(plan)
        input_sets = [dp_inputs([k + 1 for k in range(6)]),
                      dp_inputs([9 - k for k in range(6)])]
        values, want = self.run_both(program, input_sets, tmp_path)
        assert values.tolist() == np.asarray(want).tolist()

    def test_overflow_reports_nonzero(self, tmp_path):
        from repro.codegen import encode_program, load_or_build

        plan = build_execution_plan(fib_system(), {})
        program = lower_plan(plan)
        executor, reason = load_or_build(cache_dir=tmp_path)
        assert executor is not None, reason
        input_sets = [{"seed": lambda i: 2**62}]   # fib sums overflow
        values = program.gather().collect(input_sets).matrix(
            0, program.node_count, int_mode=True)
        assert executor.run(values, encode_program(program)) != 0

    def test_custom_op_is_rejected_not_miscompiled(self):
        from repro.codegen import UnsupportedForNative, encode_program

        pair = make_op("pair", 2, lambda a, b: (a, b))
        plan = build_execution_plan(fib_system(op=pair), {})
        program = lower_plan(plan)
        with pytest.raises(UnsupportedForNative):
            encode_program(program)


class TestLoweredStructure:
    def test_levels_and_groups(self):
        plan = build_execution_plan(fib_system(), {})
        program = lower_plan(plan)
        kinds = [group.kind for group in program.groups]
        assert program.node_count == plan.node_count
        assert kinds.count("input") == 1
        assert kinds.count("compute") >= 1
        assert program.level_count >= 2
        assert program.int_ok

    def test_level_respects_raw_dependences(self):
        plan = build_execution_plan(fib_system(), {})
        program = lower_plan(plan)
        producer_level = {}
        for group in program.groups:
            for dst in np.atleast_1d(group.dst):
                producer_level[int(dst)] = group.level
        for group in program.groups:
            for col in group.operands:
                for dst, src in zip(group.dst, col):
                    assert producer_level[int(src)] < group.level

    def test_non_ssa_rewrite_sequenced(self):
        # dst 2 is written twice; the copy reading the first value must see
        # the first value, the one after the rewrite the second.
        entries = [
            (2, None, (0,)),          # 2 <- input a
            (3, None, (2,)),          # reads first value
            (2, None, (1,)),          # WAR+WAW rewrite: 2 <- input b
            (4, None, (2,)),          # reads second value
        ]
        program = build_program(5, entries, [(0, "a", ()), (1, "b", ())])
        out = execute_program(program,
                              [{"a": lambda: 10, "b": lambda: 20}])
        assert out[0].tolist()[2:] == [20, 10, 20]
