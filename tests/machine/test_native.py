"""The native engine: artifact cache discipline (one executor compile per
toolchain, warm processes skip the compiler, negative entries, key
hygiene), the fallback ladder (no toolchain / unsupported op / non-integer
inputs / overflow) and the shared host gather of batched verification.
Value and event-stream equivalence with the interpreter, on both tiers,
lives in ``test_vector.py`` and ``test_lowering.py``; the executor's per-tag semantics in
``tests/codegen/test_executor.py``."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.arrays import FIG1_UNIDIRECTIONAL
from repro.codegen import (
    DISABLE_ENV_VAR,
    EXECUTOR_SOURCE,
    Toolchain,
    UnsupportedForNative,
    encode_program,
    find_toolchain,
    kernel_key,
    load_or_build,
    native_available,
    native_disabled,
)
from repro.codegen import build
from repro.core import synthesize
from repro.core.verify import verify_design
from repro.ir import trace_execution
from repro.ir.ops import ADD, compose_accumulate, make_op
from repro.machine import compile_design, lower, run
from repro.machine.native import native_tier
from repro.obs import TRACER
from repro.problems import dp_inputs, dp_system, input_factory
from tests.machine.tiers import TIERS, tier

requires_cc = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this machine")

#: Deliberate fallbacks raise the one-time int64 fallback RuntimeWarning
#: when they happen to be the first in the process.
expected_fallback = pytest.mark.filterwarnings(
    "ignore:exact int64 fast path:RuntimeWarning")

SRC = Path(__file__).resolve().parents[2] / "src"


def dp_program(n=8):
    """A lowered native machine (kernel program plus precomputed stats)
    for DP size n."""
    design = synthesize(dp_system(), {"n": n}, FIG1_UNIDIRECTIONAL)
    inputs = input_factory("dp", design.params)(0)
    trace = trace_execution(design.system, design.params, inputs)
    mc = compile_design(trace, design.schedules, design.space_maps,
                        design.interconnect.decomposer())
    return design, lower(mc, trace), inputs


def counter(name):
    return TRACER.counters.get(name, 0)


@pytest.fixture
def no_native():
    """Force-disable the toolchain for one test, then re-probe."""
    with tier("vector"):
        assert find_toolchain() is None
        yield


@pytest.fixture
def fresh_process(monkeypatch):
    """Forget the executors this process already loaded."""
    monkeypatch.setattr(build, "_loaded", {})


class TestKernelKey:
    def test_stable_and_toolchain_sensitive(self):
        tc_a = Toolchain(cc="/usr/bin/cc", fingerprint="cc|gcc 12")
        tc_b = Toolchain(cc="/usr/bin/cc", fingerprint="cc|gcc 13")
        assert kernel_key("material", tc_a) == kernel_key("material", tc_a)
        assert kernel_key("material", tc_a) != kernel_key("material", tc_b)
        assert kernel_key("other", tc_a) != kernel_key("material", tc_a)


@requires_cc
class TestArtifactCache:
    def test_warm_hit_skips_cc(self, tmp_path, fresh_process, monkeypatch):
        compiles = counter("native.compiles")
        executor, reason = load_or_build(cache_dir=tmp_path)
        assert reason is None and executor is not None
        assert counter("native.compiles") == compiles + 1

        # Same process: the loaded executor is reused, disk untouched.
        hits = counter("native.cache_hits")
        again, _ = load_or_build(cache_dir=tmp_path)
        assert again is executor
        assert counter("native.cache_hits") == hits

        # A new process finds the artifact on disk: a hit, no cc.
        monkeypatch.setattr(build, "_loaded", {})
        warm, reason = load_or_build(cache_dir=tmp_path)
        assert reason is None and warm is not None
        assert counter("native.compiles") == compiles + 1
        assert counter("native.cache_hits") == hits + 1

    def test_source_keyed_hit_skips_cc_only(self, tmp_path, fresh_process):
        compiles = counter("native.compiles")
        other = EXECUTOR_SOURCE + "/* another build */\n"
        first, _ = load_or_build(cache_dir=tmp_path)
        second, _ = load_or_build(other, cache_dir=tmp_path)
        assert first is not None and second is not None
        assert first.path != second.path     # the source is the key...
        assert load_or_build(other, cache_dir=tmp_path)[0] is second
        assert counter("native.compiles") == compiles + 2  # ...cc per key

    def test_compile_failure_is_negative_cached(self, tmp_path):
        stores = counter("native.negative_stores")
        misses = counter("native.cache_misses")
        kernel, reason = load_or_build("this is not C\n", cache_dir=tmp_path)
        assert kernel is None and "cc exited" in reason
        assert counter("native.negative_stores") == stores + 1

        neg = counter("native.negative_hits")
        kernel, reason = load_or_build("this is not C\n", cache_dir=tmp_path)
        assert kernel is None and "cc exited" in reason
        # cc ran once per key, not once per call.
        assert counter("native.cache_misses") == misses + 1
        assert counter("native.negative_hits") == neg + 1

    def test_artifacts_on_disk(self, tmp_path):
        kernel, _ = load_or_build(cache_dir=tmp_path)
        assert kernel is not None
        sos = list(tmp_path.glob("*.so"))
        assert len(sos) == 1 and kernel.path == sos[0]
        assert len(list(tmp_path.glob("*.c"))) == 1
        assert len(list(tmp_path.glob("*.json"))) == 1


_VERIFY_THREE = """
import json
from repro.arrays import FIG1_UNIDIRECTIONAL
from repro.core import synthesize
from repro.core.verify import verify_design
from repro.obs import TRACER
from repro.problems import dp_system, input_factory

for n in (6, 7, 8):
    design = synthesize(dp_system(), {"n": n}, FIG1_UNIDIRECTIONAL)
    report = verify_design(design, input_factory("dp", design.params),
                           engine="native", seeds=range(4))
    assert report.ok, report.failures
print(json.dumps({k: TRACER.counters.get(k, 0) for k in
                  ("native.compiles", "native.cache_hits",
                   "native.vector_fallbacks")}))
"""


@requires_cc
class TestCompileCount:
    """One executor serves every design: the compile count is pinned."""

    def verify_three(self, cache):
        env = dict(os.environ, REPRO_DESIGN_CACHE=str(cache),
                   PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", _VERIFY_THREE],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_three_designs_one_compile_then_none(self, tmp_path):
        cold = self.verify_three(tmp_path)
        assert cold["native.compiles"] == 1
        assert cold["native.vector_fallbacks"] == 0
        assert len(list((tmp_path / "native").glob("*.so"))) == 1
        warm = self.verify_three(tmp_path)
        assert warm["native.compiles"] == 0
        assert warm["native.cache_hits"] >= 1


class TestFallbackLadder:
    def test_native_disabled_restores_environment(self, monkeypatch):
        monkeypatch.delenv(DISABLE_ENV_VAR, raising=False)
        before = find_toolchain(refresh=True)
        with native_disabled():
            assert os.environ[DISABLE_ENV_VAR] == "1"
            assert find_toolchain() is None
        assert DISABLE_ENV_VAR not in os.environ
        assert find_toolchain() == before

    def test_no_toolchain_degrades_to_vector(self, no_native,
                                             dp_host_inputs):
        design = synthesize(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)
        trace = trace_execution(design.system, design.params,
                                dp_host_inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        executor, code, reason = native_tier(lower(mc, trace).program)
        assert code is None and executor is None
        assert "toolchain" in reason
        oracle = run(mc, trace, dp_host_inputs, engine="interpreted")
        fallbacks = counter("native.vector_fallbacks")
        got = run(mc, trace, dp_host_inputs, engine="native")
        assert got.results == oracle.results
        assert got.values == oracle.values
        assert counter("native.vector_fallbacks") > fallbacks

    @requires_cc
    @expected_fallback
    def test_fraction_inputs_take_object_path(self):
        design, vm, _ = dp_program()
        inputs = dp_inputs([Fraction(1, k + 2) for k in range(7)])
        trace = trace_execution(design.system, design.params, inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        oracle = run(mc, trace, inputs, engine="interpreted")
        before = counter("native.input_fallbacks")
        got = run(mc, trace, inputs, engine="native")
        assert got.results == oracle.results
        assert all(isinstance(v, Fraction) for v in got.results.values())
        assert counter("native.input_fallbacks") == before + 1

    @requires_cc
    @expected_fallback
    def test_kernel_overflow_reruns_object_path_exactly(self):
        design = synthesize(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)
        inputs = dp_inputs([2**62] * 7)     # fits int64, sums overflow
        trace = trace_execution(design.system, design.params, inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        oracle = run(mc, trace, inputs, engine="interpreted")
        before = counter("native.overflow_fallbacks")
        got = run(mc, trace, inputs, engine="native")
        assert got.results == oracle.results
        assert any(v > 2**63 for v in got.results.values())
        assert counter("native.overflow_fallbacks") == before + 1

    def test_unsupported_op_stays_on_vector_engine(self):
        from repro.ir import lower_plan
        from repro.ir.evaluate import build_execution_plan
        from repro.ir import (ComputeRule, Equation, InputRule, Module,
                              OutputSpec, Polyhedron, RecurrenceSystem,
                              Ref, make_op)
        from repro.ir.affine import var
        from repro.ir.predicates import at_least

        i = var("i")
        odd = make_op("odd", 2, lambda a, b: a ^ b)
        domain = Polyhedron.box({"i": (1, 6)})
        eqn = Equation("x", (
            InputRule("seed", (i,), guard=at_least(2 - i, 0)),
            ComputeRule(odd, (Ref.of("x", i - 1), Ref.of("x", i - 2)),
                        guard=at_least(i, 3)),
        ))
        system = RecurrenceSystem(
            "xorfib", [Module("xorfib", ("i",), domain, [eqn])],
            outputs=[OutputSpec("xorfib", "x", domain, (i,))],
            input_names=("seed",))
        plan = build_execution_plan(system, {})
        program = lower_plan(plan)
        assert not program.int_ok
        with pytest.raises(UnsupportedForNative):
            encode_program(program)

    def test_composite_with_custom_component_falls_back(self):
        """``h(prev, f(...))`` with a non-stock ``h`` (even one carrying
        its own int64 kernel) never reaches the executor."""
        from repro.ir.vector import build_program
        from tests.ir.vector_oracle import execute_program

        lowest = make_op("lowest", 2, min, int_kernel=np.minimum)
        body = compose_accumulate(lowest, ADD)
        body = make_op(body.name, body.arity, body.fn,
                       int_kernel=lambda p, a, b: np.minimum(p, a + b),
                       components=body.components)
        program = build_program(4, [(3, body, (0, 1, 2))],
                                [(0, "p", ()), (1, "a", ()), (2, "b", ())])
        assert program.int_ok
        with pytest.raises(UnsupportedForNative):
            encode_program(program)
        executor, code, reason = native_tier(program)
        assert code is None and "lowest" in reason
        out = execute_program(program,
                              [{"p": lambda: 9, "a": lambda: 3,
                                "b": lambda: 4}])
        assert out[0, 3] == 7


class TestVerifyDesign:
    @requires_cc
    def test_native_verify_batched_and_warm(self):
        design = synthesize(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)
        factory = input_factory("dp", design.params)
        report = verify_design(design, factory, engine="native",
                               seeds=range(4))
        assert report.ok and report.seeds_checked == 4
        assert native_tier(design._exec_cache["nmachine"].program).code \
            is not None

        # A *fresh* design object runs on the executor already loaded:
        # no new compile, nothing read from disk.
        compiles = counter("native.compiles")
        fresh = synthesize(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)
        again = verify_design(fresh, factory(0), engine="native")
        assert again.ok
        assert counter("native.compiles") == compiles

    @requires_cc
    @expected_fallback
    def test_overflow_counted_once_per_pass(self, monkeypatch):
        """The reference and machine passes share one tier dispatcher, so
        an int64 overflow in C is counted for each of them."""
        monkeypatch.delenv(DISABLE_ENV_VAR, raising=False)
        design = synthesize(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)
        before = counter("native.overflow_fallbacks")
        report = verify_design(design, dp_inputs([2**62] * 7),
                               engine="native")
        assert report.ok, report.failures
        assert counter("native.overflow_fallbacks") == before + 2

    def test_native_verify_without_toolchain(self, no_native):
        design = synthesize(dp_system(), {"n": 6}, FIG1_UNIDIRECTIONAL)
        factory = input_factory("dp", design.params)
        report = verify_design(design, factory(0), engine="native")
        assert report.ok, report.failures

    @requires_cc
    def test_corrupted_machine_code_is_caught(self):
        """Independence guard: the reference pass runs its own code on the
        same executor, so a wrong machine stream cannot agree with it."""
        design = synthesize(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)
        factory = input_factory("dp", design.params)
        assert verify_design(design, factory, engine="native",
                             seeds=range(8)).ok
        program = design._exec_cache["nmachine"].program
        code = native_tier(program).code.copy()
        # Walk to the last record; point its first operand entry at a host
        # input slot instead.
        pc = last = 0
        while pc < len(code):
            last = pc
            width, n_operands = int(code[pc + 1]), int(code[pc + 4])
            pc += 5 + (n_operands + 1) * width
        width = int(code[last + 1])
        input_slot = int(program.gather().targets[0][0][0])
        assert code[last + 5 + width] != input_slot
        code[last + 5 + width] = input_slot
        program.native = program.native._replace(code=code)
        report = verify_design(design, factory, engine="native",
                               seeds=range(8))
        assert not report.ok
        assert "differ from reference" in report.failures[-1]


class _Counting:
    """Wrap a binding set so every host call is counted per
    ``(name, index, seed)``."""

    def __init__(self, factory):
        self.factory = factory
        self.calls = {}

    def __call__(self, seed):
        bindings = self.factory(seed)

        def wrap(name, fn):
            def counted(*idx):
                key = (name, idx, seed)
                self.calls[key] = self.calls.get(key, 0) + 1
                return fn(*idx)
            return counted

        return {name: wrap(name, fn) for name, fn in bindings.items()}


class TestSharedGather:
    @pytest.mark.parametrize("engine", TIERS)
    def test_each_fetch_runs_once_per_seed(self, engine):
        design = synthesize(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)
        counting = _Counting(input_factory("dp", design.params))
        with tier(engine):
            report = verify_design(design, counting, seeds=range(8))
        assert report.ok, report.failures
        assert counting.calls
        assert set(counting.calls.values()) == {1}
        assert {seed for _, _, seed in counting.calls} == set(range(8))

    @expected_fallback
    @pytest.mark.parametrize("engine", TIERS)
    @pytest.mark.parametrize("value", [True, Fraction(1, 3), 2**70],
                             ids=["bool", "fraction", "wide-int"])
    def test_non_int64_inputs_stay_exact(self, engine, value):
        design = synthesize(dp_system(), {"n": 6}, FIG1_UNIDIRECTIONAL)

        def factory(seed):
            return dp_inputs([value + seed] * 5 if not isinstance(value, bool)
                             else [value] * 5)

        counting = _Counting(factory)
        int64 = counter("vector.int64_fallbacks")
        inputs = counter("native.input_fallbacks")
        with tier(engine):
            report = verify_design(design, counting, seeds=range(3))
            available = native_available()
        assert report.ok, report.failures
        assert set(counting.calls.values()) == {1}
        # One fallback per pass (reference and machine); with a toolchain
        # each pass also counts one input fallback off its C tier.
        assert counter("vector.int64_fallbacks") == int64 + 2
        want = 2 if available else 0
        assert counter("native.input_fallbacks") == inputs + want

        oracle = trace_execution(design.system, design.params, factory(2))
        mc = compile_design(oracle, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        with tier(engine):
            got = run(mc, oracle, factory(2), engine="native")
        assert got.results == oracle.results
        assert ({type(v) for v in got.results.values()}
                == {type(v) for v in oracle.results.values()})


@requires_cc
class TestGeneratedSource:
    """The per-design artifact is now an encoded instruction stream; the
    C source is fixed."""

    def test_kernel_shape(self):
        _, vm, _ = dp_program()
        code = encode_program(vm.program)
        assert code.dtype == np.int32
        records = []
        pc = 0
        while pc < len(code):
            kind, width, _, _, n_operands = code[pc:pc + 5].tolist()
            records.append((kind, width, n_operands))
            pc += 5 + (n_operands + 1) * width
        assert pc == len(code)
        groups = [g for g in vm.program.groups if g.kind != "input"]
        assert records == [(int(g.kind == "compute"), g.width,
                            len(g.operands)) for g in groups]
        assert "int repro_exec(i64 *v, long rows, long stride, " \
            "const i32 *code, long n)" in EXECUTOR_SOURCE
        assert "__builtin_add_overflow" in EXECUTOR_SOURCE
        assert "#error" in EXECUTOR_SOURCE   # non-GCC/Clang guard present

    def test_emission_is_deterministic(self):
        _, vm, _ = dp_program()
        assert np.array_equal(encode_program(vm.program),
                              encode_program(vm.program))
