"""Engine-equivalence matrix: the level-grouped kernel machine and the
native C-executor engine must be bit-identical to both the interpreted
oracle and the compiled engine — values, results, stats, the canonical
event stream, and every verification report, single-seed or batched."""

import random
from fractions import Fraction

import pytest

from repro.arrays import FIG1_UNIDIRECTIONAL, LINEAR_BIDIR
from repro.core import synthesize
from repro.core.verify import verify_design
from repro.ir import trace_execution
from repro.machine import (
    compile_design,
    lower_vector,
    run,
    vectorize,
)
from repro.obs import EventLog, canonical_order
from repro.problems import (
    convolution_backward,
    convolution_inputs,
    dp_inputs,
    dp_system,
    input_factory,
)

#: The full engine ladder.  ``native`` degrades to the vector paths when
#: no C toolchain is present, so the matrix needs no skip-markers — it
#: cross-checks the real C executor where a compiler exists and the dispatch
#: plumbing everywhere else.
ENGINES = ("interpreted", "compiled", "vector", "native")

#: Deliberate fallbacks raise the one-time int64 fallback RuntimeWarning,
#: which this suite otherwise treats as an error.
expected_fallback = pytest.mark.filterwarnings(
    "ignore:exact int64 fast path:RuntimeWarning")


def cross_check(design, inputs, strict=True):
    """Run all four engines on one design and assert identical output."""
    trace = trace_execution(design.system, design.params, inputs)
    mc = compile_design(trace, design.schedules, design.space_maps,
                        design.interconnect.decomposer())
    runs = {engine: run(mc, trace, inputs, strict=strict, engine=engine)
            for engine in ENGINES}
    oracle = runs["interpreted"]
    for engine in ("compiled", "vector", "native"):
        assert runs[engine].values == oracle.values, engine
        assert runs[engine].results == oracle.results, engine
        assert runs[engine].stats == oracle.stats, engine
    return runs


class TestEquivalenceMatrix:
    def test_dp_fig1(self, dp_design_fig1, dp_host_inputs):
        cross_check(dp_design_fig1, dp_host_inputs)

    def test_dp_fig2(self, dp_design_fig2, dp_host_inputs):
        cross_check(dp_design_fig2, dp_host_inputs)

    def test_conv_backward(self, conv_design_backward):
        inputs = convolution_inputs([2, -1, 3, 0, 5, -2, 1, 4, 6, -3],
                                    [1, -2, 3, 2])
        cross_check(conv_design_backward, inputs)

    @pytest.mark.parametrize("n", [3, 14])
    def test_dp_small_and_large(self, n):
        design = synthesize(dp_system(), {"n": n}, FIG1_UNIDIRECTIONAL)
        rng = random.Random(n)
        cross_check(design,
                    dp_inputs([rng.randint(1, 40) for _ in range(n - 1)]))

    @pytest.mark.parametrize("n,s", [(6, 3), (16, 5)])
    def test_conv_small_and_large(self, n, s):
        design = synthesize(convolution_backward(), {"n": n, "s": s},
                            LINEAR_BIDIR)
        rng = random.Random(s)
        cross_check(design, convolution_inputs(
            [rng.randint(-9, 9) for _ in range(n)],
            [rng.randint(-3, 3) for _ in range(s)]))

    @expected_fallback
    def test_fraction_inputs(self, dp_design_fig1):
        inputs = dp_inputs([Fraction(1, k + 2) for k in range(7)])
        runs = cross_check(dp_design_fig1, inputs)
        assert all(isinstance(v, Fraction)
                   for v in runs["vector"].results.values())

    @expected_fallback
    def test_huge_int_inputs(self, dp_design_fig1):
        inputs = dp_inputs([2**80 + k for k in range(7)])
        cross_check(dp_design_fig1, inputs)


class TestEventStream:
    def test_canonical_stream_identical(self, dp_design_fig1,
                                        dp_host_inputs):
        design, inputs = dp_design_fig1, dp_host_inputs
        trace = trace_execution(design.system, design.params, inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        logs = {}
        for engine in ENGINES:
            log = EventLog()
            run(mc, trace, inputs, engine=engine, sink=log)
            logs[engine] = canonical_order(log)
        for engine in ("compiled", "vector", "native"):
            assert logs[engine] == logs["interpreted"], engine
        assert len(logs["vector"]) > 0


class TestVectorMachineObjects:
    def test_vectorize_reuses_compiled_lowering(self, dp_design_fig1,
                                                dp_host_inputs):
        design, inputs = dp_design_fig1, dp_host_inputs
        trace = trace_execution(design.system, design.params, inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        vm = lower_vector(mc, trace)
        again = vectorize(vm.compiled)
        a = vm.execute(inputs)
        b = again.execute(inputs)
        assert a.results == b.results
        assert a.values == b.values

    def test_want_values_false_keeps_results(self, dp_design_fig1,
                                             dp_host_inputs):
        design, inputs = dp_design_fig1, dp_host_inputs
        trace = trace_execution(design.system, design.params, inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        vm = lower_vector(mc, trace)
        full = vm.execute(inputs)
        slim = vm.execute(inputs, want_values=False)
        assert slim.results == full.results
        assert slim.values == {}

    def test_execute_batch_matches_single_runs(self, dp_design_fig1):
        design = dp_design_fig1
        factory = input_factory("dp", design.params)
        input_sets = [factory(s) for s in range(4)]
        trace = trace_execution(design.system, design.params, input_sets[0])
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        vm = lower_vector(mc, trace)
        matrix = vm.execute_batch(input_sets)
        assert matrix.shape[0] == 4
        for s, bindings in enumerate(input_sets):
            single = vm.execute(bindings)
            row = matrix[s].tolist()
            results = {host_key: row[vid]
                       for host_key, vid in vm.compiled.outputs}
            assert results == single.results

    def test_unknown_engine_rejected(self, dp_design_fig1, dp_host_inputs):
        design, inputs = dp_design_fig1, dp_host_inputs
        trace = trace_execution(design.system, design.params, inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        with pytest.raises(ValueError, match="vector"):
            run(mc, trace, inputs, engine="nope")


class TestBatchedVerification:
    @pytest.fixture(scope="class")
    def design(self):
        return synthesize(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)

    def test_report_identical_across_engines(self, design):
        factory = input_factory("dp", design.params)
        reports = {engine: verify_design(design, factory(5), engine=engine)
                   for engine in ENGINES}
        for engine, report in reports.items():
            assert report.ok, (engine, report.failures)
        stats = {e: r.machine_stats for e, r in reports.items()}
        for engine in ("compiled", "vector", "native"):
            assert stats[engine] == stats["interpreted"], engine

    def test_batched_equals_looped_seeds(self, design):
        factory = input_factory("dp", design.params)
        seeds = range(8)
        batched = verify_design(design, factory, engine="vector",
                                seeds=seeds)
        assert batched.ok and batched.seeds_checked == 8
        for s in seeds:
            single = verify_design(design, factory(s), engine="vector")
            assert single.ok
        looped = verify_design(design, factory, engine="compiled",
                               seeds=seeds)
        assert looped.ok and looped.seeds_checked == 8
        assert batched.machine_stats == looped.machine_stats

    def test_seeds_require_input_factory(self, design):
        with pytest.raises(TypeError, match="factory"):
            verify_design(design, {"c0": lambda i, j: 1}, engine="vector",
                          seeds=range(2))

    @expected_fallback
    def test_batch_with_fraction_seed(self, design):
        def factory(seed):
            if seed == 1:
                return dp_inputs([Fraction(1, k + 2) for k in range(7)])
            return input_factory("dp", design.params)(seed)
        report = verify_design(design, factory, engine="vector",
                               seeds=range(3))
        assert report.ok, report.failures
