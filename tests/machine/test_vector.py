"""Engine-equivalence matrix: the native engine on both its tiers (the C
executor and the ndarray kernels, with exact object arrays under both)
must be bit-identical to the interpreted oracle — values, results, stats,
the canonical event stream, and every verification report, single-seed
or batched.  Tier selection lives in :mod:`tests.machine.tiers`."""

import random
from fractions import Fraction

import pytest

from repro.arrays import FIG1_UNIDIRECTIONAL, LINEAR_BIDIR
from repro.core import synthesize
from repro.core.verify import verify_design
from repro.machine import lower_native, nativize, run
from repro.obs import EventLog, canonical_order
from repro.problems import (
    convolution_backward,
    convolution_inputs,
    dp_inputs,
    dp_system,
    input_factory,
)
from tests.machine.tiers import TIERS, cross_check, microcode, tier

#: Deliberate fallbacks raise the one-time int64 fallback RuntimeWarning,
#: which this suite otherwise treats as an error.
expected_fallback = pytest.mark.filterwarnings(
    "ignore:exact int64 fast path:RuntimeWarning")


def verify_each(make_design, inputs, **kwargs):
    """``verify_design`` on the interpreter and on each tier, every run on
    a fresh design so no tier reuses another's cached machine."""
    reports = {"interpreted": verify_design(make_design(), inputs,
                                            engine="interpreted", **kwargs)}
    for name in TIERS:
        with tier(name):
            reports[name] = verify_design(make_design(), inputs, **kwargs)
    return reports


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
        for name in TIERS:
            assert all(isinstance(v, Fraction)
                       for v in runs[name].results.values()), name

    @expected_fallback
    def test_huge_int_inputs(self, dp_design_fig1):
        inputs = dp_inputs([2**80 + k for k in range(7)])
        cross_check(dp_design_fig1, inputs)


class TestEventStream:
    def test_canonical_stream_identical(self, dp_design_fig1,
                                        dp_host_inputs):
        mc, trace = microcode(dp_design_fig1, dp_host_inputs)
        logs = {}
        for name in ("interpreted",) + TIERS:
            log = EventLog()
            with tier(name):
                run(mc, trace, dp_host_inputs, sink=log,
                    engine="interpreted" if name == "interpreted"
                    else "native")
            logs[name] = canonical_order(log)
        for name in TIERS:
            assert logs[name] == logs["interpreted"], name
        assert len(logs["vector"]) > 0


class TestVectorMachineObjects:
    """The machine object of the vector tier: a :class:`NativeMachine`
    without executor code, running the ndarray kernels."""

    @pytest.fixture
    def lowered(self, dp_design_fig1, dp_host_inputs):
        mc, trace = microcode(dp_design_fig1, dp_host_inputs)
        with tier("vector"):
            machine = lower_native(mc, trace)
        assert machine.code is None and machine.fallback_reason
        return mc, trace, machine

    def test_nativize_reuses_compiled_lowering(self, lowered,
                                               dp_host_inputs):
        _, _, machine = lowered
        with tier("vector"):
            again = nativize(machine.compiled)
        a = machine.execute(dp_host_inputs)
        b = again.execute(dp_host_inputs)
        assert a.results == b.results
        assert a.values == b.values

    def test_want_values_false_keeps_results(self, lowered, dp_host_inputs):
        _, _, machine = lowered
        full = machine.execute(dp_host_inputs)
        slim = machine.execute(dp_host_inputs, want_values=False)
        assert slim.results == full.results
        assert slim.values == {}

    def test_execute_batch_matches_single_runs(self, lowered,
                                               dp_design_fig1):
        _, _, machine = lowered
        factory = input_factory("dp", dp_design_fig1.params)
        input_sets = [factory(s) for s in range(4)]
        matrix = machine.execute_batch(input_sets)
        assert matrix.shape[0] == 4
        for s, bindings in enumerate(input_sets):
            single = machine.execute(bindings)
            row = matrix[s].tolist()
            results = {host_key: row[vid]
                       for host_key, vid in machine.compiled.outputs}
            assert results == single.results

    def test_unknown_engine_rejected(self, lowered, dp_host_inputs):
        mc, trace, _ = lowered
        with pytest.raises(ValueError, match="native"):
            run(mc, trace, dp_host_inputs, engine="nope")


class TestBatchedVerification:
    @pytest.fixture(scope="class")
    def design(self):
        return synthesize(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)

    @staticmethod
    def make():
        return synthesize(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)

    def test_report_identical_across_engines(self, design):
        factory = input_factory("dp", design.params)
        reports = verify_each(self.make, factory(5))
        for name, report in reports.items():
            assert report.ok, (name, report.failures)
        for name in TIERS:
            assert (reports[name].machine_stats
                    == reports["interpreted"].machine_stats), name

    def test_batched_equals_looped_seeds(self, design):
        factory = input_factory("dp", design.params)
        seeds = range(8)
        for name, batched in verify_each(self.make, factory,
                                         seeds=seeds).items():
            assert batched.ok and batched.seeds_checked == 8, name
        batched = verify_design(design, factory, seeds=seeds)
        for s in seeds:
            assert verify_design(design, factory(s)).ok
        looped = verify_design(design, factory, engine="interpreted",
                               seeds=seeds)
        assert looped.ok and looped.seeds_checked == 8
        assert batched.machine_stats == looped.machine_stats

    def test_seeds_require_input_factory(self, design):
        with pytest.raises(TypeError, match="factory"):
            verify_design(design, {"c0": lambda i, j: 1}, seeds=range(2))

    @expected_fallback
    def test_batch_with_fraction_seed(self, design):
        def factory(seed):
            if seed == 1:
                return dp_inputs([Fraction(1, k + 2) for k in range(7)])
            return input_factory("dp", design.params)(seed)
        for name, report in verify_each(self.make, factory,
                                        seeds=range(3)).items():
            assert report.ok, (name, report.failures)
