"""The ``fuse-accumulators`` pass: int64 kernels attached on the system."""

import pytest

from repro.arrays import FIG1_UNIDIRECTIONAL
from repro.core import synthesize
from repro.core.cache import system_fingerprint
from repro.core.options import SynthesisOptions
from repro.core.restructure import restructure
from repro.ir import trace_execution
from repro.ir.ops import make_op
from repro.ir.statements import ComputeRule
from repro.machine import compile_design, run
from repro.problems import dp_inputs, dp_spec
from repro.rewrite import PassPipeline, PipelineState, make_pass
from repro.rewrite.pipeline import DEFAULT_PASS_NAMES

PARAMS = {"n": 5}


def _composites(system):
    return [rule.op for module in system.modules.values()
            for eqn in module.equations.values() for rule in eqn.rules
            if isinstance(rule, ComputeRule)
            and rule.op.components is not None]


def _fuse(system):
    state = PipelineState(params=PARAMS, interconnect=FIG1_UNIDIRECTIONAL,
                          options=SynthesisOptions(), system=system)
    return make_pass("fuse-accumulators").run(state).system


class TestFuseAccumulatorsPass:
    def test_restructure_emits_unfused_composites(self):
        ops = _composites(restructure(dp_spec(), params=PARAMS))
        assert ops
        assert all(op.int_kernel is None for op in ops)

    def test_fuses_every_stock_composite(self):
        plain = restructure(dp_spec(), params=PARAMS)
        fused = _fuse(plain)
        assert fused is not plain
        ops = _composites(fused)
        assert len(ops) == len(_composites(plain))
        assert all(op.int_kernel is not None for op in ops)
        assert system_fingerprint(fused) == system_fingerprint(plain)
        # The caller's system is replaced, not mutated.
        assert all(op.int_kernel is None for op in _composites(plain))

    def test_custom_component_stays_unfused(self):
        lowest = make_op("lowest", 2, min)
        system = restructure(dp_spec(h=lowest), params=PARAMS)
        assert _composites(system)
        assert _fuse(system) is system
        assert all(op.int_kernel is None for op in _composites(system))

    def test_second_run_changes_nothing(self):
        fused = _fuse(restructure(dp_spec(), params=PARAMS))
        assert _fuse(fused) is fused

    @pytest.mark.parametrize("engine", ["interpreted", "native"])
    def test_values_unchanged(self, engine):
        unfused_pipe = PassPipeline([make_pass(n) for n in DEFAULT_PASS_NAMES
                                     if n != "fuse-accumulators"])
        plain = synthesize(dp_spec(), PARAMS, FIG1_UNIDIRECTIONAL,
                           pipeline=unfused_pipe)
        fused = synthesize(dp_spec(), PARAMS, FIG1_UNIDIRECTIONAL)
        assert all(op.int_kernel is None for op in _composites(plain.system))
        assert all(op.int_kernel is not None
                   for op in _composites(fused.system))
        inputs = dp_inputs([3, -1, 4, 1])
        results = []
        for design in (plain, fused):
            oracle = trace_execution(design.system, PARAMS, inputs)
            mc = compile_design(oracle, design.schedules, design.space_maps,
                                design.interconnect.decomposer())
            got = run(mc, oracle, inputs, engine=engine)
            assert got.results == oracle.results
            results.append(got.results)
        assert results[0] == results[1]
