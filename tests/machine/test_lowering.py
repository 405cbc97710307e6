"""The lowered machine (:func:`repro.machine.lower`) run by the native
engine on both its tiers must be bit-identical to the interpreted
cycle-by-cycle oracle — values, results and the full ``MachineStats``
block, violation lists included.  Shares :mod:`tests.machine.tiers` with
the equivalence matrix of ``test_vector.py``."""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core import synthesize
from repro.arrays import FIG2_EXTENDED
from repro.ir import trace_execution
from repro.ir.evaluate import ValueKey
from repro.machine import (
    CapacityError,
    Microcode,
    MissingOperandError,
    lower,
    run,
)
from repro.machine.microcode import Hop, Injection, Operation
from repro.problems import dp_inputs, matmul_inputs, matmul_system
from tests.machine.tiers import TIERS, cross_check, microcode, tier


class TestEquivalence:
    def test_dp_fig1(self, dp_design_fig1, dp_host_inputs):
        cross_check(dp_design_fig1, dp_host_inputs)

    def test_dp_fig2(self, dp_design_fig2, dp_host_inputs):
        cross_check(dp_design_fig2, dp_host_inputs)

    def test_matmul(self):
        n = 4
        system = matmul_system()
        design = synthesize(system, {"n": n}, FIG2_EXTENDED)
        rng = random.Random(11)
        A = np.array([[rng.randint(-5, 5) for _ in range(n)]
                      for _ in range(n)])
        B = np.array([[rng.randint(-5, 5) for _ in range(n)]
                      for _ in range(n)])
        cross_check(design, matmul_inputs(A, B))

    def test_conv_backward(self, conv_design_backward):
        from repro.problems import convolution_inputs

        cross_check(conv_design_backward,
                    convolution_inputs([1, -2, 3, 0, 5, -1, 2, 4, -3, 1],
                                       [2, -1, 0, 3]))

    def test_conv_forward(self, conv_design_forward):
        from repro.problems import convolution_inputs

        cross_check(conv_design_forward,
                    convolution_inputs([1, -2, 3, 0, 5, -1, 2, 4, -3, 1],
                                       [2, -1, 0, 3]))

    def test_property_random_seeds(self, dp_design_fig2):
        """One lowering, many value passes: every seed must agree with a
        fresh interpreted run."""
        design = dp_design_fig2
        n = design.params["n"]
        mc, trace = microcode(design, dp_inputs([1] * (n - 1)))
        for name in TIERS:
            with tier(name):
                machine = lower(mc, trace)
            for seed in range(8):
                rng = random.Random(seed)
                inputs = dp_inputs([rng.randint(1, 9)
                                    for _ in range(n - 1)])
                interp = run(mc, trace, inputs)
                fast = machine.execute(inputs)
                assert fast.values == interp.values, name
                assert fast.results == interp.results, name
                assert fast.stats == interp.stats, name

    def test_unknown_engine_rejected(self, dp_design_fig2, dp_host_inputs):
        mc, trace = microcode(dp_design_fig2, dp_host_inputs)
        with pytest.raises(ValueError, match="unknown engine"):
            run(mc, trace, dp_host_inputs, engine="quantum")


def hand_capacity_microcode():
    """Two values of one stream crossing one link in the same cycle — a
    capacity violation both engines must handle identically."""
    from repro.ir import (
        Equation,
        InputRule,
        Module,
        Polyhedron,
        RecurrenceSystem,
    )
    from repro.ir.affine import var

    I = var("i")
    domain = Polyhedron.box({"i": (1, 2)})
    eqn = Equation("x", (InputRule("inp", (I,)),))
    module = Module("m", ("i",), domain, [eqn])
    system = RecurrenceSystem("tiny", [module], outputs=[],
                              input_names=("inp",))
    trace = trace_execution(system, {}, {"inp": lambda i: i * 10})
    # Node ids of the plan: m::x(1,) is 0 and m::x(2,) is 1.
    k1, k2 = 0, 1
    assert trace.plan.keys[k1] == ValueKey("m", "x", (1,))
    assert trace.plan.keys[k2] == ValueKey("m", "x", (2,))
    mc = Microcode()
    mc.placement = [(0, (0,)), (0, (0,))]
    mc.first_cycle = 0
    mc.last_cycle = 2
    mc.injections = [
        Injection(k1, (0,), 0, "inp", (1,)),
        Injection(k2, (0,), 0, "inp", (2,)),
    ]
    mc.hops = [
        Hop(k1, (0,), (1,), 1, ("m", "x")),
        Hop(k2, (0,), (1,), 1, ("m", "x")),
    ]
    mc.operations = [
        Operation(k1, (1,), 2, None, (k1,), ("m", "x")),
        Operation(k2, (1,), 2, None, (k2,), ("m", "x")),
    ]
    return mc, trace


def run_each(mc, trace, inputs, **kwargs):
    """Yield ``(name, thunk)`` for the interpreter and each tier, so a
    test can expect the same exception from every one of them."""
    yield "interpreted", lambda: run(mc, trace, inputs, **kwargs)
    for name in TIERS:
        def fast(name=name):
            with tier(name):
                return run(mc, trace, inputs, engine="native", **kwargs)
        yield name, fast


class TestCapacityPath:
    def test_strict_raises_same_message(self):
        inputs = {"inp": lambda i: i * 10}
        mc, trace = hand_capacity_microcode()
        messages = {}
        for name, thunk in run_each(mc, trace, inputs, strict=True):
            with pytest.raises(CapacityError) as info:
                thunk()
            messages[name] = str(info.value)
        assert len(set(messages.values())) == 1, messages

    def test_non_strict_records_and_keeps_running(self):
        """``strict=False`` must record the violation *and* complete the
        run — every engine and tier, identical violation lists and
        values."""
        inputs = {"inp": lambda i: i * 10}
        mc, trace = hand_capacity_microcode()
        runs = {name: thunk() for name, thunk
                in run_each(mc, trace, inputs, strict=False)}
        for name, result in runs.items():
            assert result.stats.capacity_violations == [
                (1, (0,), (1,), ("m", "x"))], name
            assert result.values[ValueKey("m", "x", (1,))] == 10
            assert result.values[ValueKey("m", "x", (2,))] == 20
            assert result.stats == runs["interpreted"].stats, name

    def test_missing_hop_source_raises_both(self):
        inputs = {"inp": lambda i: i * 10}
        mc, trace = hand_capacity_microcode()
        assert trace.plan.keys[0] == ValueKey("m", "x", (1,))
        mc.hops[0] = Hop(0, (5,), (1,), 1, ("m", "x"))
        for name, thunk in run_each(mc, trace, inputs, strict=False):
            with pytest.raises(MissingOperandError):
                thunk()

    @pytest.mark.parametrize("where", ["injection", "operation", "operand",
                                       "hop"])
    @pytest.mark.parametrize("node", [2, -1])
    def test_node_outside_the_plan_raises_everywhere(self, where, node):
        """Hand-built microcode naming a node id the plan does not have
        (the plan holds ids 0 and 1) is rejected by the interpreter and
        by every native tier alike."""
        inputs = {"inp": lambda i: i * 10}
        mc, trace = hand_capacity_microcode()
        assert trace.plan.node_count == 2
        if where == "injection":
            mc.injections[0] = replace(mc.injections[0], node=node)
        elif where == "operation":
            mc.operations[0] = replace(mc.operations[0], node=node)
        elif where == "operand":
            mc.operations[0] = replace(mc.operations[0], operands=(node,))
        else:
            mc.hops[0] = replace(mc.hops[0], node=node)
        for name, thunk in run_each(mc, trace, inputs, strict=False):
            with pytest.raises(MissingOperandError, match="not one of"):
                thunk()


class TestProtectedReclamation:
    def test_outputs_survive_reclamation(self, dp_design_fig2,
                                         dp_host_inputs):
        """Register reclamation must never evict protected output values:
        with reclamation on, every output is still present and correct at
        the end of the run (the machine's results match the reference)."""
        design = dp_design_fig2
        mc, trace = microcode(design, dp_host_inputs)
        for name, thunk in run_each(mc, trace, dp_host_inputs):
            result = thunk()
            assert result.results == trace.results, name
            for out in design.system.outputs:
                for p in out.domain.points(design.params):
                    assert ValueKey(out.module, out.var, p) in result.values
