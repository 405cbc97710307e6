"""Channel-capacity enforcement: one value per stream per link per cycle."""

import pytest

from repro.ir import (
    ComputeRule,
    Equation,
    IDENTITY,
    InputRule,
    Module,
    Polyhedron,
    RecurrenceSystem,
    Ref,
    equals,
    trace_execution,
)
from repro.ir.affine import var
from repro.ir.evaluate import ValueKey
from repro.ir.predicates import at_least
from repro.machine import CapacityError, Microcode, run
from repro.machine.microcode import Hop, Injection, Operation

I = var("i")


def two_value_trace():
    """A tiny system producing two independent values of one variable."""
    domain = Polyhedron.box({"i": (1, 2)})
    eqn = Equation("x", (InputRule("inp", (I,)),))
    module = Module("m", ("i",), domain, [eqn])
    system = RecurrenceSystem("tiny", [module], outputs=[],
                              input_names=("inp",))
    return trace_execution(system, {}, {"inp": lambda i: i * 10})


def hand_microcode(same_stream: bool) -> tuple[Microcode, object]:
    """Microcode moving both values over the same link in the same cycle.

    With ``same_stream`` both hops share the (module, var) channel — a
    capacity violation; otherwise they would be distinct channels (not
    constructible from one variable, so we fake the second stream tag).
    """
    trace = two_value_trace()
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
    stream2 = ("m", "x") if same_stream else ("m", "x2")
    mc.hops = [
        Hop(k1, (0,), (1,), 1, ("m", "x")),
        Hop(k2, (0,), (1,), 1, stream2),
    ]
    mc.operations = [
        Operation(k1, (1,), 2, None, (k1,), ("m", "x")),
        Operation(k2, (1,), 2, None, (k2,), stream2),
    ]
    return mc, trace


class TestCapacity:
    def test_same_stream_same_link_raises(self):
        mc, trace = hand_microcode(same_stream=True)
        with pytest.raises(CapacityError):
            run(mc, trace, {"inp": lambda i: i * 10}, strict=True)

    def test_non_strict_records_violation(self):
        mc, trace = hand_microcode(same_stream=True)
        result = run(mc, trace, {"inp": lambda i: i * 10}, strict=False)
        assert len(result.stats.capacity_violations) == 1

    def test_distinct_streams_share_link(self):
        """Two different named streams may cross one link simultaneously —
        they have separate physical channels."""
        mc, trace = hand_microcode(same_stream=False)
        result = run(mc, trace, {"inp": lambda i: i * 10}, strict=True)
        assert not result.stats.capacity_violations
        assert result.values[ValueKey("m", "x", (2,))] == 20

    def test_paper_designs_are_capacity_clean(self, dp_design_fig2,
                                              dp_host_inputs):
        from repro.machine import compile_design

        design = dp_design_fig2
        trace = trace_execution(design.system, design.params, dp_host_inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        result = run(mc, trace, dp_host_inputs, strict=True)
        assert not result.stats.capacity_violations
