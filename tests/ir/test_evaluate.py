"""The reference system evaluator: values, traces, failure modes."""

import pytest

from repro.ir import (
    ADD,
    ComputeRule,
    CyclicDependence,
    Equation,
    IDENTITY,
    InputRule,
    Module,
    OutputSpec,
    Polyhedron,
    RecurrenceSystem,
    Ref,
    ValueKey,
    equals,
    run_system,
    trace_execution,
)
from repro.ir.affine import var
from repro.ir.predicates import at_least

I = var("i")


def fib_system():
    """x_i = x_{i-1} + x_{i-2} with two seed inputs."""
    domain = Polyhedron.box({"i": (1, 10)})
    eqn = Equation("x", (
        InputRule("seed", (I,), guard=at_least(2 - I, 0)),
        ComputeRule(ADD, (Ref.of("x", I - 1), Ref.of("x", I - 2)),
                    guard=at_least(I, 3)),
    ))
    m = Module("fib", ("i",), domain, [eqn])
    return RecurrenceSystem(
        "fib", [m], outputs=[OutputSpec("fib", "x", domain, (I,))],
        input_names=("seed",))


class TestEvaluation:
    def test_fibonacci(self):
        res = run_system(fib_system(), {}, {"seed": lambda i: 1})
        assert res[(10,)] == 55

    def test_trace_records_operands(self):
        plan = trace_execution(fib_system(), {}, {"seed": lambda i: 1}).plan
        nid = plan.keys.index(ValueKey("fib", "x", (5,)))
        assert {plan.keys[i] for i in plan.operands[nid]} \
            == {ValueKey("fib", "x", (4,)), ValueKey("fib", "x", (3,))}

    def test_missing_input_binding(self):
        with pytest.raises(KeyError):
            run_system(fib_system(), {}, {})

    def test_cycle_detected(self):
        domain = Polyhedron.box({"i": (1, 3)})
        # x depends on y at the same point, y depends on x: a zero-weight
        # cycle the evaluator must reject.
        x = Equation("x", (ComputeRule(IDENTITY, (Ref.of("y", I),)),))
        y = Equation("y", (ComputeRule(IDENTITY, (Ref.of("x", I),)),))
        m = Module("loop", ("i",), domain, [x, y])
        system = RecurrenceSystem("loop", [m], outputs=[])
        with pytest.raises(CyclicDependence):
            run_system(system, {}, {})

    def test_same_point_acyclic_reference_ok(self):
        """Intra-point (zero-dependence) reads are legal when acyclic."""
        domain = Polyhedron.box({"i": (1, 4)})
        a = Equation("a", (InputRule("inp", (I,)),))
        b = Equation("b", (ComputeRule(ADD, (Ref.of("a", I), Ref.of("a", I))),))
        m = Module("m", ("i",), domain, [a, b])
        system = RecurrenceSystem(
            "m", [m], outputs=[OutputSpec("m", "b", domain, (I,))],
            input_names=("inp",))
        res = run_system(system, {}, {"inp": lambda i: i})
        assert res[(3,)] == 6

    def test_out_of_domain_reference(self):
        domain = Polyhedron.box({"i": (1, 4)})
        bad = Equation("x", (
            ComputeRule(IDENTITY, (Ref.of("x", I - 1),)),))
        m = Module("bad", ("i",), domain, [bad])
        system = RecurrenceSystem("bad", [m], outputs=[])
        with pytest.raises(KeyError):
            run_system(system, {}, {})
