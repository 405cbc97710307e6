"""Placement/routing and the native lowering on node-id arrays against
their record-walking predecessors (``tests/machine/lower_oracle.py``):
equal microcode and field-by-field equal machines on every feasible case
of the fingerprint grid, the verify-batch designs and the fuzz corpus,
and the same errors on hand-built microcode."""

from dataclasses import replace

import pytest

from repro import api
from repro.ir import SystemTrace, build_execution_plan
from repro.machine import MissingOperandError, compile_design, lower
from repro.machine.microcode import Hop, Operation
from tests.core.test_design_fingerprints import SNAPSHOT, tool
from tests.ir.test_plan_oracle import assert_same_program, corpus_systems
from tests.machine import lower_oracle
from tests.machine.test_capacity import hand_microcode
from tests.machine.test_lowering import hand_capacity_microcode

FEASIBLE = sorted(SNAPSHOT["lowerings"])
CASES = {tool.case_label(c): c for c in SNAPSHOT["cases"]}

#: ``benchmarks/e2e/workloads.py`` ``VERIFY_SET``.
VERIFY_SET = [("dp", {"n": 18}, "fig1"), ("dp", {"n": 16}, "fig2"),
              ("dp-spec", {"n": 12}, "fig2"), ("matmul", {"n": 7}, "hex"),
              ("conv-backward", {"n": 32, "s": 4}, "linear"),
              ("conv-forward", {"n": 32, "s": 4}, "linear")]


def assert_same_machine(got, want):
    assert got.keys is want.keys
    assert got.outputs is want.outputs
    assert got.produced == want.produced
    assert got.stats == want.stats
    assert got.strict_error == want.strict_error
    assert got.events == want.events
    assert_same_program(got.program, want.program)


def check(design, trace):
    """Compile and lower ``design`` both ways; returns the microcode."""
    decomposer = design.interconnect.decomposer()
    mc = compile_design(trace, design.schedules, design.space_maps,
                        decomposer)
    assert mc == lower_oracle.compile_design(trace, design.schedules,
                                             design.space_maps, decomposer)
    for events in (False, True):
        assert_same_machine(lower(mc, trace, record_events=events),
                            lower_oracle.lower(mc, trace,
                                               record_events=events))
    return mc


@pytest.mark.parametrize("label", FEASIBLE)
def test_grid_case(label):
    case = CASES[label]
    state = api.run_pipeline(tool._sources()[case["problem"]](),
                             dict(case["params"]),
                             api.resolve_interconnect(case["interconnect"]),
                             api.SynthesisOptions())
    mc = check(state.design, SystemTrace(state.plan))
    assert mc == state.microcode


@pytest.mark.parametrize("problem,params,interconnect", VERIFY_SET,
                         ids=[f"{p}{sorted(ps.items())}@{ic}"
                              for p, ps, ic in VERIFY_SET])
def test_verify_set_design(problem, params, interconnect):
    design = api.synthesize(tool._sources()[problem](), params,
                            api.resolve_interconnect(interconnect))
    check(design, SystemTrace(design._exec_cache["plan"]))


def test_corpus_designs():
    from repro.fuzz.corpus import load_corpus
    from tests.ir.test_plan_oracle import CORPUS

    descriptors = {a["path"].name: a["descriptor"]
                   for a in load_corpus(CORPUS)}
    checked = 0
    for name, system, params in corpus_systems():
        desc = descriptors[name]
        try:
            design = api.synthesize(
                system, params, api.resolve_interconnect(desc.interconnect),
                api.SynthesisOptions(time_bound=desc.time_bound))
        except api.SynthesisError:
            continue
        check(design, SystemTrace(design._exec_cache["plan"]))
        checked += 1
    assert checked


# -- hand-built microcode ----------------------------------------------------

def same_outcome(mc, trace, record_events=True):
    """Both lowerings raise the same error (type and message), or build
    equal machines."""
    try:
        want = lower_oracle.lower(mc, trace, record_events=record_events)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            lower(mc, trace, record_events=record_events)
        assert str(got.value) == str(exc)
        return exc
    assert_same_machine(lower(mc, trace, record_events=record_events), want)
    return None


class TestHandBuilt:
    @pytest.mark.parametrize("same_stream", [True, False])
    def test_capacity_microcode(self, same_stream):
        mc, trace = hand_microcode(same_stream)
        assert same_outcome(mc, trace) is None
        machine = lower(mc, trace)
        assert (machine.strict_error is not None) == same_stream

    def test_missing_hop_source(self):
        mc, trace = hand_capacity_microcode()
        mc.hops[0] = Hop(0, (5,), (1,), 1, ("m", "x"))
        assert isinstance(same_outcome(mc, trace), MissingOperandError)

    @pytest.mark.parametrize("where", ["injection", "operation", "operand",
                                       "hop"])
    @pytest.mark.parametrize("node", [2, -1])
    def test_node_outside_the_plan(self, where, node):
        mc, trace = hand_capacity_microcode()
        if where == "injection":
            mc.injections[0] = replace(mc.injections[0], node=node)
        elif where == "operation":
            mc.operations[0] = replace(mc.operations[0], node=node)
        elif where == "operand":
            mc.operations[0] = replace(mc.operations[0], operands=(node,))
        else:
            mc.hops[0] = replace(mc.hops[0], node=node)
        assert isinstance(same_outcome(mc, trace), MissingOperandError)

    def test_operand_that_never_arrives(self):
        mc, trace = hand_capacity_microcode()
        mc.operations[1] = Operation(1, (2,), 2, None, (0,), ("m", "x"))
        exc = same_outcome(mc, trace)
        assert isinstance(exc, MissingOperandError)
        assert "never reaches the cell" in str(exc)

    def test_cyclic_same_cycle_operations(self):
        mc, trace = hand_capacity_microcode()
        mc.operations = [
            Operation(0, (1,), 2, None, (1,), ("m", "x")),
            Operation(1, (1,), 2, None, (0,), ("m", "x")),
        ]
        exc = same_outcome(mc, trace)
        assert isinstance(exc, MissingOperandError)
        assert "cyclic intra-cycle dependence" in str(exc)

    def test_operand_failure_before_a_later_cycle(self):
        """An operand that never arrives in an earlier (cycle, cell) group
        is reported before a cycle in a later one, as the scalar walk
        meets them."""
        mc, trace = hand_capacity_microcode()
        mc.last_cycle = 3
        mc.operations = [
            Operation(0, (2,), 2, None, (1,), ("m", "x")),
            Operation(0, (1,), 3, None, (1,), ("m", "x")),
            Operation(1, (1,), 3, None, (0,), ("m", "x")),
        ]
        exc = same_outcome(mc, trace)
        assert "never reaches the cell" in str(exc)

    def test_consumer_listed_before_its_producer(self):
        """A (cycle, cell) group whose records run an operand edge
        backward is put in topological order, as the interpreter does."""
        mc, trace = hand_capacity_microcode()
        mc.operations = [
            Operation(1, (1,), 2, None, (0,), ("m", "x")),
            Operation(0, (1,), 2, None, (0,), ("m", "x")),
        ]
        assert same_outcome(mc, trace) is None
        assert lower(mc, trace).produced == [0, 1, 0, 1]

    def test_records_outside_the_cycle_range(self):
        mc, trace = hand_capacity_microcode()
        mc.last_cycle = 1
        assert same_outcome(mc, trace) is None


def test_output_never_computed(dp_design_fig1):
    design = dp_design_fig1
    plan = build_execution_plan(design.system, design.params)
    trace = SystemTrace(plan)
    mc = compile_design(trace, design.schedules, design.space_maps,
                        design.interconnect.decomposer())
    read = {nid for op in mc.operations for nid in op.operands
            if nid != op.node} | {hop.node for hop in mc.hops}
    out = next(nid for _, nid in plan.outputs if nid not in read)
    mc.operations = [op for op in mc.operations if op.node != out]
    exc = same_outcome(mc, trace)
    assert isinstance(exc, MissingOperandError)
    assert "never computed" in str(exc)
