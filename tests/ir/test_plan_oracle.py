"""The node-id-array plan builder and program former against their scalar
predecessors (``tests/ir/plan_oracle.py``): field-by-field equal plans
and programs on every system of the fingerprint grid, the verify-batch
designs' systems and the fuzz corpus, and the same errors."""

from pathlib import Path

import numpy as np
import pytest

from repro.codegen.executor import UnsupportedForNative, encode_program
from repro.core.restructure import restructure
from repro.fuzz.cases import build_spec
from repro.fuzz.corpus import load_corpus
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
)
from repro.ir.affine import var
from repro.ir.evaluate import build_execution_plan
from repro.ir.predicates import at_least
from repro.ir.statements import LinkRule
from repro.ir.variables import ExternalRef
from repro.ir.vector import lower_plan
from tests.core.test_link_constraints import SYSTEMS, _system
from tests.ir import plan_oracle

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

#: The verify-batch workload's designs (``benchmarks/e2e/workloads.py``
#: ``VERIFY_SET``): the largest system of each family.
VERIFY_SYSTEMS = [("dp", (("n", 18),)), ("dp", (("n", 16),)),
                  ("dp-spec", (("n", 12),)), ("matmul", (("n", 7),)),
                  ("conv-backward", (("n", 32), ("s", 4))),
                  ("conv-forward", (("n", 32), ("s", 4)))]

I = var("i")


def corpus_systems():
    """``(label, system, params)`` of every corpus artifact that
    restructures."""
    out = []
    for artifact in load_corpus(CORPUS):
        desc = artifact["descriptor"]
        params = {"n": desc.n}
        try:
            system = restructure(build_spec(desc), params=params)
        except Exception:      # rejected or infeasible before a system
            continue
        out.append((artifact["path"].name, system, params))
    return out


def assert_same_plan(got, want):
    assert got.system is want.system
    assert got.params == want.params
    assert list(got.keys) == list(want.keys)
    assert len(got.keys) == got.node_count == want.node_count
    assert len(got.rules) == len(want.rules)
    assert all(a is b for a, b in zip(got.rules, want.rules))
    assert got.rows == want.rows
    assert got.operands == want.operands
    assert got.input_calls == want.input_calls
    assert got.order == want.order
    assert got.outputs == want.outputs
    assert got.points.keys() == want.points.keys()
    for name in got.points:
        assert got.points[name] is want.points[name]


def _encoded(program):
    try:
        return encode_program(program).tolist()
    except UnsupportedForNative as exc:
        return str(exc)


def assert_same_program(got, want):
    assert (got.node_count, got.level_count, got.int_ok) \
        == (want.node_count, want.level_count, want.int_ok)
    assert len(got.groups) == len(want.groups)
    for g, h in zip(got.groups, want.groups):
        assert (g.level, g.kind, g.input_name, g.dst_py, g.indices,
                g.int_kernel) \
            == (h.level, h.kind, h.input_name, h.dst_py, h.indices,
                h.int_kernel)
        assert g.op is h.op
        assert g.dst.dtype == h.dst.dtype == np.intp
        assert g.dst.tolist() == h.dst.tolist()
        assert [c.tolist() for c in g.operands] \
            == [c.tolist() for c in h.operands]
        assert all(c.dtype == np.intp for c in g.operands)
    assert _encoded(got) == _encoded(want)


def check(system, params):
    got = build_execution_plan(system, params)
    assert_same_plan(got, plan_oracle.build_execution_plan(system, params))
    assert_same_program(lower_plan(got), plan_oracle.lower_plan(got))


@pytest.mark.parametrize(
    "problem,params", SYSTEMS + VERIFY_SYSTEMS,
    ids=[f"{p}({','.join(f'{k}={v}' for k, v in ps)})"
         for p, ps in SYSTEMS + VERIFY_SYSTEMS])
def test_grid_and_verify_systems(problem, params):
    params = dict(params)
    check(_system(problem, params), params)


def test_grid_has_42_systems():
    assert len(SYSTEMS) == 42


def test_corpus_systems():
    systems = corpus_systems()
    assert systems
    for _, system, params in systems:
        check(system, params)


# -- errors ------------------------------------------------------------------

def same_error(system, params=None):
    """Both builders raise the same exception type with the same message;
    returns it."""
    params = params or {}
    with pytest.raises(Exception) as got:
        build_execution_plan(system, params)
    with pytest.raises(Exception) as want:
        plan_oracle.build_execution_plan(system, params)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    return got.value


def one_module(*equations, outputs=(), inputs=()):
    domain = Polyhedron.box({"i": (1, 4)})
    module = Module("m", ("i",), domain, list(equations))
    return RecurrenceSystem("t", [module], outputs=list(outputs),
                            input_names=tuple(inputs))


class TestErrorParity:
    def test_out_of_domain_reference(self):
        system = one_module(Equation("x", (
            ComputeRule(IDENTITY, (Ref.of("x", I - 1),)),)))
        assert isinstance(same_error(system), KeyError)

    def test_first_miss_in_reference_order(self):
        """Two references miss at different points: the error names the
        one the scalar evaluator reached first."""
        system = one_module(
            Equation("a", (InputRule("inp", (I,)),)),
            Equation("x", (ComputeRule(ADD, (Ref.of("a", I + 1),
                                             Ref.of("a", I - 1))),)),
            inputs=("inp",))
        assert "m::a(0,)" in str(same_error(system))

    def test_undefined_variable(self):
        system = one_module(Equation("x", (
            ComputeRule(IDENTITY, (Ref.of("nope", I),)),)))
        assert isinstance(same_error(system), KeyError)

    def test_wrong_dimension_reference(self):
        system = one_module(
            Equation("a", (InputRule("inp", (I,)),)),
            Equation("x", (ComputeRule(IDENTITY, (Ref.of("a", I, I),)),)),
            inputs=("inp",))
        assert isinstance(same_error(system), KeyError)

    def test_link_outside_the_source_domain(self):
        small = Polyhedron.box({"i": (1, 2)})
        source = Module("src", ("i",), small,
                        [Equation("y", (InputRule("inp", (I,)),))])
        sink = Module("m", ("i",), Polyhedron.box({"i": (1, 4)}), [
            Equation("x", (LinkRule(ExternalRef.of("src", "y", I)),))])
        system = RecurrenceSystem("t", [source, sink], outputs=[],
                                  input_names=("inp",))
        assert "src::y(3,)" in str(same_error(system))

    def test_uncovered_guard(self):
        system = one_module(
            Equation("a", (InputRule("inp", (I,)),)),
            Equation("x", (ComputeRule(IDENTITY, (Ref.of("a", I),),
                                       guard=at_least(I, 3)),)),
            inputs=("inp",))
        assert isinstance(same_error(system), ValueError)

    def test_reference_into_an_uncovered_point(self):
        """``a`` is defined only from i = 3 on, so ``x`` at i = 1 reads a
        value whose guard does not hold."""
        system = one_module(
            Equation("a", (InputRule("inp", (I,),
                                     guard=at_least(I, 3)),),
                     where=at_least(I, 3)),
            Equation("x", (ComputeRule(IDENTITY, (Ref.of("a", I),)),)),
            inputs=("inp",))
        same_error(system)

    def test_output_outside_the_domain(self):
        domain = Polyhedron.box({"i": (1, 4)})
        wide = Polyhedron.box({"i": (1, 5)})
        system = RecurrenceSystem(
            "t", [Module("m", ("i",), domain,
                         [Equation("a", (InputRule("inp", (I,)),))])],
            outputs=[OutputSpec("m", "a", wide, (I,))],
            input_names=("inp",))
        assert isinstance(same_error(system), KeyError)

    def test_cyclic_dependence(self):
        system = one_module(
            Equation("x", (ComputeRule(IDENTITY, (Ref.of("y", I),)),)),
            Equation("y", (ComputeRule(IDENTITY, (Ref.of("x", I),)),)))
        assert isinstance(same_error(system), CyclicDependence)

    def test_self_reference_is_cyclic(self):
        system = one_module(Equation("x", (
            ComputeRule(IDENTITY, (Ref.of("x", I),)),)))
        assert isinstance(same_error(system), CyclicDependence)
