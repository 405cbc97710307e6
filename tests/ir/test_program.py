"""Program containers: modules, systems, high-level specs."""

import pytest

from repro.ir import (
    ADD,
    ArgSpec,
    ComputeRule,
    Equation,
    HighLevelSpec,
    InputRule,
    MIN,
    MIN_PLUS,
    Module,
    OutputSpec,
    Polyhedron,
    RecurrenceSystem,
    Ref,
    equals,
    ge,
    le,
)
from repro.ir.affine import var
from repro.ir.indexset import eq
from repro.ir.predicates import at_least
from repro.problems import dp_spec
from repro.reference import min_plus_dp

I, J, K = var("i"), var("j"), var("k")


def tiny_module():
    domain = Polyhedron.box({"i": (1, 5)})
    eqn = Equation("x", (
        InputRule("x0", (I,), guard=equals(I, 1)),
        ComputeRule(ADD, (Ref.of("x", I - 1), Ref.of("x", I - 1)),
                    guard=at_least(I, 2)),
    ))
    return Module("tiny", ("i",), domain, [eqn])


class TestModule:
    def test_dims_must_match_domain(self):
        with pytest.raises(ValueError):
            Module("bad", ("i", "j"), Polyhedron.box({"i": (1, 3)}), [])

    def test_duplicate_equation_rejected(self):
        domain = Polyhedron.box({"i": (1, 3)})
        eqn = Equation("x", (InputRule("x0", (I,)),))
        with pytest.raises(ValueError):
            Module("dup", ("i",), domain, [eqn, eqn])

    def test_local_dependence_vectors(self):
        m = tiny_module()
        deps = m.local_dependence_vectors()
        assert deps == {"x": {(1,)}}

    def test_links_empty(self):
        assert tiny_module().links() == []


class TestRecurrenceSystem:
    def test_unknown_link_module_rejected(self):
        from repro.ir import ExternalRef, LinkRule

        domain = Polyhedron.box({"i": (1, 3)})
        eqn = Equation("x", (LinkRule(ExternalRef.of("ghost", "y", I)),))
        m = Module("m", ("i",), domain, [eqn])
        with pytest.raises(ValueError):
            RecurrenceSystem("s", [m], outputs=[])

    def test_unknown_output_rejected(self):
        m = tiny_module()
        out = OutputSpec("tiny", "ghost", m.domain, (I,))
        with pytest.raises(ValueError):
            RecurrenceSystem("s", [m], outputs=[out])

    def test_duplicate_module_names(self):
        m = tiny_module()
        with pytest.raises(ValueError):
            RecurrenceSystem("s", [m, tiny_module()], outputs=[])


class TestArgSpec:
    def test_operand_point(self):
        # c_{i,k}: replace coord 1 (j) by k.
        arg = ArgSpec(1, (0, 0))
        assert arg.operand_point((2, 7), 4) == (2, 4)

    def test_offsets_applied(self):
        arg = ArgSpec(0, (0, 1))
        assert arg.operand_point((2, 7), 5) == (5, 6)

    def test_bad_coord_rejected(self):
        with pytest.raises(ValueError):
            HighLevelSpec(
                name="bad", dims=("i",),
                domain=Polyhedron.box({"i": (1, 3)}),
                target="c", reduction_index="k",
                k_lower=I, k_upper=I, body=MIN_PLUS, combine=MIN,
                args=(ArgSpec(5, (0,)), ArgSpec(0, (0,))),
                init_domain=Polyhedron.box({"i": (1, 3)}),
                init_input="c0")


class TestHighLevelSpecEvaluate:
    def test_dp_matches_reference(self):
        spec = dp_spec()
        n = 7
        seeds = [3, 1, 4, 1, 5, 9]
        table = spec.evaluate({"n": n}, lambda i, j: seeds[i - 1])
        ref = min_plus_dp(seeds, n)
        for key, value in ref.items():
            assert table[key] == value

    def test_out_of_domain_reference_raises(self):
        spec = dp_spec()
        # A seed function that is fine; but shrink the init domain so a
        # needed boundary value is missing.
        broken = HighLevelSpec(
            name="broken", dims=spec.dims, domain=spec.domain,
            target="c", reduction_index="k",
            k_lower=spec.k_lower, k_upper=spec.k_upper,
            body=spec.body, combine=spec.combine, args=spec.args,
            init_domain=Polyhedron(("i", "j"),
                                   [ge(I, 2), le(J, "n"), *eq(J - I, 1)],
                                   params=("n",)),
            init_input="c0", params=("n",))
        with pytest.raises(KeyError):
            broken.evaluate({"n": 5}, lambda i, j: 1)

    def test_k_range(self):
        spec = dp_spec()
        assert list(spec.k_range({"i": 2, "j": 6})) == [3, 4, 5]
