"""End-to-end synthesis: the paper's designs, exactly."""

import pytest

from repro.arrays import FIG1_UNIDIRECTIONAL, FIG2_EXTENDED, LINEAR_BIDIR
from repro.core import Design, NoScheduleExists, synthesize, verify_design
from repro.core import verify as verify_mod
from repro.ir import (
    IDENTITY,
    ComputeRule,
    Equation,
    ExternalRef,
    LinkRule,
    Module,
    OutputSpec,
    Polyhedron,
    RecurrenceSystem,
    Ref,
    evaluate,
)
from repro.ir.affine import var
from repro.problems import (
    convolution_inputs,
    dp_inputs,
    dp_system,
    random_inputs,
)
from repro.rewrite import pipeline as pipeline_mod

I = var("i")


class TestFig1Design:
    def test_time_functions(self, dp_design_fig1):
        d = dp_design_fig1
        assert d.schedules["m1"].coeffs == (-1, 2, -1)   # λ
        assert d.schedules["m2"].coeffs == (-2, 1, 1)    # μ
        assert d.schedules["comb"].coeffs == (-2, 2)     # σ

    def test_space_maps_are_j_i(self, dp_design_fig1):
        d = dp_design_fig1
        for name in ("m1", "m2"):
            assert d.space_maps[name].matrix == ((0, 1, 0), (1, 0, 0))
        assert d.space_maps["comb"].matrix == ((0, 1), (1, 0))

    def test_cell_count(self, dp_design_fig1, dp_params):
        n = dp_params["n"]
        # Cells (j, i) for j - i >= 2: C(n-1, 2).
        assert dp_design_fig1.cell_count == (n - 1) * (n - 2) // 2

    def test_completion_linear_in_n(self, dp_design_fig1, dp_params):
        n = dp_params["n"]
        assert dp_design_fig1.completion_time == 2 * n - 5

    def test_verification(self, dp_design_fig1, dp_host_inputs):
        report = verify_design(dp_design_fig1, dp_host_inputs)
        assert report.ok, report.failures


class TestFig2Design:
    def test_space_maps_match_paper(self, dp_design_fig2):
        d = dp_design_fig2
        assert d.space_maps["m1"].matrix == ((0, 0, 1), (1, 0, 0))
        assert d.space_maps["m2"].matrix == ((1, 1, -1), (1, 0, 0))
        assert d.space_maps["comb"].matrix == ((1, 0), (1, 0))
        assert d.space_maps["comb"].offset == (1, 0)

    def test_fewer_cells_than_fig1(self, dp_design_fig1, dp_design_fig2):
        assert dp_design_fig2.cell_count < dp_design_fig1.cell_count

    def test_flow_directions_match_paper(self, dp_design_fig2):
        """Section VI: c' left, a' stays, b' up; a'' right, b'' up-left
        diagonal, c'' left."""
        flows = dp_design_fig2.flows()
        assert flows["m1"]["cp"].direction == (-1, 0)
        assert flows["m1"]["ap"].stays
        assert flows["m1"]["bp"].direction == (0, -1)
        assert flows["m2"]["app"].direction == (1, 0)
        assert flows["m2"]["bpp"].direction == (-1, -1)
        assert flows["m2"]["cpp"].direction == (-1, 0)

    def test_verification(self, dp_design_fig2, dp_host_inputs):
        report = verify_design(dp_design_fig2, dp_host_inputs)
        assert report.ok, report.failures

    def test_same_completion_time_as_fig1(self, dp_design_fig1,
                                          dp_design_fig2):
        assert dp_design_fig2.completion_time == \
            dp_design_fig1.completion_time


class TestConvolutionDesigns:
    def test_w2_schedule_and_map(self, conv_design_backward):
        d = conv_design_backward
        assert d.schedules["conv"].coeffs == (1, 1)
        assert d.space_maps["conv"].matrix == ((0, 1),)

    def test_w2_cells_equal_s(self, conv_design_backward, conv_params):
        assert conv_design_backward.cell_count == conv_params["s"]

    def test_verification(self, conv_design_backward, conv_params):
        x = list(range(1, conv_params["n"] + 1))
        w = [2, -1, 1, 3]
        report = verify_design(conv_design_backward,
                               convolution_inputs(x, w))
        assert report.ok, report.failures


class TestDesignObject:
    def test_summary_mentions_everything(self, dp_design_fig2):
        text = dp_design_fig2.summary()
        assert "m1" in text and "comb" in text and "cells" in text

    def test_region_and_array(self, dp_design_fig2):
        arr = dp_design_fig2.array()
        assert arr.cell_count == dp_design_fig2.cell_count

    def test_time_normalised_to_zero(self, dp_design_fig1):
        lo, hi = dp_design_fig1.time_range()
        assert lo == 0

    def test_module_points_are_the_shared_domain_array(self, dp_design_fig1):
        d = dp_design_fig1
        pts = d.module_points("m1")
        assert pts is d.system.modules["m1"].domain.points_array(d.params)
        assert not pts.flags.writeable



class TestCyclicSystems:
    """A value that depends on itself has no schedule: ``synthesize``
    reports it as :class:`NoScheduleExists`, a ``SynthesisError`` that
    sweeps record as an infeasible job."""

    DOMAIN = Polyhedron.box({"i": (1, 3)})

    def test_intra_point_cycle(self):
        x = Equation("x", (ComputeRule(IDENTITY, (Ref.of("y", I),)),))
        y = Equation("y", (ComputeRule(IDENTITY, (Ref.of("x", I),)),))
        system = RecurrenceSystem(
            "loop", [Module("loop", ("i",), self.DOMAIN, [x, y])],
            outputs=[])
        with pytest.raises(NoScheduleExists, match="cycl"):
            synthesize(system, {}, LINEAR_BIDIR)

    def test_link_cycle_between_modules(self):
        a = Module("A", ("i",), self.DOMAIN,
                   [Equation("x", (LinkRule(ExternalRef.of("B", "y", I)),))])
        b = Module("B", ("i",), self.DOMAIN,
                   [Equation("y", (LinkRule(ExternalRef.of("A", "x", I)),))])
        system = RecurrenceSystem(
            "links", [a, b], outputs=[OutputSpec("B", "y", self.DOMAIN, (I,))])
        with pytest.raises(NoScheduleExists):
            synthesize(system, {}, LINEAR_BIDIR)


def test_synthesis_and_native_verify_build_one_plan(monkeypatch):
    """The schedule pass builds the execution plan; native verification of
    the fresh design reuses it instead of building another."""
    built = []
    original = evaluate.build_execution_plan

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    for module in (evaluate, pipeline_mod, verify_mod):
        monkeypatch.setattr(module, "build_execution_plan", counting)
    params = {"n": 5}
    design = synthesize(dp_system(), params, FIG1_UNIDIRECTIONAL)
    assert len(built) == 1
    report = verify_design(design,
                           lambda seed: random_inputs("dp", params, seed),
                           seeds=range(2))
    assert report.ok, report.failures
    assert len(built) == 1


class TestMicrocodeHandoff:
    """Native verification lowers the microcode the allocate pass compiled
    instead of compiling the design again."""

    PARAMS = {"n": 5}

    @pytest.fixture
    def compiled(self, monkeypatch):
        """Every ``compile_design`` call, from the pipeline or from
        verification."""
        calls = []
        original = verify_mod.compile_design

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (pipeline_mod, verify_mod):
            monkeypatch.setattr(module, "compile_design", counting)
        return calls

    def verify(self, design):
        report = verify_design(
            design, lambda seed: random_inputs("dp", self.PARAMS, seed),
            seeds=range(2))
        assert report.ok, report.failures

    def test_fresh_design_compiles_nothing(self, compiled):
        design = synthesize(dp_system(), self.PARAMS, FIG1_UNIDIRECTIONAL)
        assert "microcode" in design._exec_cache
        after_synthesis = len(compiled)
        self.verify(design)
        assert len(compiled) == after_synthesis
        # Lowered once, the microcode is dropped from the design.
        assert "microcode" not in design._exec_cache
        self.verify(design)
        assert len(compiled) == after_synthesis

    def test_rebuilt_design_compiles_once(self, compiled):
        design = synthesize(dp_system(), self.PARAMS, FIG1_UNIDIRECTIONAL)
        rebuilt = Design.from_dict(design.to_dict(), design.system)
        before = len(compiled)
        self.verify(rebuilt)
        self.verify(rebuilt)
        assert len(compiled) == before + 1
        assert "microcode" not in rebuilt._exec_cache
