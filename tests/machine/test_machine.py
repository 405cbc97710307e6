"""The systolic machine: microcode compilation and cycle-accurate execution."""

import pytest

from repro.core import synthesize
from repro.ir import trace_execution
from repro.machine import (
    CausalityError,
    LocalityError,
    compile_design,
    run,
)
from repro.problems import (
    convolution_backward,
    convolution_inputs,
    dp_inputs,
    dp_system,
)
from repro.reference import convolve, min_plus_dp
from repro.schedule import LinearSchedule
from repro.space import SpaceMap
from repro.arrays import FIG1_UNIDIRECTIONAL, LINEAR_BIDIR


@pytest.fixture(scope="module")
def conv_setup():
    system = convolution_backward()
    params = {"n": 8, "s": 3}
    x = [2, -1, 3, 0, 5, -2, 1, 4]
    w = [1, -2, 3]
    inputs = convolution_inputs(x, w)
    trace = trace_execution(system, params, inputs)
    return system, params, x, w, inputs, trace


class TestMicrocode:
    def test_compiles_w2(self, conv_setup):
        system, params, x, w, inputs, trace = conv_setup
        schedules = {"conv": LinearSchedule(("i", "k"), (1, 1))}
        smaps = {"conv": SpaceMap(("i", "k"), ((0, 1),))}
        mc = compile_design(trace, schedules, smaps,
                            LINEAR_BIDIR.decomposer())
        assert mc.operations and mc.injections and mc.hops
        assert mc.span >= 1

    def test_causality_violation_detected(self, conv_setup):
        """An invalid schedule (wrong sign on y's dependence) must be caught
        at compile time, not produce wrong numbers."""
        system, params, x, w, inputs, trace = conv_setup
        schedules = {"conv": LinearSchedule(("i", "k"), (1, -1))}
        smaps = {"conv": SpaceMap(("i", "k"), ((0, 1),))}
        with pytest.raises(CausalityError):
            compile_design(trace, schedules, smaps,
                           LINEAR_BIDIR.decomposer())

    def test_locality_violation_detected(self, conv_setup):
        """A space map needing a 2-cell jump in 1 cycle must be rejected."""
        system, params, x, w, inputs, trace = conv_setup
        schedules = {"conv": LinearSchedule(("i", "k"), (1, 1))}
        smaps = {"conv": SpaceMap(("i", "k"), ((0, 2),))}
        with pytest.raises(LocalityError):
            compile_design(trace, schedules, smaps,
                           LINEAR_BIDIR.decomposer())

    def test_hops_are_single_links(self, conv_setup):
        system, params, x, w, inputs, trace = conv_setup
        schedules = {"conv": LinearSchedule(("i", "k"), (1, 1))}
        smaps = {"conv": SpaceMap(("i", "k"), ((0, 1),))}
        mc = compile_design(trace, schedules, smaps,
                            LINEAR_BIDIR.decomposer())
        moves = set(LINEAR_BIDIR.moves())
        for hop in mc.hops:
            diff = tuple(b - a for a, b in zip(hop.src, hop.dst))
            assert diff in moves


class TestExecution:
    def test_w2_computes_convolution(self, conv_setup):
        system, params, x, w, inputs, trace = conv_setup
        schedules = {"conv": LinearSchedule(("i", "k"), (1, 1))}
        smaps = {"conv": SpaceMap(("i", "k"), ((0, 1),))}
        mc = compile_design(trace, schedules, smaps,
                            LINEAR_BIDIR.decomposer())
        result = run(mc, trace, inputs, strict=True)
        expected = convolve(x, w)
        got = [result.results[(i,)] for i in range(1, len(x) + 1)]
        assert got == expected

    def test_machine_never_peeks(self, conv_setup):
        """Feeding different inputs through the same microcode changes the
        results — proof the machine recomputes rather than replays."""
        system, params, x, w, inputs, trace = conv_setup
        schedules = {"conv": LinearSchedule(("i", "k"), (1, 1))}
        smaps = {"conv": SpaceMap(("i", "k"), ((0, 1),))}
        mc = compile_design(trace, schedules, smaps,
                            LINEAR_BIDIR.decomposer())
        x2 = [v + 1 for v in x]
        other_inputs = convolution_inputs(x2, w)
        result = run(mc, trace, other_inputs, strict=True)
        got = [result.results[(i,)] for i in range(1, len(x) + 1)]
        assert got == convolve(x2, w)

    def test_stats_sane(self, conv_setup):
        system, params, x, w, inputs, trace = conv_setup
        schedules = {"conv": LinearSchedule(("i", "k"), (1, 1))}
        smaps = {"conv": SpaceMap(("i", "k"), ((0, 1),))}
        mc = compile_design(trace, schedules, smaps,
                            LINEAR_BIDIR.decomposer())
        stats = run(mc, trace, inputs).stats
        assert stats.cells_used == 3            # s cells
        assert stats.operations == trace.plan.node_count - stats.injections
        assert 0 < stats.utilization <= 1
        assert not stats.capacity_violations


class TestDpOnMachine:
    def test_fig1_design_runs_dp(self):
        n = 7
        system = dp_system()
        seeds = [3, 1, 4, 1, 5, 9]
        inputs = dp_inputs(seeds)
        design = synthesize(system, {"n": n}, FIG1_UNIDIRECTIONAL)
        trace = trace_execution(system, {"n": n}, inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            FIG1_UNIDIRECTIONAL.decomposer())
        result = run(mc, trace, inputs, strict=True)
        ref = min_plus_dp(seeds, n)
        for key, value in result.results.items():
            assert value == ref[key]

    def test_intra_cycle_ordering(self):
        """a'/b' updates and the c' compute share a cell and cycle; the
        machine must order them so c' sees fresh operands."""
        n = 6
        system = dp_system()
        seeds = [2, 7, 1, 8, 2]
        inputs = dp_inputs(seeds)
        design = synthesize(system, {"n": n}, FIG1_UNIDIRECTIONAL)
        trace = trace_execution(system, {"n": n}, inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            FIG1_UNIDIRECTIONAL.decomposer())
        result = run(mc, trace, inputs, strict=True)
        assert result.results == trace.results
