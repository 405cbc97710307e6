"""Verification catches broken designs; exploration reproduces Tables 1/2."""

import pytest

from repro.arrays import LINEAR_BIDIR
from repro.core import (
    Design,
    explore_uniform,
    pareto_front,
    verify_design,
)
from repro.problems import (
    classify_design,
    convolution_backward,
    convolution_forward,
    convolution_inputs,
)
from repro.schedule import LinearSchedule
from repro.space import SpaceMap
from tests.machine.tiers import tier

PARAMS = {"n": 10, "s": 4}
X = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3]
W = [2, 7, -1, 8]
INPUTS = convolution_inputs(X, W)


def w2_design(schedule_coeffs=(1, 1), matrix=((0, 1),)):
    system = convolution_backward()
    return Design(
        system=system, params=dict(PARAMS), interconnect=LINEAR_BIDIR,
        schedules={"conv": LinearSchedule(("i", "k"), schedule_coeffs)},
        space_maps={"conv": SpaceMap(("i", "k"), matrix)})


class TestVerifyDesign:
    def test_good_design_passes(self):
        report = verify_design(w2_design(), INPUTS)
        assert report.ok
        assert report.machine_stats is not None

    def test_invalid_schedule_caught(self):
        report = verify_design(w2_design(schedule_coeffs=(1, -1)), INPUTS)
        assert not report.ok
        assert not report.schedule_valid

    def test_conflicting_space_map_caught(self):
        report = verify_design(w2_design(matrix=((0, 0),)), INPUTS)
        assert not report.ok
        assert not report.conflict_free

    def test_unrealisable_flow_caught(self):
        report = verify_design(w2_design(matrix=((0, 2),)), INPUTS)
        assert not report.ok
        assert not report.flows_ok

    def test_engines_agree(self):
        """The native verification path (cached plans + lowered machine)
        must reproduce the interpreted oracle's report exactly — twice, so
        the warm cached path is exercised too."""
        design = w2_design()
        oracle = verify_design(design, INPUTS, engine="interpreted")
        for _ in range(2):
            fast = verify_design(design, INPUTS)
            assert fast.ok == oracle.ok
            assert fast.failures == oracle.failures
            assert fast.machine_stats == oracle.machine_stats

    def test_engines_agree_on_broken_design(self):
        broken = w2_design(schedule_coeffs=(1, -1))
        oracle = verify_design(broken, INPUTS, engine="interpreted")
        fast = verify_design(broken, INPUTS)
        assert not fast.ok and not oracle.ok
        assert fast.failures == oracle.failures

    def test_vector_engine_agrees(self):
        """The same on native's ndarray tier (``$REPRO_NO_NATIVE``)."""
        design = w2_design()
        oracle = verify_design(design, INPUTS, engine="interpreted")
        for _ in range(2):   # second pass hits the cached plans and machine
            with tier("vector"):
                fast = verify_design(design, INPUTS)
            assert fast.ok == oracle.ok
            assert fast.failures == oracle.failures
            assert fast.machine_stats == oracle.machine_stats

    def test_vector_engine_agrees_on_broken_design(self):
        broken = w2_design(schedule_coeffs=(1, -1))
        oracle = verify_design(broken, INPUTS, engine="interpreted")
        with tier("vector"):
            fast = verify_design(broken, INPUTS)
        assert not fast.ok and not oracle.ok
        assert fast.failures == oracle.failures

    def test_multi_seed_batched_verification(self):
        design = w2_design()
        x_pool = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, 8, -2]

        def factory(seed):
            return convolution_inputs(
                [x_pool[(seed + k) % len(x_pool)] for k in range(10)], W)

        batched = verify_design(design, factory, seeds=range(5))
        looped = verify_design(design, factory, engine="interpreted",
                               seeds=range(5))
        assert batched.ok and looped.ok
        assert batched.seeds_checked == looped.seeds_checked == 5
        assert batched.machine_stats == looped.machine_stats

    def test_empty_seed_sequence_rejected(self):
        # Regression: seeds=[] used to check zero inputs and report OK — a
        # vacuous pass indistinguishable from a real one.
        with pytest.raises(ValueError, match="seeds"):
            verify_design(w2_design(), lambda seed: INPUTS, seeds=[])

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            verify_design(w2_design(), INPUTS, engine="quantum")

    def test_global_gap_violation_caught(self, dp_design_fig1,
                                         dp_host_inputs):
        broken = Design(
            system=dp_design_fig1.system,
            params=dp_design_fig1.params,
            interconnect=dp_design_fig1.interconnect,
            schedules={**dp_design_fig1.schedules,
                       "comb": dp_design_fig1.schedules["comb"].shifted(-3)},
            space_maps=dp_design_fig1.space_maps)
        report = verify_design(broken, dp_host_inputs)
        assert not report.ok
        assert not report.global_gaps_ok
        # A design rebuilt from its payload is checked just the same.
        rebuilt = Design.from_dict(broken.to_dict(), broken.system)
        for engine in ("native", "interpreted"):
            report = verify_design(rebuilt, dp_host_inputs, engine=engine)
            assert not report.global_gaps_ok, engine


class TestExploration:
    def test_table1_backward_labels(self):
        designs = explore_uniform(convolution_backward(), PARAMS,
                                  LINEAR_BIDIR, time_bound=2)
        labels = {classify_design(d.flows) for d in designs} - {None}
        assert "W2" in labels
        assert "W1" not in labels and "R2" not in labels

    def test_table2_forward_labels(self):
        designs = explore_uniform(convolution_forward(), PARAMS,
                                  LINEAR_BIDIR, time_bound=2)
        labels = {classify_design(d.flows) for d in designs} - {None}
        assert {"W1", "R2"} <= labels
        assert "W2" not in labels

    def test_every_explored_design_verifies(self):
        designs = explore_uniform(convolution_backward(), PARAMS,
                                  LINEAR_BIDIR, time_bound=1)
        assert designs
        for d in designs[:6]:
            report = verify_design(d.design, INPUTS)
            assert report.ok, report.failures

    def test_sorted_by_quality(self):
        designs = explore_uniform(convolution_backward(), PARAMS,
                                  LINEAR_BIDIR, time_bound=2)
        keys = [(d.makespan, d.cells) for d in designs]
        assert keys == sorted(keys, key=lambda t: t[0])

    def test_explore_interconnects(self):
        from repro.arrays import (
            FIG1_UNIDIRECTIONAL,
            FIG2_EXTENDED,
            Interconnect,
        )
        from repro.core import explore_interconnects
        from repro.problems import dp_system

        bad = Interconnect("horizontal-only", ((0, 0), (1, 0), (-1, 0)))
        results = explore_interconnects(
            dp_system(), {"n": 6},
            [bad, FIG1_UNIDIRECTIONAL, FIG2_EXTENDED])
        names = [ic.name for ic, _ in results]
        # Feasible patterns first, cheapest first; infeasible last.
        assert names == ["fig2-extended", "fig1-unidirectional",
                         "horizontal-only"]
        assert results[-1][1] is None
        assert results[0][1].cell_count < results[1][1].cell_count

    def test_pareto_front(self):
        designs = explore_uniform(convolution_backward(), PARAMS,
                                  LINEAR_BIDIR, time_bound=2)
        front = pareto_front(designs)
        assert front
        for a in front:
            assert not any(
                b.makespan <= a.makespan and b.cells <= a.cells
                and (b.makespan, b.cells) != (a.makespan, a.cells)
                for b in designs)

    def test_non_dominated_keeps_order_and_first_of_each_point(self):
        from repro.core.explore import non_dominated

        items = [("a", 5, 3), ("b", 4, 4), ("c", 5, 3), ("d", 6, 3),
                 ("e", 4, 4), ("f", 3, 9)]
        front = non_dominated(items, lambda i: (i[1], i[2]))
        assert [i[0] for i in front] == ["a", "b", "f"]
        assert non_dominated([], lambda i: i) == []
