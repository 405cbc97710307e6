"""Physical consistency of compiled microcode against the array model:
every hop is one interconnect link; every endpoint is an existing cell."""

import pytest

from repro.ir import trace_execution
from repro.machine import compile_design


@pytest.fixture(scope="module")
def fig2_trace(dp_design_fig2, dp_host_inputs):
    design = dp_design_fig2
    return trace_execution(design.system, design.params, dp_host_inputs)


@pytest.fixture(scope="module")
def fig2_microcode(dp_design_fig2, fig2_trace):
    design = dp_design_fig2
    mc = compile_design(fig2_trace, design.schedules, design.space_maps,
                        design.interconnect.decomposer())
    return design, mc


class TestRecordsNamePlanNodes:
    def test_placement_is_indexed_by_node_id(self, fig2_microcode,
                                             fig2_trace):
        """``placement[i]`` is the (T, S) placement of ``plan.keys[i]``."""
        design, mc = fig2_microcode
        keys = fig2_trace.plan.keys
        assert len(mc.placement) == len(keys)
        for key, (t, cell) in zip(keys, mc.placement):
            assert t == design.time(key.module, key.point)
            assert cell == design.cell(key.module, key.point)

    def test_records_fire_where_their_node_is_placed(self, fig2_microcode,
                                                     fig2_trace):
        """Every injection and operation names the plan node it produces,
        and an operation's operands are the plan's operand tuple."""
        _, mc = fig2_microcode
        plan = fig2_trace.plan
        for rec in mc.injections + mc.operations:
            assert mc.placement[rec.node] == (rec.cycle, rec.cell)
        for op in mc.operations:
            assert op.operands is plan.operands[op.node]
        assert sorted(rec.node for rec in mc.injections + mc.operations) \
            == list(range(plan.node_count))


class TestHopsArePhysical:
    def test_every_hop_is_one_link(self, fig2_microcode):
        design, mc = fig2_microcode
        moves = set(design.interconnect.moves())
        for hop in mc.hops:
            diff = tuple(b - a for a, b in zip(hop.src, hop.dst))
            assert diff in moves, f"hop {hop} is not a single Δ link"

    def test_hop_endpoints_inside_array(self, fig2_microcode):
        """Data never transits through cells that do not exist."""
        design, mc = fig2_microcode
        region = design.region()
        for hop in mc.hops:
            assert hop.src in region, f"{hop} departs a non-existent cell"
            assert hop.dst in region, f"{hop} arrives at a non-existent cell"

    def test_injections_inside_array(self, fig2_microcode):
        design, mc = fig2_microcode
        region = design.region()
        for inj in mc.injections:
            assert inj.cell in region

    def test_operations_inside_array(self, fig2_microcode):
        design, mc = fig2_microcode
        region = design.region()
        for op in mc.operations:
            assert op.cell in region

    def test_hop_cycles_within_span(self, fig2_microcode):
        _, mc = fig2_microcode
        for hop in mc.hops:
            assert mc.first_cycle <= hop.cycle <= mc.last_cycle

    def test_values_arrive_before_use(self, fig2_microcode):
        """Static check: the last hop of each value chain lands no later
        than the consumer's cycle (the simulator enforces it dynamically;
        this pins the compiler's schedule)."""
        _, mc = fig2_microcode
        last_arrival: dict = {}
        for hop in mc.hops:
            key = (hop.node, hop.dst)
            last_arrival[key] = max(last_arrival.get(key, hop.cycle),
                                    hop.cycle)
        placed = mc.placement
        for op in mc.operations:
            for operand in op.operands:
                t_src, c_src = placed[operand]
                if c_src == op.cell:
                    continue
                arrival = last_arrival.get((operand, op.cell))
                assert arrival is not None
                assert arrival <= op.cycle


class TestFig1AlsoPhysical:
    def test_fig1(self, dp_design_fig1, dp_host_inputs):
        design = dp_design_fig1
        trace = trace_execution(design.system, design.params, dp_host_inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        moves = set(design.interconnect.moves())
        region = design.region()
        for hop in mc.hops:
            diff = tuple(b - a for a, b in zip(hop.src, hop.dst))
            assert diff in moves
            assert hop.src in region and hop.dst in region