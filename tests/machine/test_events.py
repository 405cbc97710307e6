"""Cycle-level machine event logs: both engines must tell the same story.

The interpreter emits events live during execution; the native engine
replays the stream :func:`repro.machine.lower` derives structurally.  On every design the two
streams must be identical under the canonical order, and their aggregate
counts must agree with the ``MachineStats`` block the run already reports.
"""

import json

import pytest

from repro.codegen import native_available
from repro.ir import trace_execution
from repro.machine import compile_design, lower, nativize, run
from repro.obs import EVENT_KINDS, EventLog, MachineEvent, canonical_order, read_jsonl
from tests.machine.tiers import tier

requires_cc = pytest.mark.skipif(not native_available(),
                                 reason="no C toolchain on this machine")


def _logged_run(design, inputs, engine):
    """One logged run on ``"interpreted"`` or a native tier (``"native"``,
    ``"vector"``)."""
    trace = trace_execution(design.system, design.params, inputs)
    mc = compile_design(trace, design.schedules, design.space_maps,
                        design.interconnect.decomposer())
    log = EventLog()
    with tier(engine):
        result = run(mc, trace, inputs, sink=log,
                     engine="interpreted" if engine == "interpreted"
                     else "native")
    return result, log


@pytest.fixture(scope="module")
def fig1_logs(dp_design_fig1, dp_host_inputs):
    interp, interp_log = _logged_run(dp_design_fig1, dp_host_inputs,
                                     "interpreted")
    comp, comp_log = _logged_run(dp_design_fig1, dp_host_inputs, "native")
    return interp, interp_log, comp, comp_log


class TestCrossEngineIdentity:
    def test_fig1_dp_streams_identical(self, fig1_logs):
        interp, interp_log, comp, comp_log = fig1_logs
        assert canonical_order(interp_log) == canonical_order(comp_log)
        assert len(interp_log) > 0

    def test_fig2_dp_streams_identical(self, dp_design_fig2, dp_host_inputs):
        _, interp_log = _logged_run(dp_design_fig2, dp_host_inputs,
                                    "interpreted")
        _, comp_log = _logged_run(dp_design_fig2, dp_host_inputs, "native")
        assert canonical_order(interp_log) == canonical_order(comp_log)

    def test_conv_backward_streams_identical(self, conv_design_backward):
        from repro.problems import convolution_inputs
        inputs = convolution_inputs([2, -1, 3, 0, 5, -2, 1, 4, 6, -3],
                                    [1, -2, 3, 2])
        _, interp_log = _logged_run(conv_design_backward, inputs,
                                    "interpreted")
        _, comp_log = _logged_run(conv_design_backward, inputs, "native")
        assert canonical_order(interp_log) == canonical_order(comp_log)

    def test_sink_does_not_change_results(self, dp_design_fig1,
                                          dp_host_inputs):
        bare_trace = trace_execution(dp_design_fig1.system,
                                     dp_design_fig1.params, dp_host_inputs)
        mc = compile_design(bare_trace, dp_design_fig1.schedules,
                            dp_design_fig1.space_maps,
                            dp_design_fig1.interconnect.decomposer())
        bare = run(mc, bare_trace, dp_host_inputs)
        logged, _ = _logged_run(dp_design_fig1, dp_host_inputs,
                                "interpreted")
        assert logged.values == bare.values
        assert logged.stats == bare.stats


class TestFourEngineByteIdentity:
    """The interpreter's and both native tiers' canonical event streams
    must be *byte*-identical —
    the digest is a SHA-256 over the canonical JSONL, so equal digests
    mean equal bytes, not just equal event multisets."""

    def test_vector_digest_matches_interpreter(self, fig1_logs,
                                               dp_design_fig1,
                                               dp_host_inputs):
        _, interp_log, _, comp_log = fig1_logs
        _, vec_log = _logged_run(dp_design_fig1, dp_host_inputs, "vector")
        assert vec_log.digest() == interp_log.digest() == comp_log.digest()

    @requires_cc
    def test_native_digest_matches_interpreter(self, dp_design_fig1,
                                               dp_host_inputs):
        _, interp_log = _logged_run(dp_design_fig1, dp_host_inputs,
                                    "interpreted")
        result, native_log = _logged_run(dp_design_fig1, dp_host_inputs,
                                         "native")
        assert len(native_log) > 0
        assert native_log.digest() == interp_log.digest()
        # Belt and braces: the canonical JSONL itself is byte-equal.
        canon = lambda log: "\n".join(      # noqa: E731
            json.dumps(e.to_dict(), sort_keys=True)
            for e in canonical_order(log))
        assert canon(native_log) == canon(interp_log)

    @requires_cc
    def test_native_conv_backward_digest(self, conv_design_backward):
        from repro.problems import convolution_inputs
        inputs = convolution_inputs([2, -1, 3, 0, 5, -2, 1, 4, 6, -3],
                                    [1, -2, 3, 2])
        _, interp_log = _logged_run(conv_design_backward, inputs,
                                    "interpreted")
        _, native_log = _logged_run(conv_design_backward, inputs, "native")
        assert native_log.digest() == interp_log.digest()

    @requires_cc
    def test_native_sink_does_not_change_values(self, dp_design_fig1,
                                                dp_host_inputs):
        bare, _ = _logged_run(dp_design_fig1, dp_host_inputs, "native")
        trace = trace_execution(dp_design_fig1.system, dp_design_fig1.params,
                                dp_host_inputs)
        mc = compile_design(trace, dp_design_fig1.schedules,
                            dp_design_fig1.space_maps,
                            dp_design_fig1.interconnect.decomposer())
        unlogged = run(mc, trace, dp_host_inputs, engine="native")
        assert unlogged.values == bare.values
        assert unlogged.stats == bare.stats


class TestStatsAgreement:
    """Per-kind event counts must match the run's MachineStats block."""

    def test_counts_vs_machine_stats(self, fig1_logs):
        interp, log, comp, _ = fig1_logs
        counts = log.counts_by_kind()
        assert counts["fire"] == interp.stats.operations
        assert counts["hop"] == interp.stats.hops
        assert counts["inject"] == interp.stats.injections
        assert comp.stats == interp.stats

    def test_per_cell_fires_sum_to_operations(self, fig1_logs):
        interp, log, _, _ = fig1_logs
        per_cell = log.per_cell_counts()
        assert sum(c.get("fire", 0) for c in per_cell.values()) \
            == interp.stats.operations
        assert len(per_cell) >= interp.stats.cells_used

    def test_cycle_range_within_run(self, fig1_logs):
        interp, log, _, _ = fig1_logs
        lo, hi = log.cycle_range()
        assert lo >= interp.stats.first_cycle
        assert hi <= interp.stats.last_cycle

    def test_only_known_kinds(self, fig1_logs):
        _, log, _, _ = fig1_logs
        assert set(log.counts_by_kind()) <= set(EVENT_KINDS)


class TestExporters:
    def test_jsonl_round_trip(self, fig1_logs, tmp_path):
        _, log, _, _ = fig1_logs
        path = tmp_path / "events.jsonl"
        log.write_jsonl(path)
        assert read_jsonl(path) == log.events

    def test_jsonl_lines_are_stable_objects(self, fig1_logs):
        _, log, _, _ = fig1_logs
        lines = log.to_jsonl().splitlines()
        assert len(lines) == len(log)
        first = json.loads(lines[0])
        assert {"kind", "cycle", "cell", "key"} <= set(first)

    def test_chrome_trace_structure(self, fig1_logs, tmp_path):
        _, log, _, _ = fig1_logs
        doc = log.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(slices) == len(log)
        # one process_name + thread_name/thread_sort_index per cell track
        cells = {e.cell for e in log}
        assert len(meta) == 1 + 2 * len(cells)
        for s in slices:
            assert isinstance(s["ts"], int) and s["dur"] > 0
            assert s["cat"] in EVENT_KINDS
        path = tmp_path / "trace.json"
        log.write_chrome_trace(path)
        assert json.loads(path.read_text())["traceEvents"]

    def test_empty_log_exports(self, tmp_path):
        log = EventLog()
        assert log.counts_by_kind() == {}
        assert log.cycle_range() == (0, 0)
        assert log.to_jsonl() == ""
        assert log.to_chrome_trace()["traceEvents"]  # process metadata only
        path = tmp_path / "empty.jsonl"
        log.write_jsonl(path)
        assert read_jsonl(path) == []


class TestCompiledEventGating:
    def test_sink_without_recorded_events_raises(self, dp_design_fig1,
                                                 dp_host_inputs):
        trace = trace_execution(dp_design_fig1.system, dp_design_fig1.params,
                                dp_host_inputs)
        mc = compile_design(trace, dp_design_fig1.schedules,
                            dp_design_fig1.space_maps,
                            dp_design_fig1.interconnect.decomposer())
        lowered = lower(mc, trace)        # record_events defaults to False
        with pytest.raises(ValueError, match="record_events"):
            nativize(lowered).execute(dp_host_inputs, sink=EventLog())

    def test_no_sink_no_events_recorded(self, dp_design_fig1,
                                        dp_host_inputs):
        trace = trace_execution(dp_design_fig1.system, dp_design_fig1.params,
                                dp_host_inputs)
        mc = compile_design(trace, dp_design_fig1.schedules,
                            dp_design_fig1.space_maps,
                            dp_design_fig1.interconnect.decomposer())
        assert lower(mc, trace).events is None


class TestMachineEvent:
    def test_dict_round_trip(self):
        event = MachineEvent("hop", 5, (2, 1), "m1::a(3, 2)", src=(1, 1),
                             stream=("m1", "a"))
        assert MachineEvent.from_dict(event.to_dict()) == event

    def test_minimal_fields_omitted(self):
        event = MachineEvent("fire", 0, (0,), "k")
        data = event.to_dict()
        assert "src" not in data and "name" not in data \
            and "stream" not in data
        assert MachineEvent.from_dict(data) == event

    def test_canonical_order_ranks_kinds(self):
        events = [MachineEvent(kind, 1, (0,), "k") for kind in
                  ("reclaim", "fire", "hop", "output", "inject")]
        assert [e.kind for e in canonical_order(events)] \
            == list(EVENT_KINDS)
