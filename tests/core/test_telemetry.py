"""The tracer's mergeable flat form and the percentile helper behind the
report's latency tables."""

import json

import pytest

from repro.obs import Tracer
from repro.report.analytics import _percentile as percentile


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 50) is None

    def test_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_extremes(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 100.0
        assert percentile(values, 95) == pytest.approx(95.05)


class TestRegistry:
    """The tracer as the one registry: counters and timers on one
    mergeable snapshot, spans beside them."""

    def test_snapshot_sorted_and_json_ready(self):
        tr = Tracer()
        tr.count("b", 2)
        tr.count("a")
        with tr.span("z.stage"):
            pass
        with tr.span("a.stage"):
            pass
        wire = tr.snapshot()
        assert list(wire) == ["counters", "timers"]
        assert list(wire["counters"]) == ["a", "b"]
        assert list(wire["timers"]) == ["a.stage", "z.stage"]
        assert json.loads(json.dumps(wire)) == wire

    def test_merge_wire_full_registry(self):
        a = Tracer()
        a.count("hits", 2)
        b = Tracer()
        b.count("hits", 3)
        with b.span("stage"):
            pass
        a.merge_wire(json.loads(json.dumps(b.snapshot())))
        assert a.counters["hits"] == 5
        assert a.timers["stage"] == b.timers["stage"]

    def test_merge_wire_ignores_retired_sections(self):
        """Older records also carry ``gauges`` and ``histograms``; a merge
        reads counters and timers only."""
        tr = Tracer()
        tr.merge_wire({"counters": {"hits": 1}, "timers": {"stage": 0.5},
                       "gauges": {"sweep.workers": 2.0},
                       "histograms": {"stage": {"count": 1}}})
        assert tr.snapshot() == {"counters": {"hits": 1},
                                 "timers": {"stage": 0.5}}

    def test_merged_counters_charge_the_active_span(self):
        worker = Tracer()
        worker.count("hits", 2)
        parent = Tracer()
        parent.enable()
        with parent.span("sweep.solve") as span:
            parent.merge_wire(worker.snapshot())
        assert parent.counters["hits"] == 2
        assert span.counters["hits"] == 2

    def test_reset_clears_in_place(self):
        tr = Tracer()
        stores = (tr.counters, tr.timers)
        tr.count("x")
        with tr.span("stage"):
            pass
        tr.reset()
        assert (tr.counters, tr.timers) == ({}, {})
        assert all(new is old for new, old in zip(
            (tr.counters, tr.timers), stores))

    def test_only_enabled_spans_are_recorded(self):
        tr = Tracer()
        with tr.span("quiet"):
            pass
        assert tr.spans() == []
        tr.enable()
        with tr.span("loud"):
            pass
        with tr.span("loud"):
            pass
        assert [s.name for s in tr.spans()] == ["loud", "loud"]
        assert set(tr.timers) == {"quiet", "loud"}
