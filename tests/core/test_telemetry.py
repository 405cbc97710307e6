"""Latency histograms and the tracer's mergeable wire."""

import json

import pytest

from repro.obs import Histogram, Tracer, percentile
from repro.obs.telemetry import DEFAULT_BUCKETS


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


class TestHistogram:
    def test_observe_updates_stats(self):
        h = Histogram("lat")
        for v in (0.001, 0.002, 0.004, 0.1):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(0.107)
        assert h.min == 0.001
        assert h.max == 0.1
        assert h.mean == pytest.approx(0.107 / 4)

    def test_bucket_counts_are_noncumulative(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 1.7, 5.0):
            h.observe(v)
        assert h.bucket_counts == [1, 2, 1]   # <=1, <=2, overflow

    def test_percentiles_exact_when_under_capacity(self):
        h = Histogram("lat")
        for i in range(1, 101):
            h.observe(float(i))
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(100) == 100.0

    def test_reservoir_bounded(self):
        h = Histogram("lat", capacity=32)
        for i in range(1000):
            h.observe(float(i))
        assert h.count == 1000
        assert len(h.sample_values()) == 32

    def test_summary_keys(self):
        h = Histogram("lat")
        h.observe(0.25)
        summary = h.summary()
        assert summary["count"] == 1
        for key in ("mean", "min", "max", "p50", "p90", "p95", "p99"):
            assert key in summary
        assert Histogram("x").summary() == {"count": 0}

    def test_wire_roundtrip_is_json_safe(self):
        h = Histogram("lat")
        for v in (0.001, 0.5, 3.0):
            h.observe(v)
        wire = json.loads(json.dumps(h.to_wire()))
        back = Histogram.from_wire("lat", wire)
        assert back.count == h.count
        assert back.sample_values() == h.sample_values()
        assert back.bucket_counts == h.bucket_counts

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_merge_rejects_mismatched_buckets(self):
        a = Histogram("lat", buckets=(1.0,))
        b = Histogram("lat", buckets=(2.0,))
        b.observe(0.5)
        with pytest.raises(ValueError, match="bucket boundaries"):
            a.merge_wire(b.to_wire())


def _worker_histograms(observations_per_worker):
    """Simulated per-worker histograms over disjoint observation slices."""
    workers = []
    for values in observations_per_worker:
        h = Histogram("stage", capacity=64)
        for v in values:
            h.observe(v)
        workers.append(h)
    return workers


def _merge_order(workers, order):
    merged = Histogram("stage", capacity=64)
    for idx in order:
        merged.merge_wire(workers[idx].to_wire())
    return merged


class TestHistogramMergeAssociativity:
    """The batch protocol folds worker registries in completion order,
    which is nondeterministic — aggregates must not depend on it."""

    SLICES = (
        [0.001 * i for i in range(1, 80)],
        [0.01 * i for i in range(1, 120)],
        [0.5, 1.0, 2.0, 4.0, 8.0] * 10,
        [3e-4] * 25,
    )

    def test_any_merge_order_identical(self):
        import itertools

        workers = _worker_histograms(self.SLICES)
        reference = _merge_order(workers, range(len(workers)))
        for order in itertools.permutations(range(len(workers))):
            merged = _merge_order(workers, order)
            assert merged.count == reference.count
            assert merged.total == pytest.approx(reference.total)
            assert merged.bucket_counts == reference.bucket_counts
            assert merged.sample_values() == reference.sample_values()

    def test_nested_merge_equals_flat_merge(self):
        """((a+b) + (c+d)) == (((a+b)+c)+d) — true associativity, not just
        commutativity."""
        workers = _worker_histograms(self.SLICES)
        left = Histogram("stage", capacity=64)
        left.merge_wire(workers[0].to_wire())
        left.merge_wire(workers[1].to_wire())
        right = Histogram("stage", capacity=64)
        right.merge_wire(workers[2].to_wire())
        right.merge_wire(workers[3].to_wire())
        nested = Histogram("stage", capacity=64)
        nested.merge_wire(left.to_wire())
        nested.merge_wire(right.to_wire())
        flat = _merge_order(workers, range(len(workers)))
        assert nested.sample_values() == flat.sample_values()
        assert nested.bucket_counts == flat.bucket_counts

    def test_merge_matches_single_process(self):
        """Workers over disjoint slices must aggregate exactly like one
        process observing everything (bucket counts are exact)."""
        workers = _worker_histograms(self.SLICES)
        merged = _merge_order(workers, range(len(workers)))
        single = Histogram("stage", capacity=64)
        for values in self.SLICES:
            for v in values:
                single.observe(v)
        assert merged.count == single.count
        assert merged.bucket_counts == single.bucket_counts
        assert merged.min == single.min
        assert merged.max == single.max


class TestRegistry:
    """The tracer as the one registry: counters, timers, gauges and
    histograms on one mergeable wire."""

    def test_snapshot_sorted_and_json_ready(self):
        tr = Tracer()
        tr.count("b", 2)
        tr.count("a")
        tr.set_gauge("g", 1.5)
        tr.observe("h", 0.1)
        with tr.span("z.stage"):
            pass
        with tr.span("a.stage"):
            pass
        wire = tr.to_wire()
        assert list(wire["counters"]) == ["a", "b"]
        assert list(wire["timers"]) == ["a.stage", "z.stage"]
        assert wire["gauges"] == {"g": 1.5}
        assert wire["histograms"]["h"]["count"] == 1
        assert json.loads(json.dumps(wire)) == wire
        assert tr.snapshot() == {"counters": wire["counters"],
                                 "timers": wire["timers"]}

    def test_empty_histograms_kept_off_wire_and_snapshot(self):
        tr = Tracer()
        tr.histograms["pre.registered"] = Histogram("pre.registered")
        assert tr.to_wire()["histograms"] == {}
        assert "histograms" not in tr.snapshot()

    def test_merge_wire_full_registry(self):
        a = Tracer()
        a.count("hits", 2)
        a.observe("lat", 0.1)
        b = Tracer()
        b.count("hits", 3)
        b.set_gauge("eta", 9.0)
        b.observe("lat", 0.2)
        with b.span("stage"):
            pass
        a.merge_wire(json.loads(json.dumps(b.to_wire())))
        assert a.counters["hits"] == 5
        assert a.timers["stage"] == b.timers["stage"]
        assert a.gauges["eta"] == 9.0
        assert a.histograms["lat"].count == 2

    def test_merged_counters_charge_the_active_span(self):
        worker = Tracer()
        worker.count("hits", 2)
        parent = Tracer()
        parent.enable()
        with parent.span("sweep.solve") as span:
            parent.merge_wire(worker.to_wire())
        assert parent.counters["hits"] == 2
        assert span.counters["hits"] == 2

    def test_reset_clears_in_place(self):
        tr = Tracer()
        stores = (tr.counters, tr.timers, tr.gauges, tr.histograms)
        tr.count("x")
        tr.set_gauge("g", 1.0)
        tr.observe("h", 0.5)
        tr.reset()
        assert (tr.counters, tr.timers, tr.gauges, tr.histograms) == \
            ({}, {}, {}, {})
        assert all(new is old for new, old in zip(
            (tr.counters, tr.timers, tr.gauges, tr.histograms), stores))

    def test_enabled_span_feeds_its_histogram(self):
        tr = Tracer()
        with tr.span("quiet"):
            pass
        assert tr.histograms == {}
        tr.enable()
        with tr.span("loud"):
            pass
        with tr.span("loud"):
            pass
        assert tr.histograms["loud"].count == 2
