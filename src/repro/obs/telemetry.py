"""Mergeable latency histograms: the aggregate side of the tracer.

The span tracer answers "where did *this* run spend its time"; sweeps
need the aggregate question answered too — what is the p95 of the
``native.cc`` stage across every job of a campaign.  :class:`Histogram`
is a distribution with **fixed buckets** (exact counts) plus a
**deterministic reservoir** for percentile estimates.  Histograms are
*mergeable*: :meth:`Histogram.merge_wire` is associative and commutative,
so worker histograms folded in any order — the sweep stats protocol of
:mod:`repro.core.batch` — produce identical aggregates.  The
:class:`~repro.obs.tracer.Tracer` holds them by name next to its
counters, timers and gauges.

Determinism is load-bearing: the reservoir does **not** use ``random``.
Each observation gets a priority from an integer hash of (value bits,
local sequence number) and the reservoir keeps the ``capacity`` smallest
priorities.  "Keep the K smallest of a multiset" is associative under
union, which is what makes three workers' histograms merge to the same
reservoir regardless of merge order.

This module deliberately imports nothing from the rest of the engine so
every layer (tracer included) can depend on it.
"""

from __future__ import annotations

from bisect import bisect_right, insort

#: Default latency buckets, in seconds — spans from sub-millisecond pass
#: timings up to multi-minute sweep totals.  Upper bound is +inf
#: implicitly (the overflow bucket).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: Reservoir capacity per histogram: enough for stable p95/p99 estimates,
#: small enough to ship across process boundaries per job.
RESERVOIR_SIZE = 512

_M64 = (1 << 64) - 1


def _priority(value: float, seq: int) -> int:
    """A deterministic 64-bit pseudo-random priority for one observation.

    splitmix64-style integer mixing over (value bits, sequence number):
    reproducible across processes and Python versions, no ``random``
    involved — identical runs produce identical reservoirs.
    """
    bits = hash(value) & _M64
    x = (bits * 0x9E3779B97F4A7C15 ^ (seq + 1) * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 29
    return x


def percentile(sorted_values, q: float):
    """The q-th percentile (0..100) of an ascending sequence, by linear
    interpolation; ``None`` on an empty sequence."""
    if not sorted_values:
        return None
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (len(sorted_values) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


class Histogram:
    """Fixed-bucket counts plus a deterministic percentile reservoir.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]`` boundary-
    exclusive style (``bisect_right``), with one extra overflow slot.
    The reservoir keeps the ``capacity`` observations with the
    smallest deterministic priorities — an unbiased-enough hash sample
    whose *selection is a pure function of the observed multiset*, which
    makes :meth:`merge_wire` associative.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "total",
                 "min", "max", "capacity", "_samples", "_seq")

    def __init__(self, name: str,
                 buckets: "tuple[float, ...] | None" = None,
                 capacity: int = RESERVOIR_SIZE) -> None:
        self.name = name
        self.buckets: tuple[float, ...] = tuple(buckets or DEFAULT_BUCKETS)
        self.bucket_counts: list[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: "float | None" = None
        self.max: "float | None" = None
        self.capacity = capacity
        #: ascending list of (priority, value); trimmed to ``capacity``
        self._samples: list[tuple[int, float]] = []
        self._seq = 0

    # -- recording -----------------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.bucket_counts[bisect_right(self.buckets, value)] += 1
        self._seq += 1
        pri = _priority(value, self._seq)
        samples = self._samples
        if len(samples) < self.capacity:
            insort(samples, (pri, value))
        elif pri < samples[-1][0]:
            samples.pop()
            insort(samples, (pri, value))

    # -- reading -------------------------------------------------------------

    @property
    def mean(self) -> "float | None":
        return self.total / self.count if self.count else None

    def sample_values(self) -> list[float]:
        """The reservoir's values, ascending."""
        return sorted(v for _, v in self._samples)

    def percentile(self, q: float) -> "float | None":
        return percentile(self.sample_values(), q)

    def summary(self) -> dict:
        """JSON-ready digest: count, mean, min/max, p50/p90/p95/p99."""
        out: dict = {"count": self.count}
        if self.count:
            values = self.sample_values()
            out.update({
                "mean": self.total / self.count,
                "min": self.min, "max": self.max,
                "p50": percentile(values, 50),
                "p90": percentile(values, 90),
                "p95": percentile(values, 95),
                "p99": percentile(values, 99),
            })
        return out

    # -- merge protocol ------------------------------------------------------

    def to_wire(self) -> dict:
        """The mergeable serialised form shipped across process
        boundaries (JSON-safe; see :meth:`merge_wire`)."""
        return {
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "samples": [[p, v] for p, v in self._samples],
        }

    def merge_wire(self, wire: dict) -> None:
        """Fold another histogram's wire form into this one.

        Associative and commutative: bucket counts and totals add, min/max
        combine, and the merged reservoir is the ``capacity`` smallest
        priorities of the union — the same selection any merge order
        produces.
        """
        if tuple(wire["buckets"]) != self.buckets:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge across differing "
                f"bucket boundaries")
        for i, c in enumerate(wire["bucket_counts"]):
            self.bucket_counts[i] += c
        self.count += wire["count"]
        self.total += wire["total"]
        if wire["min"] is not None:
            self.min = (wire["min"] if self.min is None
                        else min(self.min, wire["min"]))
        if wire["max"] is not None:
            self.max = (wire["max"] if self.max is None
                        else max(self.max, wire["max"]))
        union = self._samples + [(int(p), float(v))
                                 for p, v in wire["samples"]]
        union.sort()
        self._samples = union[:self.capacity]

    @classmethod
    def from_wire(cls, name: str, wire: dict) -> "Histogram":
        hist = cls(name, buckets=tuple(wire["buckets"]))
        hist.merge_wire(wire)
        return hist

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count})"
