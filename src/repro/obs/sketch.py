"""Mergeable quantile sketches with order-independent serialization.

The telemetry pipeline needs per-tenant latency distributions that can
be (a) kept always-on at O(1) memory, (b) merged across windows,
tenants, and -- were the kernel split into per-process shards --
across shard streams, and (c) compared byte-for-byte so a merged
document is reproducible regardless of which shard finished first.

:class:`QuantileSketch` is DDSketch-style: values land in log-spaced
buckets indexed by a pure function of the value (the same
16-sub-buckets-per-octave layout as
:func:`repro.obs.metrics.bucket_index`, <= 6.25% relative bucket
width).  Because the bucket index depends only on the value, merging is
plain bucket-count addition: an associative, commutative fold.  The
canonical serialization (:meth:`to_bytes`) sorts bucket indices and
delta-encodes them, so *any* merge order -- pairwise, tree-shaped,
left-to-right -- yields identical bytes for identical multisets.  The
property test in ``tests/test_obs_sketch.py`` pins exactly that.

Values are non-negative integers (microseconds, or milli-units for
dimensionless ratios); negative inputs clamp to zero like the metrics
histograms.
"""

import json

from repro.obs.metrics import bucket_bounds, bucket_index


class QuantileSketch:
    """Log-bucketed mergeable quantile sketch over non-negative ints."""

    __slots__ = ("name", "buckets", "count", "total", "min_value",
                 "max_value")

    def __init__(self, name="sketch"):
        self.name = name
        self.buckets = {}
        self.count = 0
        self.total = 0
        self.min_value = None
        self.max_value = None

    def record(self, value):
        """Record one value (negative values clamp to zero)."""
        value = int(value)
        if value < 0:
            value = 0
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def merge(self, other):
        """Fold ``other`` in; exact (adds bucket counts).  Returns self."""
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        if other.min_value is not None and (
                self.min_value is None or other.min_value < self.min_value):
            self.min_value = other.min_value
        if other.max_value is not None and (
                self.max_value is None or other.max_value > self.max_value):
            self.max_value = other.max_value
        return self

    def copy(self, name=None):
        """Independent copy (used to snapshot an open window)."""
        duplicate = QuantileSketch(name or self.name)
        duplicate.buckets = dict(self.buckets)
        duplicate.count = self.count
        duplicate.total = self.total
        duplicate.min_value = self.min_value
        duplicate.max_value = self.max_value
        return duplicate

    # -- queries ---------------------------------------------------------

    def mean(self):
        """Exact mean, or 0.0 when empty."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p):
        """Nearest-rank percentile reported as its bucket upper bound.

        Same convention as :meth:`repro.obs.metrics.Histogram.percentile`
        (conservative for latency: true value is at most one bucket
        width -- <= 6.25% -- below).  Empty sketches report 0.
        """
        if self.count == 0:
            return 0
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        rank = min(int(self.count * p / 100.0), self.count - 1)
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative > rank:
                return bucket_bounds(index)[1]
        raise AssertionError("unreachable: rank below total count")

    # -- canonical serialization ----------------------------------------

    def to_compact(self):
        """Delta-encoded JSON-safe form.

        ``b`` holds the first bucket index followed by the gaps between
        consecutive occupied indices (always positive, usually small --
        cheaper in JSON than absolute indices); ``c`` the matching
        counts.  Sorting makes the encoding a pure function of the
        multiset, which is what makes merged documents byte-comparable.
        """
        indices = sorted(self.buckets)
        deltas = []
        previous = 0
        for position, index in enumerate(indices):
            deltas.append(index if position == 0 else index - previous)
            previous = index
        return {
            "b": deltas,
            "c": [self.buckets[index] for index in indices],
            "n": self.count,
            "s": self.total,
            "lo": self.min_value,
            "hi": self.max_value,
        }

    @classmethod
    def from_compact(cls, data, name="sketch"):
        """Rebuild a sketch from :meth:`to_compact` output."""
        sketch = cls(name)
        index = 0
        for position, delta in enumerate(data["b"]):
            index = delta if position == 0 else index + delta
            sketch.buckets[index] = data["c"][position]
        sketch.count = data["n"]
        sketch.total = data["s"]
        sketch.min_value = data["lo"]
        sketch.max_value = data["hi"]
        return sketch

    def to_bytes(self):
        """Canonical bytes: identical multiset => identical bytes."""
        return json.dumps(self.to_compact(), sort_keys=True,
                          separators=(",", ":")).encode()

    def __len__(self):
        return self.count

    def __repr__(self):
        return "QuantileSketch(name=%r, count=%d, buckets=%d)" % (
            self.name, self.count, len(self.buckets))


def merge_all(sketches, name="merged"):
    """Merge an iterable of sketches into a fresh one."""
    merged = QuantileSketch(name)
    for sketch in sketches:
        merged.merge(sketch)
    return merged
