"""Mergeable quantile sketches with order-independent serialization.

The telemetry pipeline needs per-tenant latency distributions that can
be (a) kept always-on at O(1) memory, (b) merged across windows,
tenants, and -- were the kernel split into per-process shards --
across shard streams, and (c) compared byte-for-byte so a merged
document is reproducible regardless of which shard finished first.

:class:`QuantileSketch` is the metrics
:class:`~repro.obs.metrics.Histogram`, DDSketch-style: values land in
log-spaced buckets indexed by a pure function of the value
(:func:`repro.obs.metrics.bucket_index`, 16 sub-buckets per octave,
<= 6.25% relative bucket width).  Because the bucket index depends only
on the value, merging is
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

from repro.obs.metrics import Histogram


class QuantileSketch(Histogram):
    """Log-bucketed mergeable quantile sketch over non-negative ints.

    A :class:`~repro.obs.metrics.Histogram` (same slots, ``record`` and
    ``merge``) that reads 0 when empty, because telemetry windows are
    often empty, and serializes canonically.
    """

    __slots__ = ()

    def __init__(self, name="sketch"):
        super().__init__(name)

    def copy(self, name=None):
        """Independent copy (used to snapshot an open window)."""
        return type(self)(name or self.name).merge(self)

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
        return super().percentile(p) if self.count else 0

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
    def from_compact(cls, data):
        """Rebuild a sketch from :meth:`to_compact` output."""
        sketch = cls()
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


def merge_all(sketches):
    """Merge an iterable of sketches into a fresh one."""
    merged = QuantileSketch("merged")
    for sketch in sketches:
        merged.merge(sketch)
    return merged
