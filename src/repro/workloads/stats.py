"""Latency statistics and the paper's interference metrics.

Section 6.2 defines the quantities every experiment reports:

- interference level      ``p = Ti/To - 1``
- level under a solution  ``q = Ts/To - 1``
- reduction ratio         ``r = (p - q)/p = (Ti - Ts)/(Ti - To)``

where ``Ti`` is victim latency with interference, ``To`` without, and
``Ts`` under the evaluated solution.  A ratio above 1 (the paper reports
up to 113.6%) means the solution made the victim *faster than* its
original interference-free run.
"""


def percentile(values, p):
    """The ``p``-th percentile (0-100) of ``values`` (nearest-rank)."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError("percentile must be within [0, 100]")
    ordered = sorted(values)
    if p == 100:
        return ordered[-1]
    index = int(len(ordered) * p / 100.0)
    return ordered[min(index, len(ordered) - 1)]


def interference_level(t_interference, t_baseline):
    """``p = Ti/To - 1`` (Section 6.2)."""
    if t_baseline <= 0:
        raise ValueError("baseline latency must be positive")
    return t_interference / t_baseline - 1.0


def reduction_ratio(t_interference, t_solution, t_baseline):
    """``r = (Ti - Ts)/(Ti - To)``: fraction of interference removed."""
    denominator = t_interference - t_baseline
    if denominator == 0:
        return 0.0
    return (t_interference - t_solution) / denominator


class LatencyRecorder:
    """Collects per-request latencies with optional warmup exclusion.

    ``record_from_us`` discards samples completed before that virtual
    time, so measurements skip cache warmup / ramp-up phases the same
    way the paper's 90-second runs do.
    """

    def __init__(self, name="client", record_from_us=0, histogram=None,
                 sink=None):
        self.name = name
        self.record_from_us = record_from_us
        self.samples_us = []
        self.completion_times_us = []
        # Optional obs.metrics.Histogram mirror: every accepted sample
        # also lands in the shared metrics registry.
        self.histogram = histogram
        # Optional ``sink(latency_us, completed_at_us)`` mirror: the
        # telemetry pipeline hooks request latencies here, off the
        # tracepoint bus, so the canonical trace stream never carries
        # telemetry traffic.
        self.sink = sink

    def record(self, latency_us, completed_at_us):
        """Record one request's latency, honoring the warmup cutoff."""
        if completed_at_us < self.record_from_us:
            return
        self.samples_us.append(latency_us)
        self.completion_times_us.append(completed_at_us)
        if self.histogram is not None:
            self.histogram.record(latency_us)
        if self.sink is not None:
            self.sink(latency_us, completed_at_us)

    @property
    def count(self):
        """Number of recorded samples."""
        return len(self.samples_us)

    def mean_us(self):
        """Average latency in microseconds."""
        if not self.samples_us:
            raise ValueError("recorder %r has no samples" % self.name)
        return sum(self.samples_us) / len(self.samples_us)

    def throughput_per_sec(self, window_us):
        """Completed requests per second over the recording window."""
        if window_us <= 0:
            raise ValueError("window must be positive")
        return self.count / (window_us / 1_000_000.0)

    def timeline(self, bucket_us=1_000_000):
        """Bucketed (time_sec, mean latency, count) series for figures."""
        series = TimelineSeries(bucket_us)
        for latency, at in zip(self.samples_us, self.completion_times_us):
            series.add(at, latency)
        return series


class TimelineSeries:
    """Time-bucketed aggregation used by the motivation figures (1-3)."""

    def __init__(self, bucket_us=1_000_000):
        if bucket_us <= 0:
            raise ValueError("bucket must be positive")
        self.bucket_us = bucket_us
        self._sums = {}
        self._counts = {}

    def add(self, at_us, value):
        """Add a sample at virtual time ``at_us``."""
        bucket = at_us // self.bucket_us
        self._sums[bucket] = self._sums.get(bucket, 0) + value
        self._counts[bucket] = self._counts.get(bucket, 0) + 1

    def buckets(self):
        """Sorted bucket indices that have samples."""
        return sorted(self._counts)

    def mean_series(self):
        """List of (bucket_start_sec, mean value) points."""
        points = []
        for bucket in self.buckets():
            seconds = bucket * self.bucket_us / 1_000_000.0
            points.append((seconds, self._sums[bucket] / self._counts[bucket]))
        return points

    def count_series(self):
        """List of (bucket_start_sec, sample count) points (throughput)."""
        points = []
        for bucket in self.buckets():
            seconds = bucket * self.bucket_us / 1_000_000.0
            points.append((seconds, self._counts[bucket]))
        return points
