"""The unified metrics registry: counters, gauges, latency histograms.

This subsumes the ad-hoc aggregation scattered across the seed repo
(``workloads.stats`` kept raw sample lists, ``core.trace`` kept
Counters): every layer now records into one
:class:`MetricsRegistry`, and the ``python -m repro metrics`` command
and ``report.py`` read the same registry.

The histogram is HDR-style: log-bucketed with 16 linear sub-buckets per
power of two, so any recorded value lands in a bucket whose width is at
most 1/16 (6.25%) of its magnitude.  Buckets are indexed by a pure
function of the value, which makes histograms mergeable by adding
bucket counts -- the property needed to combine per-client or per-run
histograms without keeping raw samples.
"""

import json

from repro.atomic import write_atomic

_SUB_BITS = 4
_SUB = 1 << _SUB_BITS  # 16 linear sub-buckets per power of two


def bucket_index(value):
    """Histogram bucket index for a non-negative value."""
    value = int(value)
    if value < 0:
        value = 0
    if value < _SUB:
        return value
    shift = value.bit_length() - (_SUB_BITS + 1)
    return ((shift + 1) << _SUB_BITS) + ((value >> shift) - _SUB)


def bucket_bounds(index):
    """Half-open value range ``[lo, hi)`` covered by a bucket index."""
    if index < _SUB:
        return (index, index + 1)
    shift = (index >> _SUB_BITS) - 1
    mantissa = (index & (_SUB - 1)) + _SUB
    return (mantissa << shift, (mantissa + 1) << shift)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        """Add ``n`` (default 1)."""
        self.value += n

    def merge(self, other):
        """Fold another counter's value in."""
        self.value += other.value

    def __repr__(self):
        return "Counter(name=%r, value=%d)" % (self.name, self.value)


class Gauge:
    """A point-in-time value, with the max it ever reached."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name):
        self.name = name
        self.value = 0
        self.max_value = 0

    def set(self, value):
        """Set the current value."""
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def add(self, delta):
        """Adjust the current value by ``delta``."""
        self.set(self.value + delta)

    def merge(self, other):
        """Fold another gauge in (sums values, maxes the maxima)."""
        self.value += other.value
        self.max_value = max(self.max_value, other.max_value)

    def __repr__(self):
        return "Gauge(name=%r, value=%s, max=%s)" % (
            self.name, self.value, self.max_value
        )


class Histogram:
    """Mergeable log-bucketed histogram of non-negative values.

    Bucket boundaries are fixed (a pure function of the value), so two
    histograms -- from different clients, runs, or shards -- merge by
    adding bucket counts.  Exact count/sum/min/max are kept alongside
    the buckets.
    """

    __slots__ = ("name", "buckets", "count", "total", "min_value",
                 "max_value")

    def __init__(self, name):
        self.name = name
        self.buckets = {}
        self.count = 0
        self.total = 0
        self.min_value = None
        self.max_value = None

    def record(self, value):
        """Record one value."""
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

    def record_many(self, values):
        """Record an iterable of values."""
        for value in values:
            self.record(value)

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

    def mean(self):
        """Exact mean of recorded values."""
        if self.count == 0:
            raise ValueError("histogram %r is empty" % self.name)
        return self.total / self.count

    def percentile_bounds(self, p):
        """Bucket ``[lo, hi)`` containing the ``p``-th percentile.

        Uses the same nearest-rank convention as
        :func:`repro.workloads.stats.percentile`, so the exact
        percentile of the recorded multiset always falls inside the
        returned bounds.
        """
        if self.count == 0:
            raise ValueError("histogram %r is empty" % self.name)
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        rank = min(int(self.count * p / 100.0), self.count - 1)
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative > rank:
                return bucket_bounds(index)
        raise AssertionError("unreachable: rank below total count")

    def percentile(self, p):
        """The ``p``-th percentile, reported as its bucket upper bound.

        The true value is below this by at most one bucket width
        (<= 6.25% relative), a conservative convention for latency.
        """
        return self.percentile_bounds(p)[1]

    def __repr__(self):
        return "%s(name=%r, count=%d)" % (type(self).__name__, self.name,
                                          self.count)


class MetricsRegistry:
    """Named counters, gauges and histograms for one run.

    Accessors are get-or-create, so producers never need to declare
    metrics up front, and consumers can iterate everything that was
    actually recorded.
    """

    def __init__(self):
        self.counters = {}
        self.gauges = {}
        self.histograms = {}

    def counter(self, name):
        """Get or create the counter called ``name``."""
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def inc(self, name, n=1):
        """Shorthand: increment a counter."""
        self.counter(name).inc(n)

    def gauge(self, name):
        """Get or create the gauge called ``name``."""
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name):
        """Get or create the histogram called ``name``."""
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name)
        return metric

    def merge(self, other):
        """Fold another registry in (shared names merge pairwise)."""
        for name, counter in other.counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other.gauges.items():
            self.gauge(name).merge(gauge)
        for name, histogram in other.histograms.items():
            self.histogram(name).merge(histogram)

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        """JSON-serializable snapshot of every metric."""
        return {
            "counters": {n: c.value for n, c in self.counters.items()},
            "gauges": {n: [g.value, g.max_value]
                       for n, g in self.gauges.items()},
            "histograms": {
                n: {
                    "buckets": {str(i): c for i, c in h.buckets.items()},
                    "count": h.count,
                    "total": h.total,
                    "min": h.min_value,
                    "max": h.max_value,
                }
                for n, h in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        for name, value in data.get("counters", {}).items():
            registry.counter(name).value = value
        for name, (value, max_value) in data.get("gauges", {}).items():
            gauge = registry.gauge(name)
            gauge.value = value
            gauge.max_value = max_value
        for name, spec in data.get("histograms", {}).items():
            histogram = registry.histogram(name)
            histogram.buckets = {int(i): c
                                 for i, c in spec["buckets"].items()}
            histogram.count = spec["count"]
            histogram.total = spec["total"]
            histogram.min_value = spec["min"]
            histogram.max_value = spec["max"]
        return registry

    def save_json(self, path):
        """Atomically write the snapshot as JSON; returns ``path``."""
        return write_atomic(path, json.dumps(self.to_dict(), indent=1,
                                             sort_keys=True) + "\n")

    @classmethod
    def load_json(cls, path):
        """Read a snapshot previously written by :meth:`save_json`."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    # -- rendering -------------------------------------------------------

    def format_table(self):
        """Tab-separated rows (``report.py`` renders these as markdown)."""
        lines = ["metric\tkind\tcount\tvalue/p50\tp95\tp99\tmax"]
        for name in sorted(self.counters):
            lines.append("%s\tcounter\t\t%d\t\t\t"
                         % (name, self.counters[name].value))
        for name in sorted(self.gauges):
            gauge = self.gauges[name]
            lines.append("%s\tgauge\t\t%s\t\t\t%s"
                         % (name, gauge.value, gauge.max_value))
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            if histogram.count == 0:
                lines.append("%s\thistogram\t0\t\t\t\t" % name)
                continue
            lines.append("%s\thistogram\t%d\t%d\t%d\t%d\t%d" % (
                name, histogram.count, histogram.percentile(50),
                histogram.percentile(95), histogram.percentile(99),
                histogram.max_value,
            ))
        return lines

    def format_report(self):
        """Human-readable summary for the CLI."""
        lines = ["metrics registry", "================"]
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append("  %-36s %d" % (name,
                                             self.counters[name].value))
        if self.gauges:
            lines.append("gauges:")
            for name in sorted(self.gauges):
                gauge = self.gauges[name]
                lines.append("  %-36s %s (max %s)"
                             % (name, gauge.value, gauge.max_value))
        if self.histograms:
            lines.append("latency histograms (us):")
            lines.append("  %-30s %8s %8s %8s %8s %8s"
                         % ("name", "count", "p50", "p95", "p99", "max"))
            for name in sorted(self.histograms):
                histogram = self.histograms[name]
                if histogram.count == 0:
                    continue
                lines.append("  %-30s %8d %8d %8d %8d %8d" % (
                    name, histogram.count, histogram.percentile(50),
                    histogram.percentile(95), histogram.percentile(99),
                    histogram.max_value,
                ))
        if len(lines) == 2:
            lines.append("(empty)")
        return "\n".join(lines)


class MetricsCollector:
    """Bus subscriber that populates standard metrics from tracepoints.

    One collector drives one registry; attach it to a kernel's bus and
    every layer's activity lands in named metrics:

    - counters: context switches, futex waits/wakes, throttles, pBox
      state events by kind, detections, actions, penalties, app notes;
    - gauges: live pBoxes (with high-water mark);
    - histograms: futex/sleep/throttle wait times, penalty delays,
      per-activity defer and exec times, pool queueing delay.
    """

    def __init__(self, registry=None):
        self.registry = registry or MetricsRegistry()
        self._bus = None
        self._wait_since = {}   # tid -> (kind, start_us)

    def attach(self, bus):
        """Subscribe to every relevant tracepoint; returns ``self``."""
        handlers = self._make_handlers()
        self._handlers = handlers
        for name, handler in handlers.items():
            bus.subscribe(name, handler)
        self._bus = bus
        return self

    def detach(self):
        """Unsubscribe from the bus."""
        if self._bus is None:
            return
        for name, handler in self._handlers.items():
            self._bus.unsubscribe(name, handler)
        self._bus = None

    # -- handlers --------------------------------------------------------

    def _make_handlers(self):
        """Build one handler per tracepoint.

        A handler looks each metric it records up in the registry on its
        first event and keeps the object: the registry ends up holding
        exactly the metrics that were recorded, created in the order
        they first were, and later events update them in place.  Metrics
        named per event (state-event kinds, app notes, wait kinds) are
        cached by their name's string part.
        """
        registry = self.registry
        wait_since = self._wait_since
        wait_histograms = {}    # wait kind -> Histogram "<kind>_us"

        def counting(name):
            counter = None

            def handler(_name, _t, _f):
                nonlocal counter
                if counter is None:
                    counter = registry.counter(name)
                counter.value += 1
            return handler

        def counting_recording(counter_name, histogram_name, field):
            counter = histogram = None

            def handler(_name, _t, fields):
                nonlocal counter, histogram
                if counter is None:
                    counter = registry.counter(counter_name)
                    histogram = registry.histogram(histogram_name)
                counter.value += 1
                histogram.record(fields[field])
            return handler

        def counted_by(template, field):
            counters = {}   # field value -> Counter ``template % value``

            def handler(_name, _t, fields):
                value = fields[field]
                counter = counters.get(value)
                if counter is None:
                    counter = counters[value] = registry.counter(
                        template % value)
                counter.value += 1
            return handler

        def counted_wait(counter_name, kind):
            counter = None

            def handler(_name, now, fields):
                nonlocal counter
                if counter is None:
                    counter = registry.counter(counter_name)
                counter.value += 1
                wait_since[fields["tid"]] = (kind, now)
            return handler

        def on_sleep(_name, now, fields):
            wait_since[fields["tid"]] = ("sched.sleep", now)

        def on_enqueue(_name, now, fields):
            waited = wait_since.pop(fields["tid"], None)
            if waited is not None:
                kind, start = waited
                histogram = wait_histograms.get(kind)
                if histogram is None:
                    histogram = wait_histograms[kind] = registry.histogram(
                        "%s_us" % kind)
                histogram.record(now - start)

        wakes = woken = None

        def on_futex_wake(_name, _t, fields):
            nonlocal wakes, woken
            if wakes is None:
                wakes = registry.counter("futex.wakes")
                woken = registry.counter("futex.woken")
            wakes.value += 1
            woken.value += len(fields["woken"])

        throttled = None

        def on_unthrottle(_name, now, fields):
            nonlocal throttled
            for tid in fields["tids"]:
                waited = wait_since.pop(tid, None)
                if waited is not None:
                    if throttled is None:
                        throttled = registry.histogram("cgroup.throttled_us")
                    throttled.record(now - waited[1])

        created = live = None

        def on_pbox_create(_name, _t, _f):
            nonlocal created, live
            if created is None:
                created = registry.counter("pbox.created")
            created.value += 1
            if live is None:
                live = registry.gauge("pbox.live")
            live.add(1)

        def on_pbox_release(_name, _t, _f):
            nonlocal live
            if live is None:
                live = registry.gauge("pbox.live")
            live.add(-1)

        event_counters = {}   # state event value -> Counter

        def on_pbox_event(_name, _t, fields):
            value = fields["event"]._value_
            counter = event_counters.get(value)
            if counter is None:
                counter = event_counters[value] = registry.counter(
                    "pbox.events.%s" % value)
            counter.value += 1

        defer = run = None

        def on_freeze(_name, _t, fields):
            nonlocal defer, run
            if "defer_us" in fields:
                if defer is None:
                    defer = registry.histogram("pbox.activity_defer_us")
                    run = registry.histogram("pbox.activity_exec_us")
                defer.record(fields["defer_us"])
                run.record(fields["exec_us"])

        enqueued = queue_depth = None

        def on_pool_enqueue(_name, _t, fields):
            nonlocal enqueued, queue_depth
            if enqueued is None:
                enqueued = registry.counter("pool.enqueued")
            enqueued.value += 1
            depth = fields.get("depth")
            if depth is not None:
                if queue_depth is None:
                    queue_depth = registry.gauge("pool.queue_depth")
                queue_depth.set(depth)

        return {
            "sched.switch": counting("sched.context_switches"),
            "sched.enqueue": on_enqueue,
            "sched.sleep": on_sleep,
            "futex.wait": counted_wait("futex.waits", "futex.wait"),
            "futex.wake": on_futex_wake,
            "cgroup.throttle": counted_wait("cgroup.throttles",
                                            "cgroup.throttled"),
            "cgroup.unthrottle": on_unthrottle,
            "penalty.inject": counting_recording(
                "penalty.injections", "penalty.injected_us", "delay_us"),
            "pbox.create": on_pbox_create,
            "pbox.release": on_pbox_release,
            "pbox.event": on_pbox_event,
            "pbox.detect": counting("pbox.detections"),
            "pbox.action": counting_recording(
                "pbox.actions", "pbox.penalty_length_us", "length_us"),
            "pbox.penalty": counting_recording(
                "pbox.penalties_served", "pbox.penalty_served_us",
                "delay_us"),
            "pbox.freeze": on_freeze,
            "pool.enqueue": on_pool_enqueue,
            "pool.dispatch": counting_recording(
                "pool.dispatched", "pool.queue_delay_us", "queued_us"),
            "app.note": counted_by("app.%s", "what"),
        }
