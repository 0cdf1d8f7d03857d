"""Outside-in per-layer timing: class-level wrappers on one span stack.

A traced round calls :meth:`LayerTracer.install` before it builds its
workload, because the kernel binds the run queue's ``charge`` hook and
the managers bind their resume hooks when they are constructed.  Every
call into a wrapped entry point then opens a span on one shared stack;
a layer's self time is its spans' durations minus the time of their
child spans.  Part of a wrapper's own cost (the call into it, its
bookkeeping, the return) falls outside the span it opens, inside the
caller's.  :meth:`LayerTracer.calibrate` measures that part once per
round, every span takes it out of its caller's self time, and the
shares divide by the traced wall less all of it.  What calibration
misses stays with the caller.

Only the timed sections count: :meth:`begin` and :meth:`end` bracket
each ``kernel.run``, so case builds and golden comparisons between the
sections are left out.
"""

import time
from collections import defaultdict

from repro.core.manager import PBoxManager
from repro.core.runtime import PBoxRuntime
from repro.core.shards import ShardedPBoxManager
from repro.core.trace import PBoxTracer
from repro.obs import (
    AttributionProfiler,
    BreachExplainer,
    CritPathTracer,
    MetricsCollector,
    SpanRecorder,
    TelemetryPipeline,
)
from repro.obs.golden import TraceDigest
from repro.obs.tracepoints import Tracepoint
from repro.sim.futex import WaitQueueTable
from repro.sim.kernel import Kernel, PenaltyArmer
from repro.sim.scheduler import EevdfRunQueue, RunQueue
from repro.sim.timerwheel import TimerWheel

_SCHED_METHODS = ("push", "push_front", "pick_for_core", "charge")

#: Layer -> wrapped ``(class, method names)``.  A name the class does
#: not define itself is skipped (the FIFO queue has no ``charge``).
LAYERS = (
    ("sim.scheduler", ((RunQueue, _SCHED_METHODS),
                       (EevdfRunQueue, _SCHED_METHODS))),
    ("sim.kernel.dispatch", ((Kernel, ("_enqueue", "_dispatch",
                                       "_start_slice", "_slice_end")),)),
    ("sim.kernel.syscall", ((Kernel, ("_execute",)),)),
    ("sim.kernel.run", ((Kernel, ("run",)),)),
    ("sim.timerwheel", ((Kernel, ("post",)),
                        (TimerWheel, ("insert", "pop_next")))),
    ("sim.futex", ((Kernel, ("futex_wake",)),
                   (WaitQueueTable, ("add", "pop_waiters", "remove")))),
    ("apps.bodies", ((Kernel, ("_advance",)),)),
    ("core.runtime", ((PBoxRuntime, tuple(
        name for name in vars(PBoxRuntime)
        if name.endswith("_pbox") and not name.startswith("_"))),)),
    ("core.manager.detect", ((PBoxManager, ("create", "release", "activate",
                                            "freeze", "update", "scan")),)),
    ("core.manager.penalty", ((PBoxManager, ("_resume_hook", "take_action",
                                             "inject_penalty")),
                              (PenaltyArmer, ("arm", "_fire")))),
    ("core.shards", ((ShardedPBoxManager, tuple(
        name for name, value in vars(ShardedPBoxManager).items()
        if callable(value) and not name.startswith("__"))),)),
    ("obs.tracepoints", ((Tracepoint, ("fire",)),)),
)

#: Bus subscribers, each timed as ``obs.sub.<class>`` through the
#: callables its ``attach()`` adds to the bus.
SUBSCRIBERS = (TraceDigest, SpanRecorder, AttributionProfiler,
               CritPathTracer, TelemetryPipeline, BreachExplainer,
               PBoxTracer, MetricsCollector)

LAYER_NAMES = tuple(layer for layer, _targets in LAYERS) + tuple(
    "obs.sub." + cls.__name__ for cls in SUBSCRIBERS)

#: Per-layer counts: name -> (unit, better).  See :func:`derived_counts`.
COUNTS = {
    "sim.scheduler.pick_queue_len": ("threads", "lower"),
    "sim.scheduler.fast_path_frac": ("frac", "higher"),
    "sim.timerwheel.slow_pop_frac": ("frac", "lower"),
    "sim.futex.woken_per_wake": ("threads", "higher"),
    "core.manager.scanned_per_scan": ("pboxes", "lower"),
    "core.manager.detect_yield": ("frac", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
}

#: Every per-layer metric: name -> (unit, better), in report order.
PER_LAYER = {}
for _layer in LAYER_NAMES:
    PER_LAYER[_layer + ".calls"] = ("count", "lower")
    PER_LAYER[_layer + ".self_s"] = ("s", "lower")
    PER_LAYER[_layer + ".share"] = ("frac", "lower")
PER_LAYER.update(COUNTS)


def _pick_probe(totals, args, result):
    # Queue length at entry: the pick removed one thread if it found one.
    totals["pick_queue_len"] += len(args[0]._queue) + (result is not None)


def _wake_probe(totals, _args, result):
    totals["woken"] += result


_PROBES = {
    "RunQueue.pick_for_core": _pick_probe,
    "EevdfRunQueue.pick_for_core": _pick_probe,
    "Kernel.futex_wake": _wake_probe,
}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def derived_counts(calls, totals, counters):
    """The per-layer counts that are ratios of measured totals.

    ``calls`` maps ``Class.method`` to call counts, ``totals`` holds the
    probe sums, ``counters`` the workload's kernel and manager totals
    over its timed sections.  Differences are reported as measured,
    negative or not.
    """
    picks = (calls.get("RunQueue.pick_for_core", 0)
             + calls.get("EevdfRunQueue.pick_for_core", 0))
    return {
        "sim.scheduler.pick_queue_len": _ratio(
            totals.get("pick_queue_len", 0), picks),
        "sim.scheduler.fast_path_frac": 1.0 - _ratio(
            picks, counters["context_switches"]),
        "sim.timerwheel.slow_pop_frac": _ratio(
            calls.get("TimerWheel.pop_next", 0), counters["events"]),
        "sim.futex.woken_per_wake": _ratio(
            totals.get("woken", 0), calls.get("Kernel.futex_wake", 0)),
        "core.manager.scanned_per_scan": _ratio(
            counters["scanned"], counters["scans"]),
        "core.manager.detect_yield": _ratio(
            counters["detections"], counters["scanned"]),
    }


def overhead_frac(traced_wall_s, untraced_wall_s):
    """Traced wall time over the untraced median, minus one (unclamped)."""
    return traced_wall_s / untraced_wall_s - 1.0


class _Leaf:
    """The trivial method :meth:`LayerTracer.calibrate` calls."""

    def leaf(self, value):
        return value


class LayerTracer:
    """Span stack, call counts and self time for every layer."""

    def __init__(self):
        # Live counts, zeroed by begin(); end() folds them into the kept
        # totals, so only the timed sections are reported.  Each key
        # ("Class.method", or the layer of a subscriber) owns one
        # [calls, self_ns] cell its wrappers update in place.
        self._cells = {}                   # key -> (layer, cell)
        self._totals = defaultdict(int)    # probe sums
        self.calls = defaultdict(int)      # key -> calls
        self.self_ns = defaultdict(int)    # layer -> self time
        self.totals = defaultdict(int)
        self._stack = []                   # child time of each open span
        self.wrapper_ns = 0                # see calibrate()

    def install(self):
        """Calibrate, then wrap every layer's entry points; returns ``self``."""
        self.wrapper_ns = self.calibrate()
        for layer, targets in LAYERS:
            for cls, names in targets:
                for name in names:
                    if name in vars(cls):
                        self._wrap(cls, name, layer)
        for cls in SUBSCRIBERS:
            self._wrap_attach(cls)
        return self

    def begin(self):
        """Start a timed section."""
        for _layer, cell in self._cells.values():
            cell[0] = cell[1] = 0
        self._totals.clear()

    def end(self):
        """Close a timed section, keeping what it measured."""
        for key, (layer, cell) in self._cells.items():
            self.calls[key] += cell[0]
            self.self_ns[layer] += cell[1]
        for key, value in self._totals.items():
            self.totals[key] += value

    def metrics(self, wall_s, counters):
        """Per-layer metrics of the kept sections (no overhead_frac).

        A share divides by the traced wall less the wrapper cost taken
        out of the callers' self time, so the shares add up to about one.
        """
        calls = defaultdict(int)
        for key, (layer, _cell) in self._cells.items():
            calls[layer] += self.calls[key]
        spans = sum(self.calls.values())
        watched_s = wall_s - spans * self.wrapper_ns / 1e9
        out = {}
        for layer in LAYER_NAMES:
            self_s = self.self_ns[layer] / 1e9
            out[layer + ".calls"] = calls[layer]
            out[layer + ".self_s"] = self_s
            out[layer + ".share"] = _ratio(self_s, watched_s)
        out.update(derived_counts(self.calls, self.totals, counters))
        return out

    def calibrate(self, calls=20_000, repeats=7):
        """Caller-side cost of one span, in whole ns.

        A span calls a trivial method ``calls`` times, directly and
        through a span; the per-call difference of its self time, best
        of ``repeats`` alternating tries each, is the cost a wrapper
        leaves in its caller.
        """
        obj = _Leaf()

        def caller(method):
            for _ in range(calls):
                method(obj, None)

        timed = self._span(None, "calibrate", caller, 0)
        cell = self._cells.pop("calibrate")[1]
        wrapped = self._span(None, "calibrate.leaf", _Leaf.leaf, 0)
        del self._cells["calibrate.leaf"]
        best = {}
        for _ in range(repeats):
            for method in (_Leaf.leaf, wrapped):
                cell[1] = 0
                timed(method)
                best[method] = min(best.get(method, cell[1]), cell[1])
        return round((best[wrapped] - best[_Leaf.leaf]) / calls)

    def _span(self, layer, key, fn, overhead=None):
        cell = self._cells.setdefault(key, (layer, [0, 0]))[1]
        stack = self._stack
        totals = self._totals
        probe = _PROBES.get(key)
        clock = time.perf_counter_ns
        if overhead is None:
            overhead = self.wrapper_ns

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed + overhead
                cell[0] += 1
                cell[1] += elapsed - child
            if probe is not None:
                probe(totals, args, result)
            return result

        return span

    def _wrap(self, cls, name, layer):
        original = vars(cls)[name]
        span = self._span(layer, "%s.%s" % (cls.__name__, name), original)
        span.__name__ = name
        span.__doc__ = original.__doc__
        setattr(cls, name, span)

    def _wrap_attach(self, cls):
        """Time what ``cls.attach`` subscribes: diff each point's list.

        The bus then holds the span, not the callable ``attach`` gave
        it, so a traced round cannot unsubscribe it; no workload does.
        """
        original = vars(cls)["attach"]
        layer = "obs.sub." + cls.__name__
        tracer = self

        def attach(obj, bus, *args, **kwargs):
            before = {name: {id(fn) for fn in point._subs}
                      for name, point in bus._points.items()}
            result = original(obj, bus, *args, **kwargs)
            for name, point in bus._points.items():
                seen = before.get(name, ())
                subs = point._subs
                for index, fn in enumerate(subs):
                    if id(fn) not in seen:
                        subs[index] = tracer._span(layer, layer, fn)
            return result

        attach.__doc__ = original.__doc__
        setattr(cls, "attach", attach)
