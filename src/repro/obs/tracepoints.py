"""The tracepoint bus: named, near-free-when-disabled event hooks.

Modeled on kernel tracepoints (``trace_sched_switch`` and friends): a
firing site looks like ::

    tp = kernel.trace.point("sched.switch")   # once, at construction
    ...
    if tp.active:                             # hot path: one attr check
        tp.fire(now_us, tid=thread.tid, core=core.index)

``active`` is a plain boolean attribute maintained by subscribe and
unsubscribe, so a disabled tracepoint costs a single attribute load and
truth test -- the property Figure 16's "overhead when idle" story
depends on.  Keyword fields are only materialized into a dict when at
least one subscriber exists.

Subscribers are callables ``fn(name, time_us, fields)`` where ``fields``
is a dict.  They run synchronously, in firing order, in zero virtual
time; a subscriber must not mutate simulation state.
"""

#: The standard tracepoint catalog: every point the stack fires, with
#: the fields each carries.  ``TracepointBus`` pre-registers these so
#: ``subscribe_all`` and the docs always see the full set.
CATALOG = [
    ("sched.enqueue", "thread becomes runnable (tid, name)"),
    ("sched.switch", "thread begins a CPU slice (tid, name, core, slice_us)"),
    ("sched.switchout", "thread ends a CPU slice (tid, core, ran_us, done)"),
    ("sched.sleep", "timed sleep begins (tid, us)"),
    ("futex.wait", "thread blocks on a futex key (tid, key, waiters, "
                   "holders, holder_psids)"),
    ("futex.wake", "wake-up pops waiters (key, requested, woken, waker)"),
    ("futex.owner_exit", "a thread exited while registered as a key's "
                         "holder; ownership purged (tid, key, holds)"),
    ("fault.inject", "fault injector fires a planned fault (kind, at_us, "
                     "target, param_us)"),
    ("fault.recover", "idle-watchdog repair or deadlock verdict (kind, "
                      "woken)"),
    ("pbox.heal", "manager self-healing event (psid, action, detail)"),
    ("cgroup.throttle", "thread hits its group's CPU quota (group, tid)"),
    ("cgroup.unthrottle", "period refresh releases threads (group, tids)"),
    ("penalty.inject", "resume hook injects a delay (tid, psid, delay_us)"),
    ("pbox.create", "a pBox is created (psid, tid, name)"),
    ("pbox.release", "a pBox is destroyed (psid)"),
    ("pbox.activate", "an activity starts tracing (psid)"),
    ("pbox.freeze", "an activity ends (psid, defer_us, exec_us)"),
    ("pbox.event", "state event reaches the manager (pbox, key, event)"),
    ("pbox.detect", "Algorithm 1 detection (noisy, victim, key, flow)"),
    ("pbox.action", "penalty scheduled (noisy, victim, key, length_us, "
                    "victim_defer_us, flow)"),
    ("pbox.penalty", "penalty delivered (pbox, delay_us, mode, flow)"),
    ("vres.acquire", "app starts acquiring a virtual resource (tid, key)"),
    ("vres.hold", "app holds a virtual resource (tid, key)"),
    ("vres.release", "app releases a virtual resource (tid, key)"),
    ("pool.enqueue", "task enqueued on an event-driven pool (pool, psid)"),
    ("pool.dispatch", "worker picks a task (pool, psid, queued_us)"),
    ("pool.complete", "task finished (pool, psid, service_us)"),
    ("app.note", "application state note (what, plus point-specific fields)"),
    ("req.begin", "client request issued (rid, tid, tenant)"),
    ("req.end", "client request completed (rid, tid, latency_us)"),
    ("req.serve", "pool worker starts serving a request (rid, tid, pool, "
                  "queued_us)"),
    ("req.done", "pool worker finished serving a request (rid, tid, pool, "
                 "service_us)"),
    ("slo.breach", "tenant SLO burn-rate breach -- derived (tenant, "
                   "burn_short, burn_long)"),
    ("slo.recover", "tenant SLO recovered -- derived (tenant, "
                    "burn_short, breach_us)"),
    ("why.explain", "critical-path explanation of an SLO breach -- "
                    "derived (tenant, at_us, top)"),
]

#: Namespaces of *derived* tracepoints: points fired by observability
#: subscribers (the SLO evaluator, the breach explainer) rather than by
#: the simulation itself.  The golden digest excludes them from the
#: canonical stream, so attaching telemetry can never flip a golden
#: trace -- and derived emissions stay consumable by everything else on
#: the bus (chaos invariants, the attribution profiler, ``repro
#: watch``).
DERIVED_PREFIXES = ("slo.", "why.")


def is_derived(name):
    """True when ``name`` is in a derived (non-canonical) namespace."""
    return name.startswith(DERIVED_PREFIXES)


def key_label(key):
    """Human-readable label for a virtual-resource key.

    Resource keys are arbitrary objects: strings, primitives with a
    ``name`` attribute, tuples, or ``None``.  This renders all of them
    without repr noise and is shared by the tracer, the span recorder
    and the exporter.
    """
    if key is None:
        return "<none>"
    if isinstance(key, str):
        return key
    name = getattr(key, "name", None)
    if isinstance(name, str) and name:
        return name
    if isinstance(key, tuple):
        return "(" + ", ".join(key_label(part) for part in key) + ")"
    cls = type(key)
    if cls.__str__ is object.__str__ and cls.__repr__ is object.__repr__:
        # Default repr embeds the memory address, which varies between
        # processes -- labels must be stable for replayed runs to match.
        return "<%s>" % cls.__name__
    return str(key)


class Tracepoint:
    """One named tracepoint.

    ``active`` is public and read by firing sites; it is True exactly
    while at least one subscriber is attached.
    """

    __slots__ = ("name", "active", "_subs")

    def __init__(self, name):
        self.name = name
        self.active = False
        self._subs = []

    def subscribe(self, fn):
        """Attach ``fn(name, time_us, fields)``; enables the point."""
        self._subs.append(fn)
        self.active = True
        return fn

    def unsubscribe(self, fn):
        """Detach ``fn``; disables the point when no subscriber remains."""
        try:
            self._subs.remove(fn)
        except ValueError:
            pass
        self.active = bool(self._subs)

    @property
    def subscriber_count(self):
        """Number of attached subscribers."""
        return len(self._subs)

    def fire(self, time_us, **fields):
        """Dispatch one occurrence to every subscriber."""
        for fn in self._subs:
            fn(self.name, time_us, fields)

    def __bool__(self):
        return self.active

    def __repr__(self):
        return "Tracepoint(name=%r, active=%s, subscribers=%d)" % (
            self.name, self.active, len(self._subs)
        )


class TracepointBus:
    """Registry of tracepoints for one kernel instance.

    The standard catalog is pre-registered at construction; additional
    points may be created lazily with :meth:`point` (application models
    are free to define their own).
    """

    def __init__(self):
        self._points = {}
        for name, _desc in CATALOG:
            self._points[name] = Tracepoint(name)

    def point(self, name):
        """Get (or lazily create) the tracepoint called ``name``."""
        tp = self._points.get(name)
        if tp is None:
            tp = Tracepoint(name)
            self._points[name] = tp
        return tp

    def names(self):
        """Sorted names of every registered tracepoint."""
        return sorted(self._points)

    def enabled(self, name):
        """True while ``name`` has at least one subscriber."""
        tp = self._points.get(name)
        return tp is not None and tp.active

    def subscribe(self, name, fn):
        """Subscribe ``fn`` to one tracepoint by name."""
        self.point(name).subscribe(fn)
        return fn

    def unsubscribe(self, name, fn):
        """Remove ``fn`` from one tracepoint by name."""
        tp = self._points.get(name)
        if tp is not None:
            tp.unsubscribe(fn)

    def subscribe_all(self, fn, names=None):
        """Subscribe ``fn`` to every (or the given) registered points."""
        for name in (names if names is not None else list(self._points)):
            self.point(name).subscribe(fn)
        return fn

    def unsubscribe_all(self, fn):
        """Remove ``fn`` wherever it is subscribed."""
        for name in list(self._points):
            self.unsubscribe(name, fn)

    def __repr__(self):
        active = sum(1 for tp in self._points.values() if tp.active)
        return "TracepointBus(points=%d, active=%d)" % (
            len(self._points), active
        )
