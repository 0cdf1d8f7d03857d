"""Always-on per-tenant SLO telemetry over the tracepoint bus.

:class:`TelemetryPipeline` is a pure bus subscriber (it never mutates
simulation state, so an attached pipeline cannot perturb the golden
trace) that maintains three views of a running simulation:

1. **Per-tenant mergeable sketches** -- request latency, slowdown ratio
   (recorded in milli-units: 1000 == nominal speed), and wait time --
   built on :class:`~repro.obs.sketch.QuantileSketch`, so per-shard
   streams would combine byte-identically in any merge order.
2. **Fixed-width virtual-time windows** (default 100ms) producing an
   aggregate time-series: throughput, latency percentiles, bad-request
   count, penalty activity, manager event volume, and active-set size.
3. **SLO evaluation** per tenant with multi-window burn-rate alerting
   (:mod:`repro.obs.slo`); transitions fire ``slo.breach`` /
   ``slo.recover`` tracepoints back onto the bus.  Those points are in
   the *derived* namespace, which the golden digest excludes -- the
   canonical stream stays bit-identical whether or not telemetry runs.

Tenant attribution follows thread/pBox names: anything matching
``t<N>-...`` (the scale harness convention) belongs to tenant ``t<N>``;
case runs pass role names (``victim``/``noisy``/``other``) straight
through ``record_request``.

Request latency does not cross the bus at all: recorders call
:meth:`record_request` directly (see ``LatencyRecorder(sink=...)``), so
the canonical tracepoint stream carries zero telemetry traffic.
"""

import json
import re

from repro.obs.sketch import QuantileSketch
from repro.obs.slo import SLOEvaluator

#: Schema version of the telemetry document emitted by
#: :meth:`TelemetryPipeline.to_json_dict`.
TELEMETRY_SCHEMA = 1

#: Default virtual-time window width.
WINDOW_US = 100_000

#: Most series rows :meth:`TelemetryPipeline.to_json_dict` keeps before
#: coalescing adjacent windows.
MAX_ROWS = 240

#: Slowest requests per breach explanation (:class:`BreachExplainer`).
EXPLAIN_TOP = 3

#: Columns of the windowed time-series rows, in row order.
SERIES_COLUMNS = (
    "window",        # window index (start = window * window_us)
    "requests",      # requests completed in the window
    "bad",           # requests violating their tenant's objective
    "p50_us", "p95_us", "p99_us",   # aggregate latency percentiles
    "penalties",     # pbox.penalty deliveries
    "penalty_us",    # total penalty delay delivered
    "events",        # pbox.event volume (manager pipeline pressure)
    "active",        # active-set size (pBoxes touched this window)
    "breached",      # tenants latched in breach at window close
)

_TENANT_RE = re.compile(r"^(t\d+)-")
_ROLE_RE = re.compile(r"^(victim|noisy|other)")


def tenant_of(name):
    """Tenant owning a thread/pBox ``name`` (None when unattributable).

    Scale-harness names (``t3-oltp``, ``t3-cv7``) map to their tenant
    (``t3``); case-harness names (``victim``, ``noisy-purge``) map to
    their role, matching the role "tenants" the case recorders feed
    through :meth:`TelemetryPipeline.record_request`.
    """
    if not isinstance(name, str):
        return None
    match = _TENANT_RE.match(name)
    if match:
        return match.group(1)
    match = _ROLE_RE.match(name)
    if match:
        return match.group(1)
    return None


class TenantTelemetry:
    """Cumulative sketches and counters for one tenant."""

    __slots__ = ("tenant", "latency", "slowdown", "wait", "requests",
                 "bad", "win_good", "win_bad")

    def __init__(self, tenant):
        self.tenant = tenant
        self.latency = QuantileSketch("latency_us")
        self.slowdown = QuantileSketch("slowdown_milli")
        self.wait = QuantileSketch("wait_us")
        self.requests = 0
        self.bad = 0
        self.win_good = 0   # current-window good/bad, reset at each roll
        self.win_bad = 0

    def to_dict(self):
        """Compact JSON form (sketches delta-encoded)."""
        return {
            "requests": self.requests,
            "bad": self.bad,
            "latency": self.latency.to_compact(),
            "slowdown": self.slowdown.to_compact(),
            "wait": self.wait.to_compact(),
        }


class TelemetryPipeline:
    """The always-on telemetry subscriber for one kernel."""

    def __init__(self, window_us=WINDOW_US, evaluator=None):
        self.window_us = window_us
        #: SLOEvaluator or None (None: windows and sketches only).
        self.evaluator = evaluator
        self.tenants = {}            # tenant -> TenantTelemetry
        self.rows = []               # closed windows, SERIES_COLUMNS order
        self.slo_events = []         # transition dicts, in firing order
        self._bus = None
        self._manager = None
        self._handlers = {}
        self._tp_breach = None
        self._tp_recover = None
        self._tid_tenant = {}        # tid -> tenant (from sched.enqueue)
        self._wait_since = {}        # tid -> wait start (futex.wait)
        self._window_end = window_us
        self._last_now = 0
        # Current-window aggregates.
        self._win_latency = QuantileSketch("window_latency_us")
        self._win_bad = 0
        self._win_penalties = 0
        self._win_penalty_us = 0
        self._win_events = 0
        self._win_active = set()

    # -- attachment ------------------------------------------------------

    def attach(self, bus, manager=None):
        """Subscribe to the bus; optionally bind the manager's active set.

        With ``manager`` given (a :class:`~repro.core.manager.PBoxManager`),
        the per-window active-set gauge drains the manager's window set
        (``drain_active()``: the psids touched by state events and
        freezes); without a manager, the gauge falls back to the pBoxes
        seen in ``pbox.event`` traffic.
        """
        handlers = {
            "sched.enqueue": self._on_enqueue,
            "futex.wait": self._on_futex_wait,
            "pbox.create": self._on_pbox_create,
            "pbox.event": self._on_pbox_event,
            "pbox.penalty": self._on_penalty,
        }
        for name, handler in handlers.items():
            bus.subscribe(name, handler)
        self._handlers = handlers
        self._bus = bus
        self._manager = manager
        self._tp_breach = bus.point("slo.breach")
        self._tp_recover = bus.point("slo.recover")
        return self

    def detach(self):
        """Unsubscribe every handler (sketches and rows are kept)."""
        if self._bus is None:
            return
        for name, handler in self._handlers.items():
            self._bus.unsubscribe(name, handler)
        self._bus = None

    # -- request path (off-bus, fed by recorder sinks) -------------------

    def record_request(self, tenant, latency_us, now_us, nominal_us=None):
        """Account one completed request for ``tenant``.

        ``nominal_us`` is the workload's expected uncontended latency;
        when given, the slowdown ratio is sketched (milli-units) and the
        tenant's objective may judge the request on slowdown as well as
        absolute latency.
        """
        self._roll(now_us)
        state = self._tenant(tenant)
        state.latency.record(latency_us)
        state.requests += 1
        slowdown = None
        if nominal_us:
            slowdown = latency_us / nominal_us
            state.slowdown.record(int(slowdown * 1000))
        self._win_latency.record(latency_us)

        good = True
        if self.evaluator is not None:
            objective = self.evaluator.objective_for(tenant)
            if objective is not None:
                good = objective.is_good(latency_us, slowdown)
        if good:
            state.win_good += 1
        else:
            state.win_bad += 1
            state.bad += 1
            self._win_bad += 1

    # -- bus handlers ----------------------------------------------------
    #
    # The per-event handlers do _roll's work inline up to the window
    # test: they keep _last_now and call _roll only when ``now`` reaches
    # the end of the current window, which most events do not.

    def _on_enqueue(self, _name, now, fields):
        if now > self._last_now:
            self._last_now = now
        if now >= self._window_end:
            self._roll(now)
        tid = fields["tid"]
        if tid not in self._tid_tenant:
            self._tid_tenant[tid] = tenant_of(fields.get("name"))
        start = self._wait_since.pop(tid, None)
        if start is not None:
            tenant = self._tid_tenant.get(tid)
            if tenant is not None:
                self._tenant(tenant).wait.record(now - start)

    def _on_futex_wait(self, _name, now, fields):
        if now > self._last_now:
            self._last_now = now
        if now >= self._window_end:
            self._roll(now)
        self._wait_since[fields["tid"]] = now

    def _on_pbox_create(self, _name, now, fields):
        self._roll(now)
        tenant = tenant_of(fields.get("name"))
        if tenant is not None:
            # pBoxes inherit their creator's tenant; map the tid too so
            # wait-time attribution covers the pBox-bound thread.
            self._tid_tenant.setdefault(fields["tid"], tenant)

    def _on_pbox_event(self, _name, now, fields):
        if now > self._last_now:
            self._last_now = now
        if now >= self._window_end:
            self._roll(now)
        self._win_events += 1
        psid = getattr(fields.get("pbox"), "psid", None)
        if psid is not None:
            self._win_active.add(psid)

    def _on_penalty(self, _name, now, fields):
        self._roll(now)
        self._win_penalties += 1
        self._win_penalty_us += fields["delay_us"]

    # -- windowing -------------------------------------------------------

    def _tenant(self, tenant):
        state = self.tenants.get(tenant)
        if state is None:
            state = self.tenants[tenant] = TenantTelemetry(tenant)
        return state

    def _roll(self, now_us):
        """Close every window that ended at or before ``now_us``."""
        if now_us > self._last_now:
            self._last_now = now_us
        while now_us >= self._window_end:
            self._close_window(self._window_end)
            self._window_end += self.window_us

    def _close_window(self, end_us):
        sketch = self._win_latency
        requests = sketch.count
        breach_events = []
        if self.evaluator is not None:
            # Every known tenant gets a window observation -- including
            # idle (0, 0) ones, so burn rates decay over quiet windows.
            for tenant in sorted(self.tenants):
                state = self.tenants[tenant]
                breach_events.extend(self.evaluator.observe_window(
                    tenant, state.win_good, state.win_bad, end_us))
                state.win_good = state.win_bad = 0
        if self._manager is not None:
            active = len(self._manager.drain_active())
        else:
            active = len(self._win_active)
        breached = (len(self.evaluator.breached_tenants())
                    if self.evaluator is not None else 0)
        self.rows.append([
            (end_us - self.window_us) // self.window_us,
            requests,
            self._win_bad,
            sketch.percentile(50), sketch.percentile(95),
            sketch.percentile(99),
            self._win_penalties,
            self._win_penalty_us,
            self._win_events,
            active,
            breached,
        ])
        self._win_latency = QuantileSketch("window_latency_us")
        self._win_bad = 0
        self._win_penalties = 0
        self._win_penalty_us = 0
        self._win_events = 0
        self._win_active = set()
        for event in breach_events:
            self.slo_events.append(event)
            if self._bus is not None:
                point = (self._tp_breach if event["kind"] == "breach"
                         else self._tp_recover)
                fields = {key: value for key, value in event.items()
                          if key not in ("kind", "time_us")}
                point.fire(event["time_us"], **fields)

    def finalize(self, now_us=None):
        """Close the in-progress window so short runs produce rows."""
        end = now_us if now_us is not None else self._last_now
        if end >= self._window_end or self._win_latency.count \
                or self._win_events:
            self._roll(end)
            if self._win_latency.count or self._win_events \
                    or self._win_penalties:
                self._close_window(self._window_end)
                self._window_end += self.window_us
        return self

    # -- views -----------------------------------------------------------

    def snapshot(self):
        """Live view for the dashboard renderers."""
        tenants = []
        for tenant in sorted(self.tenants):
            state = self.tenants[tenant]
            burn_short, burn_long = (
                self.evaluator.burn_rates(tenant)
                if self.evaluator is not None else (0.0, 0.0))
            breached = (self.evaluator is not None
                        and tenant in self.evaluator.breached_tenants())
            tenants.append({
                "tenant": tenant,
                "requests": state.requests,
                "bad": state.bad,
                "p50_us": state.latency.percentile(50),
                "p95_us": state.latency.percentile(95),
                "p99_us": state.latency.percentile(99),
                "wait_p95_us": state.wait.percentile(95),
                "burn_short": round(burn_short, 3),
                "burn_long": round(burn_long, 3),
                "breached": breached,
            })
        return {
            "now_us": self._last_now,
            "window_us": self.window_us,
            "columns": list(SERIES_COLUMNS),
            "rows": [list(row) for row in self.rows],
            "tenants": tenants,
            "slo_events": list(self.slo_events),
        }

    # -- serialization (budgeted) ----------------------------------------

    def to_json_dict(self, budget_bytes=None, max_tenants=12):
        """Compact JSON document, optionally squeezed under a byte cap.

        Determinism of the squeeze matters as much as the size: the
        document tightens in fixed steps (halve series resolution down
        to 30 rows, then halve detailed-tenant count down to 4, folding
        the rest into a merged ``_other`` entry), so two identical runs
        always serialize identically.  ``dropped`` records what was
        coarsened so readers know the document is a summary.
        """
        max_rows = MAX_ROWS
        while True:
            doc = self._document(max_rows, max_tenants)
            if budget_bytes is None:
                return doc
            size = len(json.dumps(doc, separators=(",", ":")))
            if size <= budget_bytes:
                return doc
            if max_rows > 30:
                max_rows = max(30, max_rows // 2)
            elif max_tenants > 4:
                max_tenants = max(4, max_tenants // 2)
            else:
                # Floor reached: drop per-tenant sketches entirely.
                doc = self._document(max_rows, 0)
                return doc

    def _document(self, max_rows, max_tenants):
        rows = coalesce_rows(self.rows, max_rows)
        ordered = sorted(
            self.tenants,
            key=lambda tenant: (-self.tenants[tenant].requests, tenant))
        detailed = ordered[:max_tenants]
        folded = ordered[max_tenants:]
        tenants_doc = {tenant: self.tenants[tenant].to_dict()
                       for tenant in sorted(detailed)}
        if folded:
            other = TenantTelemetry("_other")
            for tenant in folded:
                state = self.tenants[tenant]
                other.latency.merge(state.latency)
                other.slowdown.merge(state.slowdown)
                other.wait.merge(state.wait)
                other.requests += state.requests
                other.bad += state.bad
            tenants_doc["_other"] = other.to_dict()
            tenants_doc["_other"]["folded"] = len(folded)
        events = self.slo_events[:50]
        return {
            "schema": TELEMETRY_SCHEMA,
            "window_us": self.window_us,
            "windows": {"columns": list(SERIES_COLUMNS), "rows": rows},
            "tenants": tenants_doc,
            "totals": {
                "requests": sum(s.requests for s in self.tenants.values()),
                "bad": sum(s.bad for s in self.tenants.values()),
                "breaches": sum(1 for e in self.slo_events
                                if e["kind"] == "breach"),
                "recovers": sum(1 for e in self.slo_events
                                if e["kind"] == "recover"),
            },
            "slo": {
                "objectives": {
                    tenant: objective.to_dict()
                    for tenant, objective in sorted(
                        self.evaluator.objectives.items())
                } if self.evaluator is not None else {},
                "default": (self.evaluator.default.to_dict()
                            if self.evaluator is not None
                            and self.evaluator.default is not None
                            else None),
                "policy": (self.evaluator.policy.to_dict()
                           if self.evaluator is not None else None),
                "events": events,
            },
            "dropped": {
                "rows_recorded": len(self.rows),
                "rows_kept": len(rows),
                "tenants_recorded": len(self.tenants),
                "tenants_detailed": len(tenants_doc)
                - (1 if folded else 0),
                "slo_events_recorded": len(self.slo_events),
                "slo_events_kept": len(events),
            },
        }


class BreachExplainer:
    """Answers "why did this tenant breach?" the moment it happens.

    A small bridge between the SLO pipeline and the per-request causal
    tracer (:class:`~repro.obs.critpath.CritPathTracer`): on every
    ``slo.breach`` it pulls the tenant's slowest requests completed in
    the breach window and fires a derived ``why.explain`` tracepoint
    carrying their critical-path breakdowns -- JSON-safe tuples of
    ``(rid, latency_us, dominant_segment, dominant_us)``.  Like every
    ``why.*``/``slo.*`` point it is golden-excluded, so wiring the
    explainer cannot perturb a canonical trace.

    Parameters
    ----------
    tracer:
        An attached :class:`~repro.obs.critpath.CritPathTracer`.
    window_us:
        Breach window looked at, ending at the breach time; defaults to
        the burn-rate policy's short horizon (3 telemetry windows).
    """

    def __init__(self, tracer, window_us=3 * WINDOW_US):
        self.tracer = tracer
        self.window_us = window_us
        self.explanations = []   # [{"tenant", "at_us", "top"}]
        self._bus = None
        self._tp_explain = None

    def attach(self, bus):
        """Subscribe to ``slo.breach``; register the ``why.explain`` point."""
        bus.subscribe("slo.breach", self._on_breach)
        self._tp_explain = bus.point("why.explain")
        self._bus = bus
        return self

    def detach(self):
        """Unsubscribe (recorded explanations are kept)."""
        if self._bus is None:
            return
        self._bus.unsubscribe("slo.breach", self._on_breach)
        self._bus = None

    def _on_breach(self, _name, now, fields):
        tenant = fields.get("tenant")
        top = self.tracer.explain(tenant, until_us=now,
                                  window_us=self.window_us,
                                  top=EXPLAIN_TOP)
        record = {"tenant": tenant, "at_us": now,
                  "top": [list(entry) for entry in top]}
        self.explanations.append(record)
        if self._tp_explain is not None and self._tp_explain.active:
            self._tp_explain.fire(now, tenant=tenant, at_us=now,
                                  top=record["top"])

    def __repr__(self):
        return "BreachExplainer(explanations=%d)" % len(self.explanations)


def coalesce_rows(rows, max_rows):
    """Merge adjacent windows until at most ``max_rows`` remain.

    Counts sum; percentiles take the max of the merged windows (the
    conservative direction for latency); ``active``/``breached`` take
    the max; the ``window`` column keeps the first window's index.
    """
    if max_rows <= 0 or len(rows) <= max_rows:
        return [list(row) for row in rows]
    factor = -(-len(rows) // max_rows)  # ceil division
    merged = []
    for start in range(0, len(rows), factor):
        group = rows[start:start + factor]
        row = list(group[0])
        for other in group[1:]:
            row[1] += other[1]    # requests
            row[2] += other[2]    # bad
            row[3] = max(row[3], other[3])   # p50
            row[4] = max(row[4], other[4])   # p95
            row[5] = max(row[5], other[5])   # p99
            row[6] += other[6]    # penalties
            row[7] += other[7]    # penalty_us
            row[8] += other[8]    # events
            row[9] = max(row[9], other[9])   # active
            row[10] = max(row[10], other[10])  # breached
        merged.append(row)
    return merged
