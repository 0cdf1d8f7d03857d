"""Per-request causal tracing: critical-path latency decomposition.

The tracepoint bus already carries everything needed to explain one
request's latency -- it just arrives interleaved across every thread in
the run.  :class:`CritPathTracer` is a pure bus subscriber that
reconstructs each traced request's timeline between its ``req.begin``
and ``req.end`` events and decomposes the latency into an
*exactly-summing* set of segments:

============  =========================================================
``oncpu``     CPU slices (``sched.switch`` -> ``sched.switchout``)
``runnable``  run-queue wait (``sched.enqueue``/requeue -> switch)
``lock``      blocked on a futex (``futex.wait`` -> wakeup), blamed on
              the holders' pBoxes registered at wait start
``pool_queue``the share of a lock wait spent queued on an event-driven
              pool (from the worker's ``req.serve`` report)
``sleep``     timed sleeps inside the request window (e.g. a baseline
              policy's admission-control stall)
``throttle``  parked on a cgroup quota (``cgroup.throttle`` ->
              ``cgroup.unthrottle``)
``penalty``   pBox penalty delays (``penalty.inject`` -> resume)
============  =========================================================

The sum identity is structural, not approximate: the tracer shifts a
per-thread state at every event and charges ``now - state_since`` to
the outgoing state's bucket, so the buckets telescope to exactly
``end - begin`` -- the same two ``Now()`` readings the latency recorder
samples.  ``pool_queue`` is carved out of ``lock`` after the fact
(sum-preserving), since the client spends that time blocked on the task
futex while the pool holds the work.

Like the attribution profiler, the attached cost is kept off the hot
path: recorder closures append flat tuples for *live* request threads
only (one set lookup per scheduler event) and the analysis replays the
log lazily on first query.  Detached cost is the usual one ``active``
check per firing site.
"""

import heapq
import json

from repro.obs.tracepoints import key_label

#: Aggressor label when a lock wait had no identifiable holder.
UNKNOWN = "<unknown>"

#: Segment kinds, in display order.
SEGMENTS = ("oncpu", "runnable", "lock", "pool_queue", "sleep",
            "throttle", "penalty")

#: Cap on per-request segments kept while in flight; beyond it only the
#: bucket sums keep growing (the sum identity never degrades).
MAX_LIVE_SEGMENTS = 512

#: Segments retained per completed request (longest first).
KEPT_SEGMENTS = 12

#: Most recent completions retained per tenant.
RECENT_PER_TENANT = 64


class RequestTrace:
    """One completed request's decomposed timeline."""

    __slots__ = ("rid", "tid", "tenant", "begin_us", "end_us",
                 "latency_us", "buckets", "lock_blame", "segments",
                 "dropped_segments", "penalty_psids")

    def __init__(self, rid, tid, tenant, begin_us, end_us, buckets,
                 lock_blame, segments, dropped_segments, penalty_psids):
        self.rid = rid
        self.tid = tid
        self.tenant = tenant
        self.begin_us = begin_us
        self.end_us = end_us
        self.latency_us = end_us - begin_us
        self.buckets = buckets              # {segment kind: us}
        self.lock_blame = lock_blame        # {(psid|UNKNOWN, key): us}
        self.segments = segments            # [(kind, start, dur, detail)]
        self.dropped_segments = dropped_segments
        self.penalty_psids = penalty_psids  # {psid|None: us}

    def dominant(self):
        """``(kind, us)`` of the largest bucket (ties: SEGMENTS order)."""
        best = SEGMENTS[0]
        for kind in SEGMENTS:
            if self.buckets[kind] > self.buckets[best]:
                best = kind
        return best, self.buckets[best]

    def critical_path(self, top=KEPT_SEGMENTS):
        """Longest retained segments, descending by duration."""
        ordered = sorted(self.segments, key=lambda seg: (-seg[2], seg[1]))
        return ordered[:top]

    def to_dict(self):
        """JSON-serializable form (WHY.json rows)."""
        blame = [
            {"holder": holder, "resource": resource, "us": us}
            for (holder, resource), us in sorted(
                self.lock_blame.items(),
                key=lambda item: (-item[1], str(item[0])))
        ]
        return {
            "rid": self.rid,
            "tid": self.tid,
            "tenant": self.tenant,
            "begin_us": self.begin_us,
            "latency_us": self.latency_us,
            "buckets": {kind: self.buckets[kind] for kind in SEGMENTS},
            "lock_blame": blame,
            "critical_path": [
                {"kind": kind, "start_us": start, "dur_us": dur,
                 "detail": detail}
                for kind, start, dur, detail in self.critical_path()
            ],
            "dropped_segments": self.dropped_segments,
        }

    def __repr__(self):
        kind, us = self.dominant()
        return "RequestTrace(rid=%d, tenant=%r, latency_us=%d, %s=%d)" % (
            self.rid, self.tenant, self.latency_us, kind, us,
        )


class _LiveRequest:
    """Replay-side state for one in-flight request."""

    __slots__ = ("rid", "tid", "tenant", "begin_us", "state",
                 "state_since", "buckets", "lock_blame", "segments",
                 "dropped_segments", "lock_key", "lock_holders",
                 "pool_queued_us", "penalty_psids", "detail")

    def __init__(self, rid, tid, tenant, begin_us):
        self.rid = rid
        self.tid = tid
        self.tenant = tenant
        self.begin_us = begin_us
        # Between two events the thread body runs synchronously in zero
        # virtual time, so the zero-width initial state is arbitrary;
        # oncpu keeps any assumption-breaking gap visible as CPU time.
        self.state = "oncpu"
        self.state_since = begin_us
        self.buckets = dict.fromkeys(SEGMENTS, 0)
        self.lock_blame = {}
        self.segments = []
        self.dropped_segments = 0
        self.lock_key = None
        self.lock_holders = ()
        self.pool_queued_us = 0
        self.penalty_psids = {}
        self.detail = None


class CritPathTracer:
    """Reconstructs per-request critical paths from the tracepoint bus.

    Parameters
    ----------
    slowest:
        Slowest requests retained per tenant (a min-heap by latency).

    The last ``RECENT_PER_TENANT`` completions of each tenant are kept
    too, for breach-window explanations (:meth:`explain`).
    """

    def __init__(self, slowest=32):
        self.slowest_k = slowest
        self._pending = []         # raw record log, tag-first tuples
        self._live_tids = set()    # record-time filter for sched events
        self._rid_tid = {}         # replay: rid -> tid (pool joins)
        self._live = {}            # replay: tid -> _LiveRequest
        self._slowest = {}         # tenant -> [(latency, seq, trace)]
        self._recent = {}          # tenant -> [trace, ...] ring
        self._totals = {}          # tenant -> {kind: us}
        self._counts = {}          # tenant -> completed count
        self._dropped = 0          # completions evicted from retention
        self._seq = 0
        self._pbox_names = {}      # psid -> display name
        self._key_labels = {}
        self._recorders = None
        self._bus = None
        self._replay = {
            "req.begin": self._replay_begin,
            "req.end": self._replay_end,
            "req.serve": self._replay_serve,
            "sched.enqueue": self._replay_enqueue,
            "sched.switch": self._replay_switch,
            "sched.switchout": self._replay_switchout,
            "sched.sleep": self._replay_sleep,
            "futex.wait": self._replay_futex_wait,
            "cgroup.throttle": self._replay_throttle,
            "cgroup.unthrottle": self._replay_unthrottle,
            "penalty.inject": self._replay_penalty,
            "pbox.create": self._replay_pbox_create,
        }

    # -- wiring ----------------------------------------------------------

    def attach(self, bus):
        """Subscribe to every tracepoint this tracer understands."""
        if self._recorders is None:
            self._recorders = self._make_recorders()
        for name, recorder in self._recorders.items():
            bus.subscribe(name, recorder)
        self._bus = bus
        return self

    def detach(self):
        """Unsubscribe (the recorded log stays queryable)."""
        if self._bus is None:
            return
        for name, recorder in self._recorders.items():
            self._bus.unsubscribe(name, recorder)
        self._bus = None

    def _make_recorders(self):
        """Fire-time recorder closures: the entire attached cost.

        Scheduler points fire for every thread in the run; the ``tid in
        live`` set test keeps the log (and the append cost) proportional
        to traced-request activity, not total activity.  Records are
        flat tuples of atomics -- cheap to append, invisible to the
        cyclic GC (see the attribution profiler for the long form of
        this argument).
        """
        append = self._pending.append
        live = self._live_tids
        labels = self._key_labels

        def record_begin(_name, now, fields, append=append, live=live):
            tid = fields["tid"]
            live.add(tid)
            append(("req.begin", now, fields["rid"], tid,
                    fields["tenant"]))

        def record_end(_name, now, fields, append=append, live=live):
            tid = fields["tid"]
            live.discard(tid)
            append(("req.end", now, fields["rid"], tid))

        def record_serve(_name, now, fields, append=append):
            append(("req.serve", now, fields["rid"],
                    fields["queued_us"]))

        def record_tid(name, now, fields, append=append, live=live):
            tid = fields["tid"]
            if tid in live:
                append((name, now, tid))

        def record_switchout(_name, now, fields, append=append, live=live):
            tid = fields["tid"]
            if tid in live:
                append(("sched.switchout", now, tid, fields["done"]))

        def record_futex_wait(_name, now, fields, append=append, live=live,
                              labels=labels, key_label=key_label):
            tid = fields["tid"]
            if tid not in live:
                return
            key = fields.get("key")
            label = labels.get(key)
            if label is None:
                label = labels[key] = key_label(key)
            psids = fields.get("holder_psids")
            append(("futex.wait", now, tid, label,
                    tuple(psids) if psids else ()))

        def record_unthrottle(_name, now, fields, append=append, live=live):
            tids = [tid for tid in fields["tids"] if tid in live]
            if tids:
                append(("cgroup.unthrottle", now, tuple(tids)))

        def record_penalty(_name, now, fields, append=append, live=live):
            tid = fields["tid"]
            if tid in live:
                append(("penalty.inject", now, tid, fields.get("psid")))

        def record_pbox_create(_name, now, fields, append=append):
            append(("pbox.create", now, fields["psid"],
                    fields.get("name")))

        return {
            "req.begin": record_begin,
            "req.end": record_end,
            "req.serve": record_serve,
            "sched.enqueue": record_tid,
            "sched.switch": record_tid,
            "sched.switchout": record_switchout,
            "sched.sleep": record_tid,
            "futex.wait": record_futex_wait,
            "cgroup.throttle": record_tid,
            "cgroup.unthrottle": record_unthrottle,
            "penalty.inject": record_penalty,
            "pbox.create": record_pbox_create,
        }

    def _drain(self):
        pending = self._pending
        if not pending:
            return
        replay = self._replay
        for rec in pending:
            replay[rec[0]](rec)
        del pending[:]

    # -- replay: the per-thread state machine ----------------------------

    def _shift(self, req, now, new_state, detail=None):
        """Charge time since the last event to the outgoing state."""
        dur = now - req.state_since
        if dur > 0:
            state = req.state
            req.buckets[state] += dur
            if state == "lock":
                holders = req.lock_holders
                blame = req.lock_blame
                if holders:
                    share = dur // len(holders)
                    rem = dur - share * len(holders)
                    for index, psid in enumerate(holders):
                        slot = (psid, req.lock_key)
                        blame[slot] = (blame.get(slot, 0) + share
                                       + (rem if index == 0 else 0))
                else:
                    slot = (UNKNOWN, req.lock_key)
                    blame[slot] = blame.get(slot, 0) + dur
            if len(req.segments) < MAX_LIVE_SEGMENTS:
                req.segments.append((state, req.state_since, dur,
                                     req.detail))
            else:
                req.dropped_segments += 1
        req.state = new_state
        req.state_since = now
        req.detail = detail

    def _replay_begin(self, rec):
        _, now, rid, tid, tenant = rec
        stale = self._live.pop(tid, None)
        if stale is not None:
            # A begin with no matching end (should not happen for the
            # sequential clients); finalize the stale one defensively.
            self._finalize(stale, now)
        self._rid_tid[rid] = tid
        self._live[tid] = _LiveRequest(rid, tid, tenant, now)

    def _replay_end(self, rec):
        _, now, rid, tid = rec
        req = self._live.pop(tid, None)
        self._rid_tid.pop(rid, None)
        if req is None or req.rid != rid:
            return
        self._finalize(req, now)

    def _replay_serve(self, rec):
        _, _now, rid, queued_us = rec
        tid = self._rid_tid.get(rid)
        if tid is None:
            return
        req = self._live.get(tid)
        if req is not None and req.rid == rid:
            req.pool_queued_us += queued_us

    def _replay_enqueue(self, rec):
        req = self._live.get(rec[2])
        if req is not None:
            self._shift(req, rec[1], "runnable")

    def _replay_switch(self, rec):
        req = self._live.get(rec[2])
        if req is not None:
            self._shift(req, rec[1], "oncpu")

    def _replay_switchout(self, rec):
        req = self._live.get(rec[2])
        if req is None:
            return
        # done=False re-queues the thread with no sched.enqueue; done=True
        # resumes the body synchronously (zero-width, any state works).
        self._shift(req, rec[1], "oncpu" if rec[3] else "runnable")

    def _replay_sleep(self, rec):
        req = self._live.get(rec[2])
        if req is not None:
            self._shift(req, rec[1], "sleep")

    def _replay_futex_wait(self, rec):
        _, now, tid, label, psids = rec
        req = self._live.get(tid)
        if req is None:
            return
        self._shift(req, now, "lock", detail=label)
        req.lock_key = label
        req.lock_holders = psids

    def _replay_throttle(self, rec):
        req = self._live.get(rec[2])
        if req is not None:
            self._shift(req, rec[1], "throttle")

    def _replay_unthrottle(self, rec):
        _, now, tids = rec
        for tid in tids:
            req = self._live.get(tid)
            if req is not None:
                self._shift(req, now, "runnable")

    def _replay_penalty(self, rec):
        _, now, tid, psid = rec
        req = self._live.get(tid)
        if req is None:
            return
        self._shift(req, now, "penalty", detail=psid)
        req.penalty_psids[psid] = req.penalty_psids.get(psid, 0)

    def _replay_pbox_create(self, rec):
        _, _now, psid, name = rec
        if name:
            self._pbox_names[psid] = name

    def _finalize(self, req, end_us):
        self._shift(req, end_us, "oncpu")
        buckets = req.buckets
        # Penalty blame: each penalty segment's duration is in the
        # penalty bucket; re-walk retained segments for the per-psid
        # split (exact unless segments were dropped, in which case the
        # bucket total still is).
        for kind, _start, dur, detail in req.segments:
            if kind == "penalty":
                req.penalty_psids[detail] = (
                    req.penalty_psids.get(detail, 0) + dur)
        # Pool queue time is a sub-division of the client's lock wait
        # on the task futex: carve it out, sum-preserving, and move the
        # matching unknown-holder blame to the pool.
        pool_us = min(req.pool_queued_us, buckets["lock"])
        if pool_us > 0:
            buckets["lock"] -= pool_us
            buckets["pool_queue"] += pool_us
            for (holder, resource), us in list(req.lock_blame.items()):
                if holder != UNKNOWN or pool_us <= 0:
                    continue
                take = min(us, pool_us)
                if take == us:
                    del req.lock_blame[(holder, resource)]
                else:
                    req.lock_blame[(holder, resource)] = us - take
                pool_us -= take
        trace = RequestTrace(
            req.rid, req.tid, req.tenant, req.begin_us, end_us,
            buckets, req.lock_blame, req.segments, req.dropped_segments,
            req.penalty_psids,
        )
        self._retain(trace)

    def _retain(self, trace):
        tenant = trace.tenant
        totals = self._totals.get(tenant)
        if totals is None:
            totals = self._totals[tenant] = dict.fromkeys(SEGMENTS, 0)
        for kind in SEGMENTS:
            totals[kind] += trace.buckets[kind]
        self._counts[tenant] = self._counts.get(tenant, 0) + 1
        recent = self._recent.setdefault(tenant, [])
        recent.append(trace)
        if len(recent) > RECENT_PER_TENANT:
            del recent[0]
        heap = self._slowest.setdefault(tenant, [])
        self._seq += 1
        entry = (trace.latency_us, self._seq, trace)
        if len(heap) < self.slowest_k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)
            self._dropped += 1
        else:
            self._dropped += 1

    # -- queries ---------------------------------------------------------

    def label(self, holder):
        """Display name for a lock-blame holder (psid or UNKNOWN)."""
        if holder == UNKNOWN or holder is None:
            return UNKNOWN
        name = self._pbox_names.get(holder)
        if name is None:
            return "pbox-%s" % (holder,)
        return "%s (pbox %s)" % (name, holder)

    def completed_count(self):
        """Completed traced requests, over every tenant."""
        self._drain()
        return sum(self._counts.values())

    def tenants(self):
        """Tenants with at least one completed request, sorted."""
        self._drain()
        return sorted(self._counts)

    def tenant_totals(self):
        """``{tenant: {segment: us, "requests": n}}`` aggregates."""
        self._drain()
        out = {}
        for tenant in sorted(self._totals):
            row = dict(self._totals[tenant])
            row["requests"] = self._counts.get(tenant, 0)
            out[tenant] = row
        return out

    def slowest(self, tenant=None, k=None):
        """Slowest retained requests, descending latency.

        ``tenant=None`` merges every tenant's retained set.
        """
        self._drain()
        entries = []
        for name, heap in sorted(self._slowest.items()):
            if tenant is not None and name != tenant:
                continue
            entries.extend(heap)
        entries.sort(key=lambda entry: (-entry[0], entry[1]))
        if k is not None:
            entries = entries[:k]
        return [trace for _latency, _seq, trace in entries]

    def recent(self, tenant, window_us=None, until_us=None):
        """Recent completions for ``tenant`` (optionally a time window)."""
        self._drain()
        traces = list(self._recent.get(tenant, ()))
        if until_us is not None:
            traces = [t for t in traces if t.end_us <= until_us]
        if window_us is not None:
            floor = (until_us if until_us is not None
                     else (traces[-1].end_us if traces else 0)) - window_us
            traces = [t for t in traces if t.end_us > floor]
        return traces

    def explain(self, tenant, until_us=None, window_us=None, top=3):
        """Top breach-window offenders as JSON-safe tuples.

        Returns ``[(rid, latency_us, dominant_kind, dominant_us), ...]``
        for the slowest ``top`` requests the tenant completed in the
        window -- the payload of the derived ``why.explain`` point.
        """
        traces = self.recent(tenant, window_us=window_us, until_us=until_us)
        traces.sort(key=lambda t: (-t.latency_us, t.rid))
        out = []
        for trace in traces[:top]:
            kind, us = trace.dominant()
            out.append((trace.rid, trace.latency_us, kind, us))
        return out

    # -- rendering -------------------------------------------------------

    def format_table(self, slowest=5, tenant=None):
        """Human-readable per-request critical-path table."""
        self._drain()
        lines = ["per-request critical paths", "=========================="]
        traces = self.slowest(tenant=tenant, k=slowest)
        if not traces:
            lines.append("(no completed traced requests)")
            return "\n".join(lines)
        header = "  %-6s %-10s %10s" % ("rid", "tenant", "latency ms")
        for kind in SEGMENTS:
            header += " %10s" % kind
        lines.append(header)
        for trace in traces:
            row = "  %-6d %-10s %10.2f" % (
                trace.rid, trace.tenant, trace.latency_us / 1_000)
            for kind in SEGMENTS:
                row += " %10.2f" % (trace.buckets[kind] / 1_000)
            lines.append(row)
            total = sum(trace.buckets.values())
            check = "ok" if total == trace.latency_us else "MISMATCH"
            top = ", ".join(
                "%s %.2fms%s" % (
                    kind, dur / 1_000,
                    " (%s)" % self._detail_label(kind, detail)
                    if detail is not None else "")
                for kind, _start, dur, detail in trace.critical_path(3))
            lines.append("         path: %s  [sum %s]" % (top or "-", check))
            blame = sorted(trace.lock_blame.items(),
                           key=lambda item: (-item[1], str(item[0])))
            if blame:
                (holder, resource), us = blame[0]
                lines.append("         lock blame: %s via %s (%.2f ms)"
                             % (self.label(holder), resource, us / 1_000))
        lines.append("retained %d of %d completed requests"
                     % (len(self.slowest()), self.completed_count()))
        return "\n".join(lines)

    def _detail_label(self, kind, detail):
        if kind == "lock":
            return detail
        if kind == "penalty":
            return self.label(detail)
        return str(detail)

    def to_json_dict(self, budget_bytes=None, slowest=None):
        """WHY.json document under an optional byte budget.

        The squeeze is deterministic: halve the per-tenant slowest list
        (floor 3) until the serialized document fits, recording what was
        dropped -- the same discipline the telemetry snapshot uses.
        """
        self._drain()
        keep = self.slowest_k if slowest is None else slowest
        while True:
            doc = self._document(keep)
            if budget_bytes is None:
                return doc
            size = len(json.dumps(doc, sort_keys=True,
                                  separators=(",", ":")))
            if size <= budget_bytes or keep <= 3:
                doc["squeezed_to"] = keep
                return doc
            keep = max(3, keep // 2)

    def _document(self, keep):
        tenants = {}
        for tenant in self.tenants():
            traces = self.slowest(tenant=tenant, k=keep)
            totals = dict(self._totals[tenant])
            tenants[tenant] = {
                "requests": self._counts.get(tenant, 0),
                "totals_us": totals,
                "slowest": [trace.to_dict() for trace in traces],
            }
        return {
            "schema": 1,
            "segments": list(SEGMENTS),
            "completed": self.completed_count(),
            "dropped_from_retention": self._dropped,
            "pbox_names": {str(psid): name
                           for psid, name in sorted(self._pbox_names.items())},
            "tenants": tenants,
        }

    def __repr__(self):
        return "CritPathTracer(live=%d, completed=%d, pending=%d)" % (
            len(self._live), sum(self._counts.values()), len(self._pending),
        )
