"""pBox trace log: what happened, to whom, and why.

Section 7 of the paper notes that "the log traces from pBox can provide
useful insights for developers to understand a performance interference
issue."  This module is that trace: attach a :class:`PBoxTracer` to the
manager and it records state events, detections, penalty actions and
penalty deliveries into a bounded ring buffer, with aggregation helpers
that answer the debugging questions directly -- which resource is
contended, who the recurring noisy pBox is, how much delay each pBox
absorbed.
"""

from collections import Counter, deque

from repro.obs.tracepoints import key_label

#: How many entries each ranking helper returns.
TOP_N = 5


class TraceRecord:
    """One traced occurrence."""

    __slots__ = ("time_us", "kind", "psid", "key", "detail")

    def __init__(self, time_us, kind, psid, key=None, detail=None):
        self.time_us = time_us
        self.kind = kind
        self.psid = psid
        self.key = key
        self.detail = detail

    def __repr__(self):
        return "TraceRecord(t=%dus, %s, psid=%s, key=%r, detail=%r)" % (
            self.time_us, self.kind, self.psid, self.key, self.detail
        )


class PBoxTracer:
    """Bounded trace of manager activity.

    Record kinds:

    - ``event``: a state event (detail = event name);
    - ``detection``: Algorithm 1 found a victim (psid = noisy,
      detail = victim psid);
    - ``action``: a penalty was scheduled (detail = length_us);
    - ``penalty``: a penalty was served (detail = delay_us).
    """

    def __init__(self, capacity=10_000, record_events=False):
        self.capacity = capacity
        self.record_events = record_events
        # State events flood the trace orders of magnitude faster than
        # detections/actions/penalties do, so each class gets its own
        # ring: a burst of events can never evict the rare records a
        # debugging session is actually after.
        self._rich_records = deque(maxlen=capacity)
        self._event_records = deque(maxlen=capacity)
        self.dropped = Counter()              # record kind -> evictions
        self.event_counts = Counter()
        self.detections_by_pair = Counter()   # (noisy, victim) -> count
        self.actions_by_key = Counter()       # resource key -> count
        self.penalty_us_by_psid = Counter()   # noisy psid -> delay total
        self._bus = None

    @property
    def records(self):
        """All retained records, merged in time order."""
        if not self._event_records:
            return list(self._rich_records)
        merged = list(self._rich_records) + list(self._event_records)
        merged.sort(key=lambda record: record.time_us)
        return merged

    def _append(self, ring, record):
        if len(ring) == ring.maxlen:
            self.dropped[ring[0].kind] += 1
        ring.append(record)

    # -- bus wiring -------------------------------------------------------

    def attach(self, bus):
        """Subscribe to the ``pbox.*`` tracepoints of ``bus``.

        The manager fires those points; this adapter keeps the classic
        ``on_event``/``on_detection``/``on_action``/``on_penalty_served``
        entry points as the recording primitives, so existing callers
        (and tests) see identical behaviour.
        """
        if self._bus is not None:
            self.detach()
        self._handlers = {
            "pbox.event": self._bus_event,
            "pbox.detect": self._bus_detect,
            "pbox.action": self._bus_action,
            "pbox.penalty": self._bus_penalty,
        }
        for name, handler in self._handlers.items():
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

    def _bus_event(self, _name, time_us, fields):
        if self.record_events:
            self.on_event(time_us, fields["pbox"], fields["key"],
                          fields["event"])
        else:
            # on_event's lean path, inline: it runs once per state event.
            self.event_counts[fields["event"]._value_] += 1

    def _bus_detect(self, _name, time_us, fields):
        self.on_detection(time_us, fields["noisy"], fields["victim"],
                          fields["key"])

    def _bus_action(self, _name, time_us, fields):
        self.on_action(time_us, fields["noisy"], fields["victim"],
                       fields["key"], fields["length_us"])

    def _bus_penalty(self, _name, time_us, fields):
        self.on_penalty_served(time_us, fields["pbox"], fields["delay_us"])

    # -- recording primitives ---------------------------------------------

    def on_event(self, time_us, pbox, key, event):
        """Record one state event (cheap counter unless record_events)."""
        value = event._value_
        self.event_counts[value] += 1
        if self.record_events:
            self._append(
                self._event_records,
                TraceRecord(time_us, "event", pbox.psid, key, value),
            )

    def on_detection(self, time_us, noisy, victim, key):
        """Record an Algorithm 1 detection."""
        self.detections_by_pair[(noisy.psid, victim.psid)] += 1
        self._append(
            self._rich_records,
            TraceRecord(time_us, "detection", noisy.psid, key, victim.psid),
        )

    def on_action(self, time_us, noisy, victim, key, length_us):
        """Record a scheduled penalty."""
        self.actions_by_key[self._key_name(key)] += 1
        self._append(
            self._rich_records,
            TraceRecord(time_us, "action", noisy.psid, key, length_us),
        )

    def on_penalty_served(self, time_us, pbox, delay_us):
        """Record a served penalty."""
        self.penalty_us_by_psid[pbox.psid] += delay_us
        self._append(
            self._rich_records,
            TraceRecord(time_us, "penalty", pbox.psid, None, delay_us),
        )

    # -- reporting --------------------------------------------------------

    @staticmethod
    def _key_name(key):
        # Shared with the span recorder/exporter so every surface labels
        # a resource key the same way (None, tuples, named objects).
        return key_label(key)

    def top_contended_resources(self):
        """Resources ranked by penalty actions taken over them."""
        return self.actions_by_key.most_common(TOP_N)

    def top_noisy_pboxes(self):
        """pBoxes ranked by total penalty delay absorbed."""
        return self.penalty_us_by_psid.most_common(TOP_N)

    def recurring_pairs(self):
        """(noisy psid, victim psid) pairs ranked by detections."""
        return self.detections_by_pair.most_common(TOP_N)

    def summary(self):
        """Aggregate dictionary for programmatic inspection."""
        return {
            "events": dict(self.event_counts),
            "detections": sum(self.detections_by_pair.values()),
            "actions": sum(self.actions_by_key.values()),
            "penalty_us": sum(self.penalty_us_by_psid.values()),
        }

    def format_report(self):
        """Human-readable interference report (the §7 debugging aid)."""
        lines = ["pBox trace report", "================="]
        totals = self.summary()
        lines.append("state events: %s" % (totals["events"] or "none"))
        lines.append("detections: %d, actions: %d, total penalty: %.1f ms"
                     % (totals["detections"], totals["actions"],
                        totals["penalty_us"] / 1_000))
        if self.actions_by_key:
            lines.append("most contended virtual resources:")
            for key, count in self.top_contended_resources():
                lines.append("  %-32s %d actions" % (key, count))
        if self.penalty_us_by_psid:
            lines.append("noisiest pBoxes (delay absorbed):")
            for psid, delay in self.top_noisy_pboxes():
                lines.append("  psid %-5d %.1f ms" % (psid, delay / 1_000))
        if self.detections_by_pair:
            lines.append("recurring noisy->victim pairs:")
            for (noisy, victim), count in self.recurring_pairs():
                lines.append("  %d -> %d: %d detections"
                             % (noisy, victim, count))
        return "\n".join(lines)
