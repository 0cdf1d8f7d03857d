"""The kernel-side pBox manager.

Implements the monitoring and mitigation pipeline of Sections 4.3-4.4:

- per-activity tracing of state events (competitor map, holder map,
  deferring time);
- Algorithm 1: on every UNHOLD, predict from the waiters' current defer
  ratios whether an isolation goal is in danger, and identify the noisy
  and victim pBoxes;
- pBox-level detection: at freeze time, compare the history-averaged
  interference level against 90% of the goal and act on the most-blamed
  recent blocker (the paper's "also take action at the end of the
  activity" path);
- penalty actions: accumulate a delay on the noisy pBox which the
  kernel's resume hook applies at the first *safe point* -- when the
  noisy pBox holds no tracked virtual resource (Section 4.4.1); for
  pBoxes bound to shared (event-driven) threads, the penalty instead
  defers their queued tasks (Section 5).
"""

import itertools

from repro.core.events import CompetitorEntry, StateEvent
from repro.core.pbox import ActivityRecord, PBox, PBoxStatus
from repro.core.penalty import AdaptivePenalty
from repro.core.rules import Metric

# Sentinel resource key for pBox-level (freeze-time) actions that cannot
# be attributed to a specific resource.
PBOX_LEVEL_KEY = "__pbox_level__"

#: Hard ceiling on any single delivered delay penalty, matching the
#: adaptive engine's own clamp.  A pending penalty above this can only
#: come from a misfire (or an injected fault); the resume hook clamps
#: it and counts the event.
PENALTY_CAP_US = 5_000_000


class _HealState:
    """Per-(noisy, victim) trend the self-healing watchdog tracks."""

    __slots__ = ("last_level", "fails", "backoff", "actions")

    def __init__(self):
        self.last_level = None
        self.fails = 0
        self.backoff = 0
        self.actions = 0


class PBoxManager:
    """Kernel-resident manager coordinating all pBoxes of an application.

    Parameters
    ----------
    kernel:
        The simulated kernel; the manager registers a resume hook on it
        to deliver penalties.
    penalty_engine:
        Penalty length engine; defaults to the paper's adaptive engine.
        Pass :class:`~repro.core.penalty.FixedPenalty` for the Table 4
        ablation.
    near_goal_fraction:
        The pBox-level detector fires when the history-averaged
        interference level reaches this fraction of the goal (default
        90%, the paper's default).
    enabled:
        When False every entry point is a no-op; lets experiments run
        the exact same instrumented application with pBox "off".
    """

    def __init__(self, kernel, penalty_engine=None, near_goal_fraction=0.9,
                 min_defer_us=1_000, enabled=True, tracer=None,
                 safe_penalty_timing=True, early_detection=True,
                 penalty_mode="delay", self_heal=True,
                 penalty_cap_us=PENALTY_CAP_US, heal_retry_limit=4,
                 heal_max_backoff=5, heal_min_actions=6,
                 heal_cooldown_us=1_000_000,
                 heal_pending_timeout_us=1_000_000,
                 scan_policy="eager", psid_alloc=None,
                 penalty_budget=None, register_resume_hook=True):
        self.kernel = kernel
        self.penalty_engine = penalty_engine or AdaptivePenalty()
        self.near_goal_fraction = near_goal_fraction
        self.tracer = tracer
        # Ablation switches (DESIGN.md section 4): disabling safe
        # penalty timing applies delays even while the noisy pBox holds
        # resources; disabling early detection removes the Algorithm 1
        # UNHOLD path, leaving only the reactive end-of-activity check.
        self.safe_penalty_timing = safe_penalty_timing
        self.early_detection = early_detection
        # Penalty mechanism: "delay" is the paper's design (an injected
        # sleep at a safe point); "priority" is the Section 7 extension
        # (demote the noisy pBox's thread in the scheduler for the
        # penalty duration instead of parking it).
        if penalty_mode not in ("delay", "priority"):
            raise ValueError("unknown penalty mode %r" % penalty_mode)
        self.penalty_mode = penalty_mode
        # Noise floor: a waiter only counts as a potential victim once it
        # has accumulated this much deferring time in the activity.  The
        # worst-case estimate tf = td/(te-td) is unstable at the start of
        # an activity (te ~ td makes tf explode for microsecond waits);
        # without a floor, heavyweight background activities would be
        # "victimized" by trivial waits and the clients penalized.
        self.min_defer_us = min_defer_us
        self.enabled = enabled
        # Self-healing (robustness layer): a penalized pBox whose victim
        # keeps failing to recover gets its penalties backed off
        # (halved per backoff level after ``heal_retry_limit``
        # consecutive non-improving actions); past ``heal_max_backoff``
        # levels the noisy pBox enters a safe-mode release -- penalties
        # suspended for ``heal_cooldown_us``.  A pending penalty that
        # cannot find a safe point within ``heal_pending_timeout_us``
        # decays instead of blocking forever, and any pending amount
        # above ``penalty_cap_us`` (a misfire) is clamped.
        self.self_heal = self_heal
        self.penalty_cap_us = penalty_cap_us
        self.heal_retry_limit = heal_retry_limit
        self.heal_max_backoff = heal_max_backoff
        self.heal_min_actions = heal_min_actions
        self.heal_cooldown_us = heal_cooldown_us
        self.heal_pending_timeout_us = heal_pending_timeout_us
        self._heal_trend = {}        # (noisy psid, victim psid) -> _HealState
        self._safe_until = {}        # noisy psid -> safe-mode end time
        self._pboxes = {}
        # psid allocation: shards of one application share an allocator
        # (see shards.ShardedPBoxManager) so psids stay globally unique
        # and creation-ordered no matter which shard creates a pBox.
        self._psid_alloc = psid_alloc if psid_alloc is not None \
            else itertools.count(1)
        # Scan policy (docs/PERFORMANCE.md): "eager" evaluates each
        # pBox inline at its own freeze -- the finest-grained dirty-set
        # scan, byte-identical to the historical inline detection;
        # "deferred" only marks the dirty set and leaves evaluation to
        # explicit scan() calls (batch drains in sorted-psid order).
        if scan_policy not in ("eager", "deferred"):
            raise ValueError("unknown scan policy %r" % (scan_policy,))
        self.scan_policy = scan_policy
        # Shared penalty budget (PenaltyBudget or None=unlimited):
        # caps the application-wide outstanding delay-penalty time.
        self.penalty_budget = penalty_budget
        self.competitor_map = {}     # resource key -> [CompetitorEntry]
        self.last_releaser = {}      # resource key -> (psid, time_us)
        # Inverted holder index: resource key -> {psid: PBox}.  Kept in
        # sync with each pBox's ``holders`` dict so blame attribution is
        # O(holders of key) instead of a scan over every live pBox --
        # the difference between O(1) and O(P) per contended ENTER when
        # a shared manager supervises hundreds of pBoxes.
        self._key_holders = {}
        # Observability: everything the manager used to report to a
        # tracer now goes through the kernel's tracepoint bus; the
        # tracer (if any) is simply the first subscriber.
        trace = kernel.trace
        self._tp_create = trace.point("pbox.create")
        self._tp_release = trace.point("pbox.release")
        self._tp_activate = trace.point("pbox.activate")
        self._tp_freeze = trace.point("pbox.freeze")
        self._tp_event = trace.point("pbox.event")
        self._tp_detect = trace.point("pbox.detect")
        self._tp_action = trace.point("pbox.action")
        self._tp_penalty = trace.point("pbox.penalty")
        self._tp_heal = trace.point("pbox.heal")
        # Flow ids link each detection to the penalty it causes (used by
        # the trace exporter to draw detection -> penalty arrows).
        self._flow_ids = itertools.count(1)
        if tracer is not None:
            tracer.attach(trace)
        self.stats = {
            "detections": 0,
            "actions": 0,
            "pbox_level_actions": 0,
            "penalties_applied": 0,
            "penalty_applied_us": 0,
            "events": 0,
            "penalty_backoffs": 0,
            "safe_mode_releases": 0,
            "penalty_clamped": 0,
            "penalty_reverts": 0,
        }
        # Detection dirty set: psids touched by state events or
        # freezes since the last scan drain.  scan() consumes it --
        # detection work is proportional to this set, never to the
        # registered-pBox population.  Kept out of ``stats``
        # deliberately: golden documents pin that dict.
        self.dirty_psids = set()
        # Observability window set: psids touched since the telemetry
        # pipeline's last drain_active().  Separate from the detection
        # set so a 100ms gauge drain can never starve (or double-feed)
        # the detector, and vice versa.
        self.active_psids = set()
        # Scan accounting -- also deliberately outside ``stats``.
        self.scan_stats = {
            "scans": 0,           # scan passes (incl. eager per-freeze)
            "evaluated": 0,       # pBoxes run through freeze detection
            "skipped_clean": 0,   # drained psids not frozen/evaluable
            "peak_dirty": 0,      # largest dirty set seen at a drain
        }
        if register_resume_hook:
            kernel.add_resume_hook(self._resume_hook)

    def drain_dirty(self):
        """Return and reset the detector's dirty set (scan work queue)."""
        dirty = self.dirty_psids
        self.dirty_psids = set()
        return dirty

    def drain_active(self):
        """Return and reset the telemetry window's active-psid set."""
        active = self.active_psids
        self.active_psids = set()
        return active

    # ------------------------------------------------------------------
    # Lifecycle (Section 4.3.2)
    # ------------------------------------------------------------------

    def create(self, rule, thread=None):
        """Create a pBox bound to ``thread`` (default: current thread)."""
        if thread is None:
            thread = self.kernel.current_thread
        pbox = PBox(next(self._psid_alloc), rule, thread=thread)
        self._pboxes[pbox.psid] = pbox
        if thread is not None:
            thread.pbox = pbox
        if self._tp_create.active:
            self._tp_create.fire(
                self.kernel.now_us, psid=pbox.psid,
                tid=None if thread is None else thread.tid,
                name=None if thread is None else thread.name,
            )
        return pbox

    def release(self, pbox):
        """Destroy a pBox, detaching it from maps and its thread."""
        if pbox.status is PBoxStatus.DESTROYED:
            return
        if pbox.status is PBoxStatus.ACTIVE:
            self.freeze(pbox)
        pbox.status = PBoxStatus.DESTROYED
        for key in list(self.competitor_map):
            entries = self.competitor_map[key]
            entries[:] = [entry for entry in entries if entry.pbox is not pbox]
            if not entries:
                del self.competitor_map[key]
        for key in pbox.holders:
            holders = self._key_holders.get(key)
            if holders is not None:
                holders.pop(pbox.psid, None)
                if not holders:
                    del self._key_holders[key]
        if pbox.thread is not None and pbox.thread.pbox is pbox:
            pbox.thread.pbox = None
        self._pboxes.pop(pbox.psid, None)
        if self._tp_release.active:
            self._tp_release.fire(self.kernel.now_us, psid=pbox.psid)

    def activate(self, pbox):
        """Start tracing a new activity inside the pBox.

        Any competitor entries left open by the previous activity (a
        PREPARE whose ENTER annotation was missed) are dropped here:
        a pBox starting a new activity is by definition not waiting.
        This is what makes the manager robust to incomplete
        update_pbox usage (Section 6.8).
        """
        for key in list(pbox.prepares):
            self._remove_competitor(key, pbox)
        pbox.prepares.clear()
        pbox.status = PBoxStatus.ACTIVE
        pbox.activity_start_us = self.kernel.now_us
        pbox.defer_time_us = 0
        if self._tp_activate.active:
            self._tp_activate.fire(self.kernel.now_us, psid=pbox.psid)

    def _remove_competitor(self, key, pbox):
        entries = self.competitor_map.get(key)
        if not entries:
            return
        entries[:] = [entry for entry in entries if entry.pbox is not pbox]
        if not entries:
            self.competitor_map.pop(key, None)

    def freeze(self, pbox):
        """Stop tracing the current activity and run pBox-level detection."""
        if pbox.status is not PBoxStatus.ACTIVE:
            return
        now = self.kernel.now_us
        exec_us = pbox.exec_time_us(now)
        record = ActivityRecord(pbox.defer_time_us, exec_us)
        pbox.history.append(record)
        pbox.total_defer_us += record.defer_us
        pbox.total_exec_us += record.exec_us
        pbox.activities_completed += 1
        pbox.status = PBoxStatus.FROZEN
        if self._tp_freeze.active:
            self._tp_freeze.fire(now, psid=pbox.psid,
                                 defer_us=record.defer_us,
                                 exec_us=record.exec_us)
        # A freeze dirties the pBox: it is the state change freeze-time
        # detection exists for, and marking it here guarantees a
        # deferred scan always re-evaluates a pBox whose activity ended
        # after the last drain -- even if no state event fired since.
        self.dirty_psids.add(pbox.psid)
        self.active_psids.add(pbox.psid)
        if self.enabled and self.scan_policy == "eager":
            # Eager mode: a one-psid dirty-set scan triggered by this
            # freeze.  Evaluating exactly the frozen pBox here is
            # byte-identical to the historical inline detection (the
            # golden corpus pins it); deferred mode leaves the set to
            # accumulate for a batched scan() drain.
            self.dirty_psids.discard(pbox.psid)
            self.scan_stats["scans"] += 1
            self.scan_stats["evaluated"] += 1
            self._pbox_level_detection(pbox)

    def scan(self, full=False):
        """Run freeze-time detection over the dirty set; return count.

        Drains ``dirty_psids`` and evaluates its *frozen* members in
        sorted-psid order -- deterministic no matter what order events
        dirtied them.  Cost is O(dirty set), never O(registered
        pBoxes): a quiescent pBox is never re-visited.  Dirty psids
        that are not frozen (mid-activity, or already released) are
        skipped; their own freeze re-marks them, so nothing is lost.

        ``full=True`` is the reference full-population scan: evaluate
        every registered pBox regardless of dirtiness.  It exists for
        the equivalence property tests (dirty-set verdicts must match
        it exactly); production paths never use it.
        """
        if not self.enabled:
            self.dirty_psids = set()
            return 0
        if full:
            pending = sorted(self._pboxes)
            self.dirty_psids = set()
        else:
            dirty = self.dirty_psids
            self.dirty_psids = set()
            pending = sorted(dirty)
        stats = self.scan_stats
        stats["scans"] += 1
        if len(pending) > stats["peak_dirty"]:
            stats["peak_dirty"] = len(pending)
        evaluated = 0
        for psid in pending:
            pbox = self._pboxes.get(psid)
            if pbox is None or pbox.status is not PBoxStatus.FROZEN:
                stats["skipped_clean"] += 1
                continue
            self._pbox_level_detection(pbox)
            evaluated += 1
        stats["evaluated"] += evaluated
        return evaluated

    def bind(self, pbox, thread, shared=False):
        """Bind ``pbox`` to ``thread`` (ownership transfer APIs)."""
        if pbox.thread is not None and pbox.thread.pbox is pbox:
            pbox.thread.pbox = None
        pbox.thread = thread
        pbox.shared_thread = shared
        if thread is not None:
            thread.pbox = pbox

    def unbind(self, pbox):
        """Detach ``pbox`` from its thread."""
        if pbox.thread is not None and pbox.thread.pbox is pbox:
            pbox.thread.pbox = None
        pbox.thread = None

    def get(self, psid):
        """Look up a pBox by id, or None."""
        return self._pboxes.get(psid)

    def contended(self, key, pbox=None):
        """True when ``key`` currently has waiters (library cost model).

        ``pbox`` is unused here but part of the signature contract: the
        sharded facade routes the question to the pBox's shard, whose
        competitor map is the only one that can contain its keys.
        """
        return key in self.competitor_map

    def pboxes(self):
        """Snapshot of live pBoxes."""
        return list(self._pboxes.values())

    # ------------------------------------------------------------------
    # State-event processing: Algorithm 1
    # ------------------------------------------------------------------

    def update(self, pbox, key, event):
        """Process one state event (the kernel side of update_pbox)."""
        self.stats["events"] += 1
        now = self.kernel.now_us
        # Fire before marking the dirty/active sets: a subscriber's
        # window roll (telemetry) must close the outgoing window
        # *without* this event's psid -- an event landing exactly on a
        # window boundary belongs to the new window, and marking first
        # double-counted the pBox in both.
        if self._tp_event.active:
            self._tp_event.fire(now, pbox=pbox, key=key, event=event)
        self.dirty_psids.add(pbox.psid)
        self.active_psids.add(pbox.psid)

        if event is StateEvent.PREPARE:
            if key in pbox.prepares:
                # A pBox waits on a key at most once at a time; a
                # duplicate PREPARE means the matching ENTER annotation
                # was missed -- replace the stale entry.
                self._remove_competitor(key, pbox)
            pbox.prepares[key] = now
            self.competitor_map.setdefault(key, []).append(
                CompetitorEntry(pbox, now)
            )
            return

        if event is StateEvent.ENTER:
            pbox.prepares.pop(key, None)
            entries = self.competitor_map.get(key)
            if not entries:
                return
            for entry in entries:
                if entry.pbox is pbox:
                    entries.remove(entry)
                    defer = now - entry.time_us
                    pbox.defer_time_us += defer
                    self._attribute_blame(pbox, key, defer)
                    break
            if not entries:
                self.competitor_map.pop(key, None)
            return

        if event is StateEvent.HOLD:
            pbox.holders[key] = now
            holders = self._key_holders.get(key)
            if holders is None:
                holders = self._key_holders[key] = {}
            holders[pbox.psid] = pbox
            return

        if event is StateEvent.UNHOLD:
            hold_start = pbox.holders.pop(key, None)
            if hold_start is None:
                return
            holders = self._key_holders.get(key)
            if holders is not None:
                holders.pop(pbox.psid, None)
                if not holders:
                    del self._key_holders[key]
            self.last_releaser[key] = (pbox.psid, now)
            if self.enabled and self.early_detection:
                self._detect_on_unhold(pbox, key, hold_start, now)
            return

        raise ValueError("unknown state event %r" % (event,))

    def _attribute_blame(self, waiter, key, defer_us):
        """Record who deferred ``waiter`` on ``key`` for freeze detection.

        Preference order: a current holder of the key, else the last
        pBox that released it while we were waiting.
        """
        blamed_psid = None
        holders = self._key_holders.get(key)
        if holders:
            # Lowest psid wins -- identical to the old full scan, which
            # walked _pboxes in creation (ascending-psid) order and took
            # the first holder.
            for psid in holders:
                if psid != waiter.psid and (blamed_psid is None
                                            or psid < blamed_psid):
                    blamed_psid = psid
        if blamed_psid is None:
            releaser = self.last_releaser.get(key)
            if releaser is not None and releaser[0] != waiter.psid:
                blamed_psid = releaser[0]
        if blamed_psid is not None:
            slot = (blamed_psid, key)
            waiter.blame[slot] = waiter.blame.get(slot, 0) + defer_us

    def _detect_on_unhold(self, holder, key, hold_start_us, now):
        """Algorithm 1, UNHOLD branch: find a victim among the waiters."""
        entries = self.competitor_map.get(key)
        if not entries:
            return
        victim = None
        victim_tf = 0.0
        victim_defer = 0
        for entry in entries:
            waiter = entry.pbox
            if waiter is holder or waiter.status is not PBoxStatus.ACTIVE:
                continue
            open_defer = now - entry.time_us
            total_defer = waiter.defer_time_us + open_defer
            if total_defer < self.min_defer_us:
                continue
            tf = waiter.interference_level(now, extra_defer_us=open_defer)
            if tf > waiter.rule.goal and hold_start_us < entry.time_us:
                if victim is None or tf > victim_tf:
                    victim = waiter
                    victim_tf = tf
                    victim_defer = total_defer
        if victim is not None:
            self.stats["detections"] += 1
            flow = next(self._flow_ids)
            if self._tp_detect.active:
                self._tp_detect.fire(now, noisy=holder, victim=victim,
                                     key=key, flow=flow)
            self.take_action(holder, victim, key, victim_defer_us=victim_defer,
                             flow_id=flow)

    def _pbox_level_detection(self, pbox):
        """Freeze-time detection over the activity history (Section 4.3.1).

        Uses the rule's metric (average by default) and fires when within
        ``near_goal_fraction`` of the goal, acting on the most-blamed
        (noisy pBox, key) pair recorded during recent activities.
        """
        metric = pbox.rule.metric
        if metric is Metric.AVERAGE:
            level = pbox.average_interference_level()
        elif metric is Metric.TAIL:
            level = pbox.tail_interference_level()
        else:
            level = pbox.max_interference_level()
        if level < self.near_goal_fraction * pbox.rule.goal:
            return
        if not pbox.blame:
            return
        if pbox.history and pbox.history[-1].defer_us < self.min_defer_us:
            return
        (noisy_psid, key), blamed_defer = max(
            pbox.blame.items(), key=lambda kv: kv[1]
        )
        noisy = self._pboxes.get(noisy_psid)
        if noisy is None or noisy is pbox:
            pbox.blame.clear()
            return
        self.stats["pbox_level_actions"] += 1
        self.take_action(noisy, pbox, key, victim_defer_us=blamed_defer)
        pbox.blame.clear()

    # ------------------------------------------------------------------
    # Actions (Section 4.4)
    # ------------------------------------------------------------------

    def take_action(self, noisy, victim, key, victim_defer_us=None,
                    flow_id=None):
        """Schedule a penalty on ``noisy`` for deferring ``victim``.

        The penalty is not applied immediately: for dedicated-thread
        pBoxes it is accumulated and delivered by the resume hook at the
        first point where the noisy pBox holds no tracked resource; for
        shared-thread (event-driven) pBoxes it becomes a task-deferral
        window instead.  ``victim_defer_us`` carries the victim's
        effective deferring time (including a still-open wait) to the
        penalty engine's p1 formula and policy chooser.
        """
        if not self.enabled or noisy is victim:
            return
        now = self.kernel.now_us
        if self.self_heal and now < self._safe_until.get(noisy.psid, 0):
            return  # safe-mode release: penalties suspended for cooldown
        if noisy.pending_penalty_us > 0:
            return  # a penalty is already queued and not yet served
        if noisy.shared_thread and now < noisy.penalty_until_us:
            return
        backoff = 0
        if self.self_heal:
            backoff = self._heal_observe(noisy, victim, now)
            if backoff is None:
                return  # safe mode engaged on this observation
        decision = self.penalty_engine.decide(
            now, noisy, victim, key, victim_defer_us=victim_defer_us
        )
        length_us = min(decision.length_us, self.penalty_cap_us)
        if backoff:
            length_us >>= backoff
        if (self.penalty_budget is not None and not noisy.shared_thread
                and self.penalty_mode == "delay"):
            # Shared budget across every shard of the application: the
            # outstanding delay-penalty time is bounded no matter how
            # many tenants detect at once.  A partial grant shortens
            # the penalty; an empty one drops the action (the budget
            # counts the denial -- manager ``stats`` keys are pinned
            # by the golden corpus and must not grow).
            length_us = self.penalty_budget.reserve(length_us)
            if length_us <= 0:
                return
        self.stats["actions"] += 1
        noisy.penalties_received += 1
        noisy.penalty_total_us += length_us
        if self._tp_action.active:
            self._tp_action.fire(now, noisy=noisy, victim=victim, key=key,
                                 length_us=length_us,
                                 victim_defer_us=victim_defer_us,
                                 flow=flow_id)
        if noisy.shared_thread:
            noisy.penalty_until_us = now + length_us
            if self._tp_penalty.active:
                self._tp_penalty.fire(now, pbox=noisy,
                                      delay_us=length_us,
                                      mode="defer-window", flow=flow_id)
        elif self.penalty_mode == "priority" and noisy.thread is not None:
            noisy.thread.demoted_until_us = max(
                noisy.thread.demoted_until_us, now + length_us
            )
            self.stats["penalties_applied"] += 1
            self.stats["penalty_applied_us"] += length_us
            if self._tp_penalty.active:
                self._tp_penalty.fire(now, pbox=noisy,
                                      delay_us=length_us,
                                      mode="demote", flow=flow_id)
        else:
            noisy.pending_penalty_us += length_us
            noisy.pending_penalty_flow = flow_id
            noisy.pending_since_us = now
        victim.blame.clear()

    def _heal_observe(self, noisy, victim, now):
        """Track whether penalizing ``noisy`` is actually helping ``victim``.

        Returns the backoff shift (0 = full-length penalties) to apply to
        the next penalty, or ``None`` when this observation tipped the
        pair into a safe-mode release.  An action "fails" when the
        victim's interference level neither improved since the previous
        action nor sits anywhere near its goal; ``heal_retry_limit``
        consecutive failures raise the backoff level (penalties halve per
        level), and past ``heal_max_backoff`` levels the penalties are
        evidently not the lever that helps this victim -- suspend them
        entirely for a cooldown instead of pounding a pBox to no effect.
        The first ``heal_min_actions`` actions are a grace period: the
        adaptive engine needs a few decisions to converge.
        """
        pair = (noisy.psid, victim.psid)
        state = self._heal_trend.get(pair)
        if state is None:
            state = self._heal_trend[pair] = _HealState()
        level = victim.interference_level(now)
        if level == float("inf"):
            level = 1e9
        state.actions += 1
        previous = state.last_level
        state.last_level = level
        if previous is None or state.actions <= self.heal_min_actions:
            return state.backoff
        improved = level < previous * 0.98
        recovered = level <= victim.rule.goal * 2
        if improved or recovered:
            state.fails = 0
            if state.backoff and improved:
                state.backoff -= 1
            return state.backoff
        state.fails += 1
        if state.fails < self.heal_retry_limit:
            return state.backoff
        state.fails = 0
        state.backoff += 1
        if state.backoff > self.heal_max_backoff:
            state.backoff = 0
            self._safe_until[noisy.psid] = now + self.heal_cooldown_us
            self.stats["safe_mode_releases"] += 1
            if self._tp_heal.active:
                self._tp_heal.fire(now, psid=noisy.psid, action="safe-mode",
                                   detail=self.heal_cooldown_us)
            return None
        self.stats["penalty_backoffs"] += 1
        if self._tp_heal.active:
            self._tp_heal.fire(now, psid=noisy.psid, action="backoff",
                               detail=state.backoff)
        return state.backoff

    def inject_penalty(self, pbox, delay_us):
        """Queue a raw delay penalty, bypassing the engine (fault hook).

        This is the "penalty misfire" surface the chaos harness uses: it
        deliberately skips the decide/cap/backoff pipeline so the resume
        hook's clamp and the invariant checkers are exercised against an
        out-of-policy pending amount.
        """
        pbox.pending_penalty_us += int(delay_us)
        pbox.pending_since_us = self.kernel.now_us

    def is_task_deferred(self, pbox):
        """True while an event-driven pBox's tasks should stay queued."""
        return self.kernel.now_us < pbox.penalty_until_us

    def make_queue_admission(self, pbox_of_item):
        """Build a TaskQueue admission callable.

        ``pbox_of_item(item)`` maps a queued task to its pBox (or None);
        tasks of penalized shared-thread pBoxes are kept in the queue,
        matching the patched accept/epoll behaviour described in
        Section 5.
        """

        def admission(item):
            pbox = pbox_of_item(item)
            if pbox is None:
                return True
            return not self.is_task_deferred(pbox)

        return admission

    def _resume_hook(self, thread):
        """Kernel resume hook: deliver pending penalties at safe points."""
        pbox = thread.pbox
        if pbox is None or pbox.pending_penalty_us <= 0:
            return 0
        if pbox.pending_penalty_us > self.penalty_cap_us:
            # Out-of-policy pending amount: the engine clamps its own
            # decisions, so this is a misfire (or an injected fault).
            # Bound it rather than parking the thread for an unbounded
            # stretch -- "penalties always bounded" is an invariant.
            if self.penalty_budget is not None:
                self.penalty_budget.release(
                    pbox.pending_penalty_us - self.penalty_cap_us)
            pbox.pending_penalty_us = self.penalty_cap_us
            self.stats["penalty_clamped"] += 1
            if self._tp_heal.active:
                self._tp_heal.fire(self.kernel.now_us, psid=pbox.psid,
                                   action="clamp",
                                   detail=self.penalty_cap_us)
        if self.safe_penalty_timing and pbox.holding_anything:
            if self.self_heal:
                now = self.kernel.now_us
                if now - pbox.pending_since_us > self.heal_pending_timeout_us:
                    # No safe point materialized for a whole timeout (the
                    # pBox re-acquires before every resume): decay the
                    # stuck penalty toward a full revert instead of
                    # letting it shadow the pBox forever.
                    decayed = pbox.pending_penalty_us >> 1
                    if self.penalty_budget is not None:
                        self.penalty_budget.release(
                            pbox.pending_penalty_us - decayed)
                    pbox.pending_penalty_us = decayed
                    pbox.pending_since_us = now
                    self.stats["penalty_reverts"] += 1
                    if pbox.pending_penalty_us < 1_000:
                        if self.penalty_budget is not None:
                            self.penalty_budget.release(
                                pbox.pending_penalty_us)
                        pbox.pending_penalty_us = 0
                        pbox.pending_penalty_flow = None
                    if self._tp_heal.active:
                        self._tp_heal.fire(now, psid=pbox.psid,
                                           action="revert",
                                           detail=pbox.pending_penalty_us)
            return 0  # Section 4.4.1: never delay a resource holder
        delay = pbox.pending_penalty_us
        pbox.pending_penalty_us = 0
        if self.penalty_budget is not None:
            self.penalty_budget.release(delay)
        self.stats["penalties_applied"] += 1
        self.stats["penalty_applied_us"] += delay
        if self._tp_penalty.active:
            self._tp_penalty.fire(self.kernel.now_us, pbox=pbox,
                                  delay_us=delay, mode="delay",
                                  flow=pbox.pending_penalty_flow)
        pbox.pending_penalty_flow = None
        return delay

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot_state(self, label=repr):
        """JSON-safe walk of the full manager state (checkpoint walker).

        Pure observation: no tracepoints fire, no psids or flow ids are
        allocated, and every dict iteration is sorted.  The flow-id
        counter is (like the kernel's ``_seq``) deliberately omitted --
        ``itertools.count`` cannot be read without advancing it, and
        replay reconstructs it exactly.
        """
        return {
            "enabled": self.enabled,
            "scan_policy": self.scan_policy,
            "stats": dict(self.stats),
            "scan_stats": dict(self.scan_stats),
            "dirty_psids": sorted(self.dirty_psids),
            "active_psids": sorted(self.active_psids),
            "safe_until": sorted(self._safe_until.items()),
            "heal_trend": sorted(
                ("%s/%s" % pair,
                 [state.last_level, state.fails, state.backoff,
                  state.actions])
                for pair, state in self._heal_trend.items()),
            "competitors": sorted(
                (label(key), [[entry.pbox.psid, entry.time_us]
                              for entry in entries])
                for key, entries in self.competitor_map.items()),
            "last_releaser": sorted(
                (label(key), list(releaser))
                for key, releaser in self.last_releaser.items()),
            "key_holders": sorted(
                (label(key), sorted(holders))
                for key, holders in self._key_holders.items()),
            "pboxes": [self._pboxes[psid].snapshot_state(label)
                       for psid in sorted(self._pboxes)],
            "budget": (None if self.penalty_budget is None
                       else self.penalty_budget.snapshot_state()),
        }
