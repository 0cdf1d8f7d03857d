"""The pBox object: per-domain state kept by the kernel manager.

A pBox is a performance isolation domain.  Its lifecycle (Section 4.3.2)
is start -> (activate -> freeze)* -> destroy: a connection-scoped pBox is
*activated* once per request it handles and *frozen* when the request
finishes; tracing only happens while active.
"""

import enum
from collections import deque


class PBoxStatus(enum.Enum):
    """Lifecycle states tracked by the manager (Section 4.3.2)."""

    START = "start"
    ACTIVE = "active"
    FROZEN = "frozen"
    DESTROYED = "destroyed"


#: The members as module names, the same objects (see
#: ``repro.sim.thread``).
START, ACTIVE, FROZEN, DESTROYED = PBoxStatus


class ActivityRecord:
    """Summary of one finished activity: defer and execution time."""

    __slots__ = ("defer_us", "exec_us")

    def __init__(self, defer_us, exec_us):
        self.defer_us = defer_us
        self.exec_us = exec_us

    def __repr__(self):
        return "ActivityRecord(defer_us=%d, exec_us=%d)" % (
            self.defer_us,
            self.exec_us,
        )


class PBox:
    """One performance isolation domain.

    Created by :meth:`repro.core.manager.PBoxManager.create`; application
    code talks to it through the runtime APIs, never directly.
    """

    HISTORY_WINDOW = 64

    def __init__(self, psid, rule, thread=None):
        self.psid = psid
        self.rule = rule
        self.status = START
        self.thread = thread

        # --- current-activity accounting -------------------------------
        self.activity_start_us = None
        self.defer_time_us = 0          # Td accumulated in this activity
        self.holders = {}               # resource key -> hold start time
        self.prepares = {}              # resource key -> prepare time (open)

        # --- cross-activity accounting ---------------------------------
        self.history = deque(maxlen=self.HISTORY_WINDOW)
        self.activities_completed = 0
        self.total_defer_us = 0
        self.total_exec_us = 0

        # --- blame: who deferred us, for pBox-level detection ----------
        self.blame = {}                 # noisy psid -> accumulated defer us

        # --- penalty state ----------------------------------------------
        self.pending_penalty_us = 0     # delay to apply at next safe point
        self.pending_penalty_flow = None  # flow id linking detect -> penalty
        self.pending_since_us = 0       # when the pending amount was queued
        self.penalty_until_us = 0       # event-driven: defer queued tasks
        self.penalties_received = 0
        self.penalty_total_us = 0

        # --- event-driven binding ---------------------------------------
        self.shared_thread = False      # bound thread is shared (flag)
        self.detached = False           # lazily unbound (library-side)

    # ------------------------------------------------------------------
    # Interference-level math (Section 4.3.1)
    # ------------------------------------------------------------------

    def exec_time_us(self, now_us):
        """Execution time Te of the current activity so far."""
        if self.activity_start_us is None:
            return 0
        return now_us - self.activity_start_us

    def interference_level(self, now_us, extra_defer_us=0):
        """Approximate current interference level tf = td / (te - td).

        ``extra_defer_us`` lets Algorithm 1 include a still-open defer
        (the waiter has PREPAREd but not yet ENTERed).  Returns ``inf``
        when deferring dominates the whole execution.
        """
        td = self.defer_time_us + extra_defer_us
        te = self.exec_time_us(now_us)
        if td <= 0:
            return 0.0
        if te <= td:
            return float("inf")
        return td / (te - td)

    def average_interference_level(self):
        """Mean interference level over the activity history window."""
        td = sum(rec.defer_us for rec in self.history)
        te = sum(rec.exec_us for rec in self.history)
        if td <= 0:
            return 0.0
        if te <= td:
            return float("inf")
        return td / (te - td)

    def max_interference_level(self):
        """Max per-activity interference level over the history window."""
        worst = 0.0
        for rec in self.history:
            if rec.defer_us <= 0:
                continue
            if rec.exec_us <= rec.defer_us:
                return float("inf")
            worst = max(worst, rec.defer_us / (rec.exec_us - rec.defer_us))
        return worst

    def tail_interference_level(self):
        """95th-percentile per-activity interference level (history)."""
        levels = []
        for rec in self.history:
            if rec.defer_us <= 0:
                levels.append(0.0)
            elif rec.exec_us <= rec.defer_us:
                levels.append(float("inf"))
            else:
                levels.append(rec.defer_us / (rec.exec_us - rec.defer_us))
        if not levels:
            return 0.0
        levels.sort()
        index = min(len(levels) - 1, int(0.95 * len(levels)))
        return levels[index]

    def defer_ratio(self):
        """Lifetime defer ratio s = sum(Td) / sum(Te).

        This is the ``s(i)`` quantity the adaptive penalty compares
        across actions (Section 4.4.2).
        """
        if self.total_exec_us <= 0:
            return 0.0
        return self.total_defer_us / self.total_exec_us

    @property
    def holding_anything(self):
        """True while the pBox holds at least one tracked resource.

        The manager refuses to apply a delay penalty while this is true
        (Section 4.4.1: penalizing a holder makes victims wait longer).
        """
        return bool(self.holders)

    def snapshot_state(self, label=repr):
        """JSON-safe walk of the pBox (checkpoint walker).

        Resource keys render through ``label`` for cross-process
        stability; everything keyed by a dict is sorted so insertion
        order never leaks into the walk.
        """
        return {
            "psid": self.psid,
            "rule": self.rule.to_dict(),
            "status": self.status.value,
            "thread": None if self.thread is None else self.thread.tid,
            "activity_start_us": self.activity_start_us,
            "defer_time_us": self.defer_time_us,
            "holders": sorted((label(key), t)
                              for key, t in self.holders.items()),
            "prepares": sorted((label(key), t)
                               for key, t in self.prepares.items()),
            "history": [[rec.defer_us, rec.exec_us] for rec in self.history],
            "activities_completed": self.activities_completed,
            "total_defer_us": self.total_defer_us,
            "total_exec_us": self.total_exec_us,
            "blame": sorted(("%s/%s" % (psid, label(key)), us)
                            for (psid, key), us in self.blame.items()),
            "pending_penalty_us": self.pending_penalty_us,
            "pending_since_us": self.pending_since_us,
            "penalty_until_us": self.penalty_until_us,
            "penalties_received": self.penalties_received,
            "penalty_total_us": self.penalty_total_us,
            "shared_thread": self.shared_thread,
            "detached": self.detached,
        }

    def __repr__(self):
        return "PBox(psid=%d, status=%s, goal=%.2f)" % (
            self.psid,
            self.status.value,
            self.rule.goal,
        )
