"""Run-queue and core bookkeeping for the simulated kernel.

Two scheduler policies live behind one seam (:class:`SchedPolicy`):

- ``cfs`` (:class:`RunQueue`, the default): round-robin FIFO with a
  fixed quantum over N cores -- deliberately simple, because the
  paper's point does not depend on CFS subtleties.  What matters is
  that CPU time is a schedulable, partitionable resource so hardware-
  centric baselines (cgroup, PARTIES, DARC) act on the dimension they
  act on in reality, while virtual-resource waits stay untouched by
  them.
- ``eevdf`` (:class:`EevdfRunQueue`): an EEVDF-style virtual-deadline
  policy (Earliest Eligible Virtual Deadline First, the post-6.6 Linux
  default) for the scheduler-interaction experiments: threads carry a
  virtual runtime, a push computes an eligible time and a virtual
  deadline, and a core picks the earliest deadline among eligible
  threads.

Both policies expose the same protocol (``push`` / ``push_front`` /
``pick_for_core`` / ``remove`` / ``threads``) plus two capability
attributes the kernel reads once at construction:

- ``fifo_fast_path``: True when the kernel's inlined head-of-queue
  dispatch shortcut is behaviourally identical to ``pick_for_core``
  (true only for the FIFO policy).  The CFS hot path is untouched by
  the seam -- the golden corpus pins that bit-for-bit.
- ``charge(thread, ran_us)`` (optional): invoked at every slice end
  with the CPU actually consumed, so a policy can account virtual
  runtime.  Policies without the attribute pay nothing.

Determinism: a policy may only consult the thread fields the kernel
maintains (never wall-clock or iteration order of a set), must break
ties by queue arrival order, and must keep all arithmetic in integer
microseconds -- the same contract the kernel documents.
"""

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count
from operator import itemgetter

from repro.sim.thread import ThreadState

DEFAULT_QUANTUM_US = 1_000


class Core:
    """One simulated CPU core."""

    def __init__(self, index):
        self.index = index
        self.running = None        # SimThread or None
        self.slice_end_event = None
        self.busy_us = 0           # lifetime utilization accounting
        self.reserved_for = None   # tag used by the DARC baseline
        # Reusable slice-end timer (allocated once by the kernel); a core
        # has at most one slice in flight, so the same heap entry object
        # can be re-armed every context switch instead of allocating a
        # fresh timer + closure per slice.
        self._slice_timer = None
        self._slice_started_us = 0

    @property
    def idle(self):
        """True when no thread occupies the core."""
        return self.running is None

    def __repr__(self):
        return "Core(index=%d, running=%r)" % (self.index, self.running)


class SchedPolicy:
    """Protocol shared by the pluggable run-queue policies.

    Subclasses own a ``_queue`` container holding exactly the queued
    threads (a deque for FIFO, a heap of entries for EEVDF): the
    kernel's dispatch loop tests its truthiness directly and
    ``len(policy)`` reads its length.  They implement the push/pick
    methods; the bookkeeping helpers below assume a container of bare
    threads in queue order and are overridden otherwise.
    """

    #: Policy name as selected by ``Kernel(sched=...)``.
    name = "base"

    #: True when the kernel's inlined head-of-queue dispatch shortcut
    #: (pop the head if it has no affinity, no demotion, and the core
    #: has no reservation) is equivalent to ``pick_for_core``.
    fifo_fast_path = False

    #: ``pick_for_core`` calls that fell past the policy's head-of-queue
    #: shortcut into a scan of the whole queue (affinity, DARC
    #: reservation or demotion in play).  Host-cost telemetry only:
    #: kept out of ``Kernel.stats`` and of checkpoint state.
    slow_picks = 0

    def __len__(self):
        return len(self._queue)

    def _now(self):
        """Current virtual time (patched in by the kernel at attach)."""
        return 0

    def remove(self, thread):
        """Remove ``thread`` if queued; returns True if it was present."""
        try:
            self._queue.remove(thread)
        except ValueError:
            return False
        return True

    def threads(self):
        """Snapshot of queued threads."""
        return list(self._queue)


class RunQueue(SchedPolicy):
    """Global FIFO ready queue with affinity-aware picking (``cfs``)."""

    name = "cfs"
    fifo_fast_path = True

    def __init__(self):
        self._queue = deque()

    def push(self, thread):
        """Append a READY thread."""
        thread.state = ThreadState.READY
        self._queue.append(thread)

    def push_front(self, thread):
        """Prepend a READY thread (used when a slice is handed back)."""
        thread.state = ThreadState.READY
        self._queue.appendleft(thread)

    def pick_for_core(self, core):
        """Dequeue the first thread eligible to run on ``core``.

        Eligibility combines the thread's affinity mask and the core's
        reservation tag (a DARC-reserved core only accepts threads whose
        ``darc_tag`` matches).  Demoted threads (the priority-penalty
        extension) are only picked when no normal thread fits, and they
        keep FIFO order among themselves.  Returns ``None`` when
        nothing fits.
        """
        queue = self._queue
        if not queue:
            return None
        # Fast path: the head thread has no affinity mask, the core has
        # no DARC reservation, and the thread was never demoted -- the
        # overwhelmingly common case in every Table 3 scenario.
        head = queue[0]
        if (core.reserved_for is None and head.affinity is None
                and not head.demoted_until_us):
            queue.popleft()
            return head
        self.slow_picks += 1
        now = self._now()
        demoted_index = None
        for i, thread in enumerate(queue):
            if thread.affinity is not None and core.index not in thread.affinity:
                continue
            if core.reserved_for is not None:
                tag = getattr(thread, "darc_tag", None)
                if tag != core.reserved_for:
                    continue
            if thread.demoted_until_us > now:
                if demoted_index is None:
                    demoted_index = i
                continue
            del self._queue[i]
            return thread
        if demoted_index is not None:
            thread = self._queue[demoted_index]
            del self._queue[demoted_index]
            return thread
        return None


class EevdfRunQueue(SchedPolicy):
    """EEVDF-style virtual-deadline ready queue (``eevdf``).

    Simplified single-weight EEVDF: the queue keeps a virtual clock
    ``vtime_us``; a push *places* the thread -- its vruntime catches up
    to the virtual clock if it fell behind (the ``place_entity`` rule:
    sleepers and newborns must not hoard an unbounded lag claim) --
    then stamps eligible time = vruntime and virtual deadline =
    eligible + slice.  A core picks the earliest deadline among
    *eligible* threads (``eligible <= vtime``), so a thread that was
    preempted mid-burst (vruntime ahead of the clock) waits while
    fresh, behind-the-clock threads leapfrog it -- the lag semantics
    that distinguish EEVDF from the FIFO policy.  Work conservation is
    explicit: when every feasible thread is still ineligible, the
    virtual clock jumps forward to the first eligible point rather
    than idling the core.  Every quantity is an integer microsecond,
    so the policy inherits the kernel's bit-for-bit determinism
    contract.

    Layout: ``_queue`` is one binary min-heap of ``(v_deadline_us,
    rank, thread)`` entries holding exactly the queued threads (no
    lazy deletion -- the kernel truth-tests it and :meth:`charge`
    reads its length as the runnable count).  ``rank`` comes from one
    counter: ``push`` takes ``+n`` and ``push_front`` takes ``-n``, so
    sorting by rank reproduces FIFO queue order exactly and deadline
    ties break by queue position.  Ranks are unique, so the heap never
    compares threads.

    One heap suffices because every queued thread carries ``v_deadline
    == v_eligible + slice_us`` (one slice for all threads, stamped at
    push and never touched while queued): deadline order *is*
    eligibility order.  After the work-conserving clock jump to the
    smallest feasible eligible time, that thread is eligible and holds
    the smallest deadline, so the earliest eligible deadline is simply
    the smallest key.  Per-thread weights or slices would break the
    invariant and need a second heap keyed by eligible time.

    Picks cost O(log n): one ``heappop`` whenever the core has no DARC
    reservation and the heap head has no affinity mask and is not
    demoted.  Otherwise a counted slow path (``slow_picks``) makes one
    pass over the heap for the smallest feasible non-demoted entry
    (with the clock jump), falling back to the smallest feasible
    demoted entry (no jump), then removes it and re-heapifies.

    Invariants the property suite pins (tests/test_sched_policies.py):

    - deadlines are monotone per thread (eligible times never move
      backwards: ``vruntime`` and ``vtime`` only grow);
    - no starvation: a picked thread's vruntime grows by the service
      it received, so a waiting thread's fixed deadline eventually
      becomes the minimum;
    - work conservation: ``pick_for_core`` returns a thread whenever
      any feasible (affinity/reservation) thread is queued.
    """

    name = "eevdf"
    fifo_fast_path = False

    def __init__(self, slice_us=DEFAULT_QUANTUM_US):
        self._queue = []
        self._ranks = count(1)
        self.slice_us = slice_us
        self.vtime_us = 0

    def _enter(self, thread):
        thread.state = ThreadState.READY
        if thread.vruntime_us < self.vtime_us:
            # place_entity: a thread that slept (or was just born)
            # re-enters at the virtual clock instead of cashing in the
            # lag it accumulated off-CPU.
            thread.vruntime_us = self.vtime_us
        thread.v_eligible_us = thread.vruntime_us
        thread.v_deadline_us = thread.vruntime_us + self.slice_us

    def push(self, thread):
        """Stamp eligibility/deadline and queue a READY thread last."""
        self._enter(thread)
        heappush(self._queue,
                 (thread.v_deadline_us, next(self._ranks), thread))

    def push_front(self, thread):
        """Handed-back slice: same stamping, earlier tie-break rank."""
        self._enter(thread)
        heappush(self._queue,
                 (thread.v_deadline_us, -next(self._ranks), thread))

    def charge(self, thread, ran_us):
        """Account ``ran_us`` of service against the virtual clocks.

        The thread's vruntime advances by its service; the queue's
        virtual clock advances by the service spread over the runnable
        population (single-weight fair rate).  The explicit jump in
        ``pick_for_core`` keeps work conservation independent of this
        rate's rounding.
        """
        if ran_us <= 0:
            return
        thread.vruntime_us += ran_us
        runnable = len(self._queue) + 1
        self.vtime_us += max(1, ran_us // runnable)

    def _feasible(self, thread, core, reserved):
        if thread.affinity is not None and core.index not in thread.affinity:
            return False
        if reserved is not None:
            if getattr(thread, "darc_tag", None) != reserved:
                return False
        return True

    def _take(self, index):
        """Remove the heap entry at ``index``; returns its thread."""
        queue = self._queue
        thread = queue[index][2]
        last = queue.pop()
        if index < len(queue):
            queue[index] = last
            heapify(queue)
        return thread

    def pick_for_core(self, core):
        """Dequeue the earliest-deadline eligible thread for ``core``.

        Demoted threads are only picked when no normal feasible thread
        exists, mirroring the FIFO policy's demotion semantics (with
        min-deadline order among the demoted).
        """
        queue = self._queue
        if not queue:
            return None
        head = queue[0][2]
        if (core.reserved_for is None and head.affinity is None
                and (not head.demoted_until_us
                     or head.demoted_until_us <= self._now())):
            heappop(queue)
            if self.vtime_us < head.v_eligible_us:
                # Work conservation: never idle a core while a feasible
                # thread is queued -- jump the virtual clock to the
                # first eligible point.
                self.vtime_us = head.v_eligible_us
            return head
        self.slow_picks += 1
        now = self._now()
        reserved = core.reserved_for
        best = demoted = None
        for index, entry in enumerate(queue):
            thread = entry[2]
            if not self._feasible(thread, core, reserved):
                continue
            if thread.demoted_until_us > now:
                if demoted is None or entry < queue[demoted]:
                    demoted = index
            elif best is None or entry < queue[best]:
                best = index
        if best is not None:
            thread = self._take(best)
            if self.vtime_us < thread.v_eligible_us:
                self.vtime_us = thread.v_eligible_us
            return thread
        if demoted is not None:
            return self._take(demoted)
        return None

    def remove(self, thread):
        """Remove ``thread`` if queued; returns True if it was present."""
        for index, entry in enumerate(self._queue):
            if entry[2] is thread:
                self._take(index)
                return True
        return False

    def threads(self):
        """Queued threads in queue (rank) order."""
        return [entry[2] for entry in sorted(self._queue,
                                             key=itemgetter(1))]

    def snapshot_state(self):
        """JSON-safe policy state (checkpoint walker)."""
        return {
            "vtime_us": self.vtime_us,
            "queued": [
                (t.tid, t.vruntime_us, t.v_eligible_us, t.v_deadline_us)
                for t in self.threads()
            ],
        }


#: Selectable scheduler policies (``Kernel(sched=...)``, case specs,
#: ``repro scale --sched``).
SCHED_POLICIES = {
    "cfs": RunQueue,
    "eevdf": EevdfRunQueue,
}


def make_run_queue(sched="cfs"):
    """Instantiate the run-queue policy registered under ``sched``."""
    try:
        policy = SCHED_POLICIES[sched]
    except KeyError:
        raise ValueError(
            "unknown scheduler policy %r; known: %s"
            % (sched, sorted(SCHED_POLICIES))
        ) from None
    return policy()
