"""The kernel's timer queue: a zero-delay lane and one binary heap.

Every penalty, sleep, futex timeout and slice end is a timer, as every
``schedule_hrtimeout`` in the paper's kernel patch is an hrtimer, and
Linux keeps hrtimers in one ordered queue per clock base.  So does
this module, with one shortcut for the commonest arm:

====== ================= ====================================
part   holds             order
====== ================= ====================================
lane   ``when <= cursor`` FIFO (a deque), all at the cursor
due    ``when > cursor``  ``(when, seq)`` (a ``heapq`` heap)
====== ================= ====================================

Timers armed *at* the cursor (``when <= cursor``, which includes the
clamp :meth:`TimerWheel.insert` applies) skip the heap: they are
appended to the lane.  In the kernel these are the zero-length slices
-- a woken thread takes a core only to run its post-wake code -- about
half of all slices, which would otherwise each pay a push and a pop
against a heap of ~1,900 entries at 10k threads.

Ordering contract
-----------------

The kernel requires timers to fire in exact ``(when, seq)`` order,
where ``seq`` is the global arm counter -- that ordering is the
bit-for-bit determinism contract the golden-trace corpus pins.  Every
entry is a ``(when, seq, timer)`` tuple, and the due heap orders by it
directly.  No entry is ever filed behind the cursor.

The lane keeps the same order without comparing anything.  Every due
entry whose ``when`` equals the cursor was armed before the cursor got
there (once it is there, arms at that time go to the lane), so its
``seq`` is smaller than any lane entry's.  The lane is FIFO, so its
entries are in ``seq`` order, and all of them sit at the cursor.  A
pop therefore takes, in order: any due entry at the cursor, then the
lane, then the rest of the due heap -- and the cursor moves past the
lane's time only once the lane is empty.  Like the heap, the lane
honours ``limit``: a pop whose limit lies below the cursor fires
nothing.

:meth:`TimerWheel.pop_next` moves the cursor only to the time of an
entry it pops, so the cursor never passes ``limit``.  An insert below
the cursor is clamped to it.  The kernel arms timers at
``>= clock.now_us``, and its clock never runs behind the cursor.

Why the name stays
------------------

Until the queue took this shape it was a hierarchical wheel: the
lane, a heap for the cursor's 1024 us block, three cascading
1024-slot levels with occupancy bitmaps, and an overflow heap.  The
benchmark's own traffic never needed the levels.  At 10k threads
(``scale-cfs``) the whole pending population was ~1,900 timers, close
to what the near-term heap alone held; one in ten arms detoured
through level 1 for a list append and a cascade push, and levels 2 and
3 and the overflow heap took 63 inserts across the whole golden corpus
(docs/PERFORMANCE.md, "One timer queue").  The module, the class and
its ``insert``/``pop_next`` keep their names because the per-layer
benchmark trace (``bench/layers.py``) wraps them, and because
:meth:`~TimerWheel.pop_next` is the reference ``Kernel.run`` inlines
and ``tests/test_timerwheel_properties.py`` checks against a plain
heap.
"""

from collections import deque
from heapq import heappop, heappush
from itertools import chain


class TimerWheel:
    """Zero-delay lane + one ``(when, seq, timer)`` heap.

    ``timer`` carries a ``cancelled`` flag; cancelled entries are
    lazily discarded when popped.  ``len(queue)`` counts pending
    entries including cancelled ones (the kernel's deadlock check
    relies on that: a cancelled-but-undrained timer still keeps the
    event loop alive).
    """

    __slots__ = ("_cur", "_lane", "_due")

    def __init__(self):
        self._cur = 0
        self._lane = deque()
        self._due = []

    def __len__(self):
        return len(self._lane) + len(self._due)

    def insert(self, when, seq, timer):
        """Arm ``timer`` at integer microsecond ``when``."""
        cur = self._cur
        if when <= cur:
            self._lane.append((cur, seq, timer))
        else:
            heappush(self._due, (when, seq, timer))

    def pop_next(self, limit):
        """Pop the earliest live entry with ``when <= limit``.

        Returns ``(when, timer)`` with ``timer.cancelled`` False, or
        ``None`` when nothing is due by ``limit``.  Cancelled entries
        encountered on the way are silently drained.
        """
        due = self._due
        lane = self._lane
        while True:
            if lane:
                # Due entries at the cursor were armed before it got
                # there, so they precede the lane (module docstring).
                when = self._cur
                if when > limit:
                    return None
                if due and due[0][0] == when:
                    entry = heappop(due)
                else:
                    entry = lane.popleft()
            elif due:
                entry = due[0]
                when = entry[0]
                if when > limit:
                    return None
                heappop(due)
                self._cur = when
            else:
                return None
            timer = entry[2]
            if not timer.cancelled:
                return when, timer

    def has_live_timer(self):
        """True while any non-cancelled entry is pending (watchdog)."""
        return any(not timer.cancelled
                   for _when, _seq, timer in chain(self._lane, self._due))

    def snapshot_entries(self):
        """Live ``(when, seq)`` pairs in firing order (checkpoint walker).

        Pure observation for the checkpoint state walk: it keeps each
        entry's arm sequence number, so a checkpoint records the exact
        in-flight event ordering without consuming the kernel's arm
        counter.  Cancelled entries are excluded -- they can never
        fire, so two runs that differ only in drained-vs-undrained
        cancellations still walk identically.
        """
        return sorted((when, seq) for when, seq, timer
                      in chain(self._lane, self._due)
                      if not timer.cancelled)

    def pending(self):
        """Snapshot of all pending ``(when, timer)`` entries (tests)."""
        return [(when, timer) for when, _seq, timer
                in chain(self._lane, self._due)]
