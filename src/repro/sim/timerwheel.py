"""Hierarchical timer wheel: the kernel's event queue at scale.

Replaces the single global ``heapq`` of ``(when, seq, timer)`` entries.
A binary heap costs O(log n) per arm/fire with n pending timers; at 10k
threads every context switch re-arms a slice timer against thousands of
pending sleeps, and the log factor (plus tuple comparisons) dominates
the event loop.  The wheel bounds the comparison work to the timers of
the current 1024 us block, making arm/fire O(1)-ish in total pending
count.

Layout -- a zero-delay lane, a near-term "due" heap, three
block-aligned far levels and an overflow heap:

======== ================= =================== =====================
tier     granularity        capacity            span
======== ================= =================== =====================
lane     the cursor (FIFO)  unbounded           0 us
due      exact (heap)       current block       ~1 ms
level 1  1024 us            1024 slots          ~1.05 s
level 2  ~1.05 s            1024 slots          ~17.9 min
level 3  ~17.9 min          1024 slots          ~12.7 days
overflow exact (heap)       unbounded           beyond 2^40 us
======== ================= =================== =====================

Timers within the cursor's 1024 us block live in a small binary heap
("due"), so the hot pop/arm paths run at C ``heapq`` speed over a
bounded population.  Further-out timers sit untouched in wheel slots
(one list append) until the cursor enters their block and a cascade
heap-pushes them into ``due``.  Far-level occupancy is tracked in int
bitmaps, so skipping empty time is one bit-scan per level.

Timers armed *at* the cursor (``when <= cursor``, which includes the
clamp :meth:`TimerWheel.insert` applies) skip the heap: they are
appended to the "lane", a deque.  In the kernel these are the
zero-length slices -- a woken thread takes a core only to run its
post-wake code -- about half of all slices, which would otherwise each
pay a push and a pop against a due heap of ~1,500 entries at 10k
threads.

Ordering contract (what makes the wheel a drop-in for the heap)
---------------------------------------------------------------

The kernel requires timers to fire in exact ``(when, seq)`` order,
where ``seq`` is the global arm counter -- that ordering is the
bit-for-bit determinism contract the golden-trace corpus pins.  Every
entry is a ``(when, seq, timer)`` tuple; the ``due`` and overflow heaps
order by it directly, and the far levels are *block-aligned*: an entry
is placed at level L only when its time shares the cursor's level-(L+1)
block, so a block's entries are all present in their slot before the
cursor can enter the block and cascade them.  No entry can ever be
filed behind the cursor.

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

Cursor contract
---------------

:meth:`pop_next` advances the cursor to each entry it returns, and --
while hunting across empty regions -- possibly up to (never past)
``limit`` even when it returns ``None``.  Callers must therefore never
arm a timer earlier than the ``limit`` of a ``pop_next`` that returned
``None``; an insert below the cursor is clamped to the cursor.  The
kernel satisfies this by construction: timers are armed at
``>= clock.now_us``, and ``run(until_us)`` advances the clock to
``until_us`` the moment the wheel reports nothing due, so the clock is
always at or ahead of the cursor when user code runs.
"""

from collections import deque
from heapq import heappop, heappush

_MASK = 1023


class TimerWheel:
    """Hybrid timer wheel: zero-delay lane + near-term heap + three far
    levels + overflow.

    Entries are ``(when, seq, timer)`` tuples where ``timer`` carries a
    ``cancelled`` flag; cancelled entries are lazily discarded when
    popped, exactly as the heap implementation did.  ``len(wheel)``
    counts pending entries including cancelled ones (the kernel's
    deadlock check relies on that: a cancelled-but-undrained timer
    still keeps the event loop alive).
    """

    __slots__ = ("_cur", "_count", "_lane", "_due", "_occ1", "_occ2",
                 "_occ3", "_slots1", "_slots2", "_slots3", "_overflow")

    def __init__(self):
        self._cur = 0
        self._count = 0
        self._lane = deque()
        self._due = []
        self._occ1 = 0
        self._occ2 = 0
        self._occ3 = 0
        self._slots1 = [None] * 1024
        self._slots2 = [None] * 1024
        self._slots3 = [None] * 1024
        self._overflow = []

    def __len__(self):
        return self._count

    def __bool__(self):
        return self._count > 0

    # -- arming ----------------------------------------------------------

    def insert(self, when, seq, timer):
        """Arm ``timer`` at integer microsecond ``when``."""
        self._count += 1
        cur = self._cur
        if when <= cur:
            self._lane.append((cur, seq, timer))
            return
        delta = when ^ cur  # block-sharing test: same 2^k block <=> xor < 2^k
        if delta < 1024:
            heappush(self._due, (when, seq, timer))
        elif delta < 1 << 20:
            i = (when >> 10) & _MASK
            slot = self._slots1[i]
            if slot is None:
                slot = self._slots1[i] = []
            slot.append((when, seq, timer))
            self._occ1 |= 1 << i
        elif delta < 1 << 30:
            i = (when >> 20) & _MASK
            slot = self._slots2[i]
            if slot is None:
                slot = self._slots2[i] = []
            slot.append((when, seq, timer))
            self._occ2 |= 1 << i
        elif delta < 1 << 40:
            i = (when >> 30) & _MASK
            slot = self._slots3[i]
            if slot is None:
                slot = self._slots3[i] = []
            slot.append((when, seq, timer))
            self._occ3 |= 1 << i
        else:
            heappush(self._overflow, (when, seq, timer))

    # -- firing ----------------------------------------------------------

    def pop_next(self, limit):
        """Pop the globally earliest live entry with ``when <= limit``.

        Returns ``(when, timer)`` with ``timer.cancelled`` False, or
        ``None`` when nothing is due by ``limit``.  Cancelled entries
        encountered on the way are silently drained.  The cursor is
        never advanced past ``limit``.
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
                self._count -= 1
                timer = entry[2]
                if timer.cancelled:
                    continue
                return when, timer
            while due:
                entry = due[0]
                when = entry[0]
                if when > limit:
                    return None
                heappop(due)
                self._count -= 1
                self._cur = when
                timer = entry[2]
                if timer.cancelled:
                    continue
                return when, timer
            if not self._count or not self._hunt(limit):
                return None

    def _hunt(self, limit):
        """Advance the cursor to the next populated block (<= limit).

        Consults level 1..3 occupancy then the overflow heap; cascades
        the block it lands in into ``due`` (and intermediate levels).
        Returns False when the next pending entry lies beyond ``limit``
        (cursor is left untouched, still <= limit).
        """
        cur = self._cur
        due = self._due
        m = self._occ1 >> (((cur >> 10) & _MASK) + 1)
        if m:
            j = ((cur >> 10) & _MASK) + 1 + (m & -m).bit_length() - 1
            base = ((cur >> 20) << 20) | (j << 10)
            if base > limit:
                return False
            self._cur = base
            self._occ1 &= ~(1 << j)
            slot = self._slots1[j]
            self._slots1[j] = None
            for entry in slot:
                heappush(due, entry)
            return True
        m = self._occ2 >> (((cur >> 20) & _MASK) + 1)
        if m:
            j = ((cur >> 20) & _MASK) + 1 + (m & -m).bit_length() - 1
            base = ((cur >> 30) << 30) | (j << 20)
            if base > limit:
                return False
            self._cur = base
            self._occ2 &= ~(1 << j)
            slot = self._slots2[j]
            self._slots2[j] = None
            for entry in slot:
                self._refile(entry)
            return True
        m = self._occ3 >> (((cur >> 30) & _MASK) + 1)
        if m:
            j = ((cur >> 30) & _MASK) + 1 + (m & -m).bit_length() - 1
            base = ((cur >> 40) << 40) | (j << 30)
            if base > limit:
                return False
            self._cur = base
            self._occ3 &= ~(1 << j)
            slot = self._slots3[j]
            self._slots3[j] = None
            for entry in slot:
                self._refile(entry)
            return True
        overflow = self._overflow
        if overflow:
            base = (overflow[0][0] >> 40) << 40
            if base > limit:
                return False
            self._cur = base
            block = base >> 40
            while overflow and (overflow[0][0] >> 40) == block:
                self._refile(heappop(overflow))
            return True
        return False

    def _refile(self, entry):
        """Re-file a cascaded entry (count already includes it).

        Cascades only move entries toward ``due`` (the cursor got
        closer), so the overflow branch is unreachable here.
        """
        when = entry[0]
        delta = when ^ self._cur
        if delta < 1024:
            heappush(self._due, entry)
        elif delta < 1 << 20:
            i = (when >> 10) & _MASK
            slot = self._slots1[i]
            if slot is None:
                slot = self._slots1[i] = []
            slot.append(entry)
            self._occ1 |= 1 << i
        elif delta < 1 << 30:
            i = (when >> 20) & _MASK
            slot = self._slots2[i]
            if slot is None:
                slot = self._slots2[i] = []
            slot.append(entry)
            self._occ2 |= 1 << i
        else:
            i = (when >> 30) & _MASK
            slot = self._slots3[i]
            if slot is None:
                slot = self._slots3[i] = []
            slot.append(entry)
            self._occ3 |= 1 << i

    # -- introspection ---------------------------------------------------

    def has_live_timer(self):
        """True while any non-cancelled entry is pending (watchdog)."""
        for _when, timer in self.pending():
            if not timer.cancelled:
                return True
        return False

    def snapshot_entries(self):
        """Live ``(when, seq)`` pairs in firing order (checkpoint walker).

        Pure observation for the checkpoint state walk: iterates the
        same structures :meth:`pending` does but keeps each entry's arm
        sequence number, so a checkpoint records the exact in-flight
        event ordering without consuming the kernel's arm counter.
        Cancelled entries are excluded -- they can never fire, so two
        runs that differ only in drained-vs-undrained cancellations
        still walk identically.
        """
        entries = []
        for heap in (self._lane, self._due, self._overflow):
            entries.extend((when, seq) for when, seq, timer in heap
                           if not timer.cancelled)
        for slots, occ in ((self._slots1, self._occ1),
                           (self._slots2, self._occ2),
                           (self._slots3, self._occ3)):
            m = occ
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                entries.extend((when, seq) for when, seq, timer in slots[i]
                               if not timer.cancelled)
        entries.sort()
        return entries

    def pending(self):
        """Snapshot of all pending ``(when, timer)`` entries (tests)."""
        entries = [(when, timer) for when, _seq, timer in self._lane]
        entries.extend((when, timer) for when, _seq, timer in self._due)
        for slots, occ in ((self._slots1, self._occ1),
                           (self._slots2, self._occ2),
                           (self._slots3, self._occ3)):
            m = occ
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                entries.extend(
                    (when, timer) for when, _seq, timer in slots[i])
        entries.extend((when, timer) for when, _seq, timer in self._overflow)
        return entries
