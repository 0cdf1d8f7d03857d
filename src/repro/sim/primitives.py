"""Blocking synchronization primitives built on the simulated futex.

Application models use these the way real servers use pthread primitives;
per the paper's heuristic (Section 4.2.2), these are exactly the places
where intra-app interference surfaces -- a victim activity parked in a
waiting-related syscall because of a shared virtual resource.

All ``acquire``-style operations are generators and must be driven with
``yield from``; ``release``-style operations are plain calls (they only
wake other threads, never block).
"""

from collections import deque

from repro.sim.syscalls import FutexWait

_EMPTY = object()


class Mutex:
    """A mutual-exclusion lock with futex-style barging.

    Like a pthread mutex, a releasing thread wakes one waiter but does not
    hand the lock over: a running thread can barge in first.  Holder
    identity is tracked so application models (and tests) can assert who
    owns a resource, and registered with the kernel's wait-queue table so
    blocking tracepoints can name the holder (contention attribution).
    """

    def __init__(self, kernel, name=None):
        self._kernel = kernel
        self.name = name or "mutex"
        self._owner = None

    def _register_owner(self):
        self._kernel.futexes.add_owner(self, self._owner)

    @property
    def locked(self):
        """True while some thread holds the lock."""
        return self._owner is not None

    @property
    def holder(self):
        """The :class:`SimThread` holding the lock, or ``None``."""
        return self._owner

    def acquire(self):
        """Block until the lock is held by the calling thread."""
        while self._owner is not None:
            yield FutexWait(self)
        self._owner = self._kernel.current_thread
        self._register_owner()

    def try_acquire(self):
        """Take the lock if free; returns True on success."""
        if self._owner is None:
            self._owner = self._kernel.current_thread
            self._register_owner()
            return True
        return False

    def release(self):
        """Release the lock and wake one waiter."""
        if self._owner is None:
            raise RuntimeError("releasing unlocked mutex %r" % self.name)
        self._kernel.futexes.remove_owner(self, self._owner)
        self._owner = None
        self._kernel.futex_wake(self, 1)

    def _on_owner_death(self, thread, holds):
        """Robust-futex recovery: a holder died without releasing.

        The kernel calls this after purging the dead thread from the
        wait-queue owner registry (``WaitQueueTable.purge_owner``); the
        hold counts were already dropped there, so this only has to fix
        the primitive's own state and unblock waiters.
        """
        if self._owner is thread:
            self._owner = None
            self._kernel.futex_wake(self, 1)

    def __repr__(self):
        return "Mutex(name=%r, locked=%s)" % (self.name, self.locked)


class RWLock:
    """Reader-writer lock (the model for PostgreSQL LWLocks).

    ``policy`` selects fairness:

    - ``"reader_pref"``: readers enter whenever no writer holds the lock;
      a stream of readers starves writers (this is what interference case
      c8 exploits).
    - ``"writer_pref"``: new readers queue behind waiting writers.
    """

    def __init__(self, kernel, name=None, policy="reader_pref"):
        if policy not in ("reader_pref", "writer_pref"):
            raise ValueError("unknown policy %r" % policy)
        self._kernel = kernel
        self.name = name or "rwlock"
        self.policy = policy
        self._readers = 0
        self._writer = None
        self._writers_waiting = 0

    @property
    def reader_count(self):
        """Number of threads currently holding the lock in shared mode."""
        return self._readers

    @property
    def writer(self):
        """Thread holding the lock exclusively, or ``None``."""
        return self._writer

    def acquire_shared(self):
        """Block until the lock is held in shared mode."""
        while self._blocked_for_reader():
            yield FutexWait(self)
        self._readers += 1
        self._kernel.futexes.add_owner(self, self._kernel.current_thread)

    def _blocked_for_reader(self):
        if self._writer is not None:
            return True
        if self.policy == "writer_pref" and self._writers_waiting > 0:
            return True
        return False

    def acquire_exclusive(self):
        """Block until the lock is held exclusively."""
        self._writers_waiting += 1
        try:
            while self._writer is not None or self._readers > 0:
                yield FutexWait(self)
            self._writer = self._kernel.current_thread
            self._kernel.futexes.add_owner(self, self._writer)
        finally:
            self._writers_waiting -= 1

    def release_shared(self):
        """Drop a shared hold; wakes waiters when the last reader leaves."""
        if self._readers <= 0:
            raise RuntimeError("releasing un-held shared lock %r" % self.name)
        self._readers -= 1
        self._kernel.futexes.remove_owner(self, self._kernel.current_thread)
        if self._readers == 0:
            self._kernel.futex_wake(self, n=1 << 30)

    def release_exclusive(self):
        """Drop the exclusive hold and wake all waiters."""
        if self._writer is None:
            raise RuntimeError("releasing un-held exclusive lock %r" % self.name)
        self._kernel.futexes.remove_owner(self, self._writer)
        self._writer = None
        self._kernel.futex_wake(self, n=1 << 30)

    def _on_owner_death(self, thread, holds):
        """Robust-futex recovery: drop the dead thread's holds."""
        if self._writer is thread:
            self._writer = None
            self._kernel.futex_wake(self, n=1 << 30)
        elif self._readers > 0:
            self._readers = max(0, self._readers - holds)
            if self._readers == 0:
                self._kernel.futex_wake(self, n=1 << 30)

    def __repr__(self):
        return "RWLock(name=%r, readers=%d, writer=%r)" % (
            self.name,
            self._readers,
            self._writer,
        )


class Semaphore:
    """Counting semaphore -- the model for multi-unit virtual resources
    such as InnoDB tickets or free buffer-pool blocks."""

    def __init__(self, kernel, units, name=None):
        if units < 0:
            raise ValueError("units must be non-negative")
        self._kernel = kernel
        self.name = name or "semaphore"
        self._units = units

    @property
    def available(self):
        """Units currently available."""
        return self._units

    def acquire(self, n=1):
        """Block until ``n`` units are available, then take them."""
        while self._units < n:
            yield FutexWait(self)
        self._units -= n
        self._kernel.futexes.add_owner(self, self._kernel.current_thread)

    def release(self, n=1):
        """Return ``n`` units and wake waiters."""
        self._units += n
        self._kernel.futexes.remove_owner(self, self._kernel.current_thread)
        self._kernel.futex_wake(self, n=1 << 30)

    def _on_owner_death(self, thread, holds):
        """Robust-futex recovery: return the dead thread's units.

        The owner registry counts one hold per ``acquire`` call, not per
        unit, so a multi-unit acquire is repaid as one unit per hold --
        an under-approximation that errs on the side of keeping the
        semaphore conservative rather than inflating its capacity.
        """
        self._units += holds
        self._kernel.futex_wake(self, n=1 << 30)

    def __repr__(self):
        return "Semaphore(name=%r, available=%d)" % (self.name, self._units)


class Condition:
    """Condition variable tied to a :class:`Mutex`."""

    def __init__(self, kernel, mutex):
        self._kernel = kernel
        self.mutex = mutex
        self.name = "condition"

    def wait(self):
        """Release the mutex, block until notified, then re-acquire."""
        self.mutex.release()
        yield FutexWait(self)
        yield from self.mutex.acquire()

    def wait_for(self, predicate):
        """Wait (repeatedly) until ``predicate()`` is true."""
        while not predicate():
            yield from self.wait()

    def notify_all(self):
        """Wake every waiter."""
        self._kernel.futex_wake(self, n=1 << 30)


class TaskQueue:
    """FIFO task queue with optional admission control.

    This models the kernel-visible queues (accept queues, epoll-fed task
    queues) that event-driven applications rely on.  The pBox manager's
    shared-thread penalty (Section 5, "Supporting Event-driven Model")
    plugs in through ``admission``: a callable ``admission(item) -> bool``
    consulted when a consumer pops.  Inadmissible items (tasks of a
    penalized pBox) are rotated to the back of the queue, exactly like the
    paper's "put back to the task queue" behaviour.
    """

    RETRY_US = 500

    def __init__(self, kernel, name=None, admission=None):
        self._kernel = kernel
        self.name = name or "taskqueue"
        self.admission = admission
        self._items = deque()

    def __len__(self):
        return len(self._items)

    def put(self, item):
        """Enqueue ``item`` and wake one consumer (never blocks)."""
        self._items.append(item)
        self._kernel.futex_wake(self, 1)

    def get(self):
        """Block until an admissible item is available; returns it."""
        while True:
            item = self._pop_admissible()
            if item is not _EMPTY:
                return item
            if self._items:
                # Everything queued is currently inadmissible (penalized);
                # retry after a short delay, like the patched syscalls do.
                yield FutexWait(self, timeout_us=self.RETRY_US)
            else:
                yield FutexWait(self)

    def try_get(self):
        """Pop an admissible item without blocking, or return ``None``."""
        item = self._pop_admissible()
        return None if item is _EMPTY else item

    def _pop_admissible(self):
        if not self._items:
            return _EMPTY
        if self.admission is None:
            return self._items.popleft()
        for _ in range(len(self._items)):
            item = self._items.popleft()
            if self.admission(item):
                return item
            self._items.append(item)
        return _EMPTY

    def __repr__(self):
        return "TaskQueue(name=%r, depth=%d)" % (self.name, len(self._items))
