"""The discrete-event kernel: event loop, scheduler, syscalls.

This is the substitution for the Linux 5.4 kernel the paper patches.  It
runs simulated threads (generators yielding syscall objects) over N cores
in virtual time, supports cgroup CPU bandwidth limits, futex wait/wake,
timed sleeps, and -- crucially for pBox -- *resume hooks*: callbacks
consulted whenever a thread is about to continue past a syscall, which is
where the pBox manager injects its delay penalties (the moral equivalent
of the kernel patch calling ``schedule_hrtimeout`` on return to user
space).

Typical use::

    kernel = Kernel(cores=4)

    def worker():
        yield Compute(us=100)
        yield Sleep(us=50)

    kernel.spawn(worker)
    kernel.run(until_us=seconds(1))

Determinism guarantees
----------------------

Simulation is *bit-for-bit deterministic*: two kernels constructed with
the same ``(cores, quantum_us, seed)`` and driven by the same sequence
of ``spawn``/``post`` calls produce identical event orderings, identical
final virtual times, and identical thread/statistics state.  The
guarantees rest on three invariants:

- virtual time is integer microseconds and every heap entry carries a
  monotonically increasing sequence number, so event ordering has no
  ties to break non-deterministically;
- all randomness flows from the single root ``seed`` through named
  :class:`~repro.sim.rng.RngRegistry` streams, so adding a new consumer
  of randomness never perturbs existing streams;
- no wall-clock, thread-identity, or iteration-order-of-set source ever
  feeds a scheduling decision.

These invariants are what make the experiment runner's
content-addressed result cache (``repro.runner``) sound: a run is fully
described by its job spec (case, solution, seed, duration, knobs) plus
the code fingerprint, so equal keys really do mean equal results, and
parallel workers replaying jobs in any order produce output identical
to a serial sweep.
"""

import itertools
from functools import partial
from heapq import heappop, heappush

from repro.obs.tracepoints import TracepointBus
from repro.sim.cgroup import Cgroup
from repro.sim.clock import Clock
from repro.sim.errors import DeadlockError, ThreadCrashedError
from repro.sim.futex import WaitQueueTable
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import DEFAULT_QUANTUM_US, Core, make_run_queue
from repro.sim.syscalls import (
    Compute,
    FutexWait,
    FutexWake,
    Join,
    Now,
    Sleep,
    Spawn,
    Yield,
)
from repro.sim.thread import (
    BLOCKED,
    EXITED,
    NEW,
    RUNNING,
    SLEEPING,
    THROTTLED,
    SimThread,
)
from repro.sim.timerwheel import TimerWheel

_BLOCKED = object()  # sentinel: the thread cannot continue synchronously


class _Timer:
    """A cancellable entry in the event heap."""

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn):
        self.fn = fn
        self.cancelled = False

    def cancel(self):
        """Prevent the timer's callback from firing."""
        self.cancelled = True


class PenaltyArmer:
    """Batch same-expiry penalty wake-ups into one timer dispatch.

    When the manager penalizes many pBoxes in the same window, their
    delays often expire at the same microsecond.  Arming one wheel
    timer per penalty makes N simultaneous penalties cost N inserts
    and N dispatches; this armer keeps one bucket per distinct expiry
    and posts a single timer that fires the bucket's entries in arm
    order -- the same batching the futex wake-all path uses.

    Equivalence with per-penalty timers is exact under the wheel's
    ``(when, seq)`` ordering contract: a bucket's entries would have
    fired back-to-back anyway (each join still consumes a ``_seq``
    tick, so tie-breaks and event accounting are bit-identical to the
    unbatched kernel -- the golden corpus is the proof).  Handles
    support ``cancel()`` like plain timers, so ``kill_thread`` works
    unchanged.
    """

    __slots__ = ("kernel", "_buckets", "stats")

    def __init__(self, kernel):
        self.kernel = kernel
        self._buckets = {}   # when_us -> [_Timer entries, in arm order]
        self.stats = {"armed": 0, "batched": 0, "dispatches": 0}

    def arm(self, when_us, fn):
        """Schedule ``fn()`` at ``when_us``; returns a cancellable handle."""
        when_us = int(when_us)
        now = self.kernel.clock.now_us
        if when_us < now:
            when_us = now
        entry = _Timer(fn)
        self.stats["armed"] += 1
        bucket = self._buckets.get(when_us)
        if bucket is None:
            self._buckets[when_us] = [entry]
            self.kernel.post(when_us, lambda: self._fire(when_us))
        else:
            # Joining an existing bucket: burn the seq tick the
            # individual post would have consumed, so every later
            # timer keeps the exact tie-break rank it had before
            # batching (and event accounting stays comparable).
            next(self.kernel._seq)
            self.stats["batched"] += 1
            bucket.append(entry)
        return entry

    def _fire(self, when_us):
        # Pop before iterating: an entry that re-arms at this same
        # microsecond starts a fresh bucket, which fires strictly
        # later -- matching what an individual re-posted timer does.
        bucket = self._buckets.pop(when_us, None)
        if not bucket:
            return
        self.stats["dispatches"] += 1
        for entry in bucket:
            if not entry.cancelled:
                entry.fn()

    def snapshot_state(self):
        """JSON-safe walk of pending buckets (checkpoint walker).

        Records each distinct expiry and how many live entries it
        holds; the entries themselves (closures) are reconstructed by
        replay, so their count plus the trace digest pins the ordering.
        """
        buckets = sorted(
            (when, sum(1 for entry in bucket if not entry.cancelled))
            for when, bucket in self._buckets.items())
        return {"stats": dict(self.stats), "buckets": buckets}


class Kernel:
    """Virtual-time OS kernel.

    Parameters
    ----------
    cores:
        Number of simulated CPU cores.
    quantum_us:
        Preemption quantum for the round-robin scheduler, in whole
        microseconds (a fractional value is truncated).
    seed:
        Root seed for the kernel's RNG registry (handed to workloads).
    sched:
        Scheduler policy name (``"cfs"`` round-robin FIFO, the default,
        or ``"eevdf"`` virtual-deadline; see
        :data:`~repro.sim.scheduler.SCHED_POLICIES`).
    """

    def __init__(self, cores=4, quantum_us=DEFAULT_QUANTUM_US, seed=0,
                 sched="cfs"):
        if cores < 1:
            raise ValueError("need at least one core")
        self.clock = Clock()
        self.cores = [Core(i) for i in range(cores)]
        self.quantum_us = int(quantum_us)
        self.sched = sched
        self.run_queue = make_run_queue(sched)
        self.run_queue._now = lambda: self.clock.now_us
        # Policy capabilities, read once: whether _dispatch may use the
        # inlined head-of-queue shortcut, and the optional slice-end
        # virtual-runtime accounting hook.  For the default FIFO policy
        # these resolve to (True, None) and the hot paths are the same
        # decisions as before the seam -- the golden corpus pins it.
        self._fifo_fast_path = self.run_queue.fifo_fast_path
        self._sched_charge = getattr(self.run_queue, "charge", None)
        # Observability: the tracepoint bus every layer fires into.
        # Firing sites pre-fetch their Tracepoint and guard on its
        # ``active`` flag, so a run with no subscribers pays one
        # attribute check per site (the Figure 16 "disabled" story).
        self.trace = TracepointBus()
        self._tp_enqueue = self.trace.point("sched.enqueue")
        self._tp_switch = self.trace.point("sched.switch")
        self._tp_switchout = self.trace.point("sched.switchout")
        self._tp_sleep = self.trace.point("sched.sleep")
        self._tp_penalty = self.trace.point("penalty.inject")
        self._tp_owner_exit = self.trace.point("futex.owner_exit")
        self.futexes = WaitQueueTable(clock=self.clock, trace=self.trace)
        self.rngs = RngRegistry(seed)
        self.root_cgroup = Cgroup("root", quota_us=None)
        self.root_cgroup.attach_trace(self.trace)
        self.cgroups = {"root": self.root_cgroup}
        self.current_thread = None
        self.threads = []
        self.resume_hooks = []
        # Penalty delivery: resume-hook delays are armed through this
        # batcher (one wheel dispatch per distinct expiry) instead of
        # one timer per penalty; see PenaltyArmer.
        self.penalty_armer = PenaltyArmer(self)
        self.stats = {
            "syscalls": 0,
            "context_switches": 0,
            "penalties": 0,
            "penalty_us": 0,
            "throttles": 0,
            "crashes": 0,
        }
        # Fault-injection hook: when set, ``wake_filter(key, n)`` is
        # consulted before a futex wake; returning False swallows it
        # (the "lost wakeup" fault).  None in normal runs, so the hot
        # path pays one attribute test.
        self.wake_filter = None
        self._wheel = TimerWheel()
        self._seq = itertools.count()
        # Request tracing: ids handed out by next_request_id() and the
        # tid -> rid map maintained by closed-loop clients while a
        # request is in flight.  Pure bookkeeping for the req.* points
        # and pool tagging -- never consulted by the scheduler, so it
        # cannot perturb timing.  Kept separate from ``_seq`` (timer
        # ordering) so request tracing never shifts timer tie-breaks.
        self._req_seq = itertools.count(1)
        self.active_requests = {}
        # Scheduler hot path: which cores are idle, as a bitmask (bit i
        # set while core i has no running thread).  _dispatch iterates
        # set bits in ascending index order -- the same visit order as
        # a full core scan, but O(idle cores) instead of O(cores), and
        # O(1) when the machine is saturated (the common state at 10k
        # threads).
        self._idle_mask = (1 << cores) - 1
        # Hot path: each core gets one reusable slice-end timer whose
        # callback is bound once.  A core has at most one slice pending,
        # so re-arming the same _Timer every context switch saves a
        # timer allocation per switch (see _start_slice).  The timer
        # calls _slice_end directly; it is resolved here, per kernel,
        # so a wrapper installed on the class before construction
        # (bench/layers.py) still sees every slice end.
        slice_end = self._slice_end
        for core in self.cores:
            core._slice_timer = _Timer(partial(slice_end, core))
            core._mask_bit = 1 << core.index

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def now_us(self):
        """Current virtual time in microseconds."""
        return self.clock.now_us

    def rng(self, name):
        """Named deterministic RNG stream (see :class:`RngRegistry`)."""
        return self.rngs.stream(name)

    def next_request_id(self):
        """Allocate the next request id (monotonic, starts at 1).

        Ids are drawn unconditionally by the closed-loop clients --
        not only while a ``req.*`` subscriber is attached -- so the
        numbering is identical whether or not anyone is listening.
        """
        return next(self._req_seq)

    def create_cgroup(self, name, quota_us=None, period_us=Cgroup.DEFAULT_PERIOD_US):
        """Create and register a CPU bandwidth cgroup."""
        if name in self.cgroups:
            raise ValueError("cgroup %r already exists" % name)
        group = Cgroup(name, quota_us=quota_us, period_us=period_us)
        group.attach_trace(self.trace)
        self.cgroups[name] = group
        return group

    def spawn(self, body, name=None, cgroup=None, affinity=None):
        """Create and start a thread; returns the :class:`SimThread`."""
        thread = SimThread(body, name=name, cgroup=cgroup, affinity=affinity)
        self.threads.append(thread)
        thread.started_at_us = self.now_us
        thread._resume_value = None
        thread._pending_syscall = None
        self._enqueue(thread, compute_us=0, resume_value=None)
        return thread

    def spawn_after(self, delay_us, body, name=None, cgroup=None, affinity=None):
        """Spawn a thread once ``delay_us`` of virtual time has passed."""

        def _later():
            self.spawn(body, name=name, cgroup=cgroup, affinity=affinity)

        self.post(self.now_us + delay_us, _later)

    def post(self, when_us, fn):
        """Schedule ``fn()`` to run at virtual time ``when_us``."""
        timer = _Timer(fn)
        now = self.clock.now_us
        # int() matches the clock's integer-microsecond invariant (the
        # old heap floored float deadlines when advancing the clock;
        # the wheel floors them when arming -- same firing time).
        when_us = int(when_us)
        if when_us < now:
            when_us = now
        self._wheel.insert(when_us, next(self._seq), timer)
        return timer

    def call_every(self, period_us, fn, start_us=None):
        """Run ``fn()`` every ``period_us``; ``fn`` may return False to stop."""
        first = self.now_us + period_us if start_us is None else start_us

        def _tick():
            if fn() is False:
                return
            self.post(self.now_us + period_us, _tick)

        return self.post(first, _tick)

    def run(self, until_us=None):
        """Run the event loop.

        Processes events until the heap is empty or virtual time would
        exceed ``until_us``.  Raises :class:`DeadlockError` if the heap
        drains while live threads remain blocked.

        Given the same kernel construction arguments and the same prior
        ``spawn``/``post`` sequence, ``run`` is fully deterministic (see
        the module docstring) -- the experiment runner's cache relies on
        this.
        """
        # Hot loop: locals instead of attribute lookups, and a float
        # +inf sentinel so the limit test is a single comparison.  The
        # wheel drains cancelled entries and enforces the limit
        # internally; entries pop in exact (when, seq) order.
        #
        # The lane and due-heap fast paths are inlined.  Lane entries
        # sit at the cursor and fire in arm order, after any due entry
        # at the cursor (armed earlier -- see timerwheel.py).  Otherwise
        # a non-empty "due" heap's head is the global minimum (far-level
        # entries all live in later blocks), so a due event costs one C
        # heappop with no method call or result tuple.  The slow branch
        # (both empty: hunt to the next block, or nothing left) stays
        # behind pop_next.
        clock = self.clock
        wheel = self._wheel
        lane = wheel._lane
        due = wheel._due
        pop_next = wheel.pop_next
        limit = float("inf") if until_us is None else until_us
        while True:
            if lane:
                when = wheel._cur
                if when > limit:
                    break
                if due and due[0][0] == when:
                    entry = heappop(due)
                else:
                    entry = lane.popleft()
                wheel._count -= 1
                timer = entry[2]
                if timer.cancelled:
                    continue
            elif due:
                entry = due[0]
                when = entry[0]
                if when > limit:
                    break
                heappop(due)
                wheel._count -= 1
                wheel._cur = when
                timer = entry[2]
                if timer.cancelled:
                    continue
            else:
                entry = pop_next(limit)
                if entry is None:
                    break
                when, timer = entry
            if when > clock.now_us:
                # Inlined advance_to: wheel order + the post() clamp
                # make backwards movement impossible here.
                clock.now_us = when
            timer.fn()
        if until_us is not None and until_us > self.now_us:
            self.clock.advance_to(until_us)
        if not self._wheel:
            blocked = [t for t in self.threads if t.alive]
            if blocked and until_us is None:
                raise DeadlockError(
                    "event loop drained with %d live threads: %r"
                    % (len(blocked), blocked[:8])
                )

    def futex_wake(self, key, n=1):
        """Wake up to ``n`` threads blocked on ``key``; returns count.

        Callable directly from thread bodies (synchronously, in zero
        virtual time) because waking only moves threads to the run queue.
        """
        if self.wake_filter is not None and not self.wake_filter(key, n):
            return 0
        woken = self.futexes.pop_waiters(key, n, waker=self.current_thread)
        if not woken:
            return 0
        if self._idle_mask:
            # Idle cores exist: enqueue-and-dispatch each waiter so the
            # trace keeps the classic enqueue/switch interleaving (the
            # golden corpus pins the event stream, not just the
            # schedule).
            for thread in woken:
                if thread.wakeup_event is not None:
                    thread.wakeup_event.cancel()
                    thread.wakeup_event = None
                thread.wait_key = None
                self._enqueue(thread, compute_us=0, resume_value=True)
            self._dispatch()
            return len(woken)
        # All cores busy -- the common state under load.  Batch: push
        # every waiter straight onto the run queue and dispatch once.
        # Identical outcome (no dispatch can place anything while no
        # core is idle) at O(1) per waiter instead of a core scan each.
        run_queue = self.run_queue
        tp = self._tp_enqueue
        now = self.clock.now_us
        for thread in woken:
            if thread.wakeup_event is not None:
                thread.wakeup_event.cancel()
                thread.wakeup_event = None
            thread.wait_key = None
            thread.pending_compute_us = 0
            thread._resume_value = True
            if tp.active:
                tp.fire(now, tid=thread.tid, name=thread.name)
            run_queue.push(thread)
        self._dispatch()
        return len(woken)

    def charge_current(self, us):
        """Charge ``us`` of CPU overhead to the calling thread.

        Used by the pBox runtime to model per-operation cost (Figure 10 /
        Figure 16) without adding Compute yields to application models.
        The charge is consumed before the thread's next syscall executes.
        """
        if us <= 0:
            return
        thread = self.current_thread
        if thread is not None:
            thread.overhead_us += int(us)

    def add_resume_hook(self, hook):
        """Register ``hook(thread) -> delay_us`` consulted at resume time.

        A positive return value puts the thread to sleep for that long
        before its next syscall is processed -- the pBox penalty channel.
        """
        self.resume_hooks.append(hook)

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------

    def _enqueue(self, thread, compute_us, resume_value, front=False):
        thread.pending_compute_us = compute_us
        thread._resume_value = resume_value
        if self._tp_enqueue.active:
            self._tp_enqueue.fire(self.clock.now_us, tid=thread.tid,
                                  name=thread.name)
        if front:
            self.run_queue.push_front(thread)
        else:
            self.run_queue.push(thread)
        if self._idle_mask:
            self._dispatch()

    def _dispatch(self):
        # Sharded run-queue scan: only cores idle at entry are visited,
        # in ascending index order (identical placement to the old full
        # core scan).  A core filled by a recursive dispatch (throttle
        # path) is skipped by the running re-check; no core can become
        # idle mid-dispatch (only _slice_end clears running, and it
        # runs from the event loop).
        mask = self._idle_mask
        if not mask:
            return
        run_queue = self.run_queue
        queue = run_queue._queue
        cores = self.cores
        fifo = self._fifo_fast_path
        while mask and queue:
            idx = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            core = cores[idx]
            if core.running is not None:
                continue
            if fifo:
                # Inlined pick_for_core fast path: head thread
                # unconstrained, core unreserved -- the common case at
                # every scale point.  Only valid for the FIFO policy;
                # deadline policies always go through pick_for_core.
                head = queue[0]
                if (core.reserved_for is None and head.affinity is None
                        and not head.demoted_until_us):
                    queue.popleft()
                    thread = head
                else:
                    thread = run_queue.pick_for_core(core)
                    if thread is None:
                        continue
            else:
                thread = run_queue.pick_for_core(core)
                if thread is None:
                    continue
            self._start_slice(core, thread)

    def _start_slice(self, core, thread):
        now = self.clock.now_us
        group = thread.cgroup or self.root_cgroup
        if group.quota_us is None and not group.throttled_threads:
            # Unlimited group (the root group for every thread outside a
            # cgroup baseline): the bandwidth window is irrelevant, so
            # skip the refresh/remaining bookkeeping on this hottest of
            # paths.  refresh() on an unlimited group only resets
            # counters nothing reads; set_quota() re-zeroes them on the
            # unlimited -> limited transition.
            quantum = self.quantum_us
            pending = thread.pending_compute_us
            slice_us = quantum if quantum < pending else pending
            # Both operands are ints here (__init__ coerces the quantum,
            # Compute and charge_current the compute), so the end
            # needs no int().
            when = now + slice_us
        else:
            # Roll the bandwidth window forward before checking the
            # budget; otherwise a group that never throttles keeps
            # charging a stale period and the quota never binds.
            for released in group.refresh(now):
                self.run_queue.push(released)
            remaining = group.remaining_us(now)
            if remaining == 0:
                self._throttle(thread, group)
                self._dispatch()
                return
            slice_us = min(self.quantum_us, thread.pending_compute_us)
            if remaining is not None:
                slice_us = min(slice_us, remaining)
            # Cgroup.set_quota does not coerce quotas to int.
            when = int(now + slice_us)
        core.running = thread
        self._idle_mask &= ~core._mask_bit
        thread.state = RUNNING
        self.stats["context_switches"] += 1
        if self._tp_switch.active:
            self._tp_switch.fire(now, tid=thread.tid,
                                 name=thread.name, core=core.index,
                                 slice_us=slice_us)
        # Re-arm the core's reusable slice-end timer instead of going
        # through post(): saves a _Timer allocation per context switch,
        # the hottest allocation site of the event loop.
        timer = core._slice_timer
        timer.cancelled = False
        wheel = self._wheel
        cur = wheel._cur
        # Inlined wheel.insert() fast paths (when >= cursor holds
        # because the cursor never runs ahead of the clock): a
        # zero-length slice armed at the cursor -- about half of all
        # slices -- goes to the FIFO lane, and most others end inside
        # the cursor's current 1024us block.
        if when <= cur:
            wheel._lane.append((cur, next(self._seq), timer))
            wheel._count += 1
        elif when ^ cur < 1024:
            heappush(wheel._due, (when, next(self._seq), timer))
            wheel._count += 1
        else:
            wheel.insert(when, next(self._seq), timer)
        core._slice_started_us = now

    def _slice_end(self, core):
        """End ``core``'s slice: refill the core, then resume the thread.

        The whole context switch in one pass.  When this core is the
        only idle one -- nearly every switch on a saturated machine --
        the refill is one ``pick_for_core`` on it: the decision
        ``_dispatch`` would reach, without its loop or its scan of the
        idle mask.  A preempted thread is queued before the refill, as
        in ``_dispatch``; a finished one continues only after it, so
        whatever it does next (wake, enqueue, exit) sees the core busy.
        """
        thread = core.running
        core.running = None
        bit = core._mask_bit
        self._idle_mask |= bit
        ran = self.clock.now_us - core._slice_started_us
        if ran:
            core.busy_us += ran
            thread.cpu_time_us += ran
            group = thread.cgroup or self.root_cgroup
            # Inlined Cgroup.charge() -- one call per context switch.
            group.runtime_us += ran
            group.total_cpu_us += ran
            thread.pending_compute_us -= ran
            charge = self._sched_charge
            if charge is not None:
                # Deadline policies account virtual runtime here; the
                # FIFO policy has no hook and pays one None test.
                charge(thread, ran)
        if self._tp_switchout.active:
            self._tp_switchout.fire(self.clock.now_us, tid=thread.tid,
                                    core=core.index, ran_us=ran,
                                    done=thread.pending_compute_us <= 0)
        run_queue = self.run_queue
        preempted = thread.pending_compute_us > 0
        if preempted:
            run_queue.push(thread)
        if self._idle_mask == bit:
            refill = run_queue.pick_for_core(core)
            if refill is not None:
                self._start_slice(core, refill)
        else:
            self._dispatch()
        if preempted:
            return
        syscall = thread._pending_syscall
        if syscall is not None:
            thread._pending_syscall = None
            result = self._execute(thread, syscall)
            if result is _BLOCKED:
                return
            self._advance(thread, result)
        else:
            self._advance(thread, thread._resume_value)

    def _throttle(self, thread, group):
        thread.state = THROTTLED
        group.park(thread, self.clock.now_us)
        self.stats["throttles"] += 1
        if not getattr(group, "_refresh_scheduled", False):
            group._refresh_scheduled = True
            self.post(group.next_refresh_us(self.now_us), lambda: self._refresh(group))

    def _refresh(self, group):
        group._refresh_scheduled = False
        released = group.refresh(self.now_us)
        for thread in released:
            self.run_queue.push(thread)
        if group.throttled_threads and not group._refresh_scheduled:
            group._refresh_scheduled = True
            self.post(group.next_refresh_us(self.now_us), lambda: self._refresh(group))
        if released:
            self._dispatch()

    # ------------------------------------------------------------------
    # Thread advancement
    # ------------------------------------------------------------------

    def _advance(self, thread, send_value):
        hooks = self.resume_hooks
        if hooks:
            for hook in hooks:
                delay = hook(thread)
                if delay:
                    self.stats["penalties"] += 1
                    self.stats["penalty_us"] += delay
                    if self._tp_penalty.active:
                        pbox = thread.pbox
                        self._tp_penalty.fire(
                            self.clock.now_us, tid=thread.tid, delay_us=delay,
                            psid=None if pbox is None else pbox.psid,
                        )
                    thread.state = SLEEPING
                    thread.wakeup_event = self.penalty_armer.arm(
                        self.clock.now_us + delay,
                        lambda: self._advance(thread, send_value),
                    )
                    return
        body_send = thread.body.send
        execute = self._execute
        while True:
            previous = self.current_thread
            self.current_thread = thread
            try:
                syscall = body_send(send_value)
            except StopIteration as stop:
                self.current_thread = previous
                self._exit(thread, stop.value)
                return
            except Exception as exc:
                self.current_thread = previous
                raise ThreadCrashedError(
                    "thread %r crashed: %r" % (thread.name, exc)
                ) from exc
            self.current_thread = previous
            result = execute(thread, syscall)
            if result is _BLOCKED:
                return
            send_value = result

    def _execute(self, thread, syscall):
        """Perform ``syscall``; return its value or ``_BLOCKED``.

        Dispatches on the exact syscall class first (the syscall set is
        closed and flat, so ``type(x) is C`` is both correct and faster
        than an isinstance chain); unknown classes fall through to the
        original isinstance tests so hypothetical subclasses keep
        working.
        """
        self.stats["syscalls"] += 1
        cls = syscall.__class__
        if cls is Compute:
            amount = syscall.us + thread.overhead_us
            thread.overhead_us = 0
            self._enqueue(thread, amount, None)
            return _BLOCKED

        if thread.overhead_us:
            overhead = thread.overhead_us
            thread.overhead_us = 0
            thread._pending_syscall = syscall
            self._enqueue(thread, compute_us=overhead, resume_value=None)
            return _BLOCKED

        # Exact-class fast paths for the remaining hot syscalls (same
        # bodies as the isinstance chain below, minus the chain walk).
        if cls is FutexWait:
            thread.state = BLOCKED
            thread.wait_key = syscall.key
            thread.blocked_since_us = self.clock.now_us
            self.futexes.add(syscall.key, thread)
            if syscall.timeout_us is not None:
                thread.wakeup_event = self.post(
                    self.clock.now_us + syscall.timeout_us,
                    lambda: self._futex_timeout(thread, syscall.key),
                )
            return _BLOCKED

        if cls is FutexWake:
            return self.futex_wake(syscall.key, syscall.n)

        if cls is Now:
            return self.clock.now_us

        if cls is Sleep:
            thread.state = SLEEPING
            if self._tp_sleep.active:
                self._tp_sleep.fire(self.clock.now_us, tid=thread.tid,
                                    us=syscall.us)
            thread.wakeup_event = self.post(
                self.clock.now_us + syscall.us,
                lambda: self._wake_sleeper(thread),
            )
            return _BLOCKED

        if isinstance(syscall, Compute):
            amount = syscall.us + thread.overhead_us
            thread.overhead_us = 0
            self._enqueue(thread, compute_us=amount, resume_value=None)
            return _BLOCKED

        if isinstance(syscall, Sleep):
            thread.state = SLEEPING
            if self._tp_sleep.active:
                self._tp_sleep.fire(self.clock.now_us, tid=thread.tid,
                                    us=syscall.us)
            thread.wakeup_event = self.post(
                self.clock.now_us + syscall.us,
                lambda: self._wake_sleeper(thread),
            )
            return _BLOCKED

        if isinstance(syscall, FutexWait):
            thread.state = BLOCKED
            thread.wait_key = syscall.key
            thread.blocked_since_us = self.clock.now_us
            self.futexes.add(syscall.key, thread)
            if syscall.timeout_us is not None:
                thread.wakeup_event = self.post(
                    self.clock.now_us + syscall.timeout_us,
                    lambda: self._futex_timeout(thread, syscall.key),
                )
            return _BLOCKED

        if isinstance(syscall, FutexWake):
            return self.futex_wake(syscall.key, syscall.n)

        if isinstance(syscall, Spawn):
            spawned = syscall.thread
            if spawned.state is not NEW:
                raise ValueError("thread %r already started" % spawned)
            self.threads.append(spawned)
            spawned.started_at_us = self.now_us
            spawned._resume_value = None
            spawned._pending_syscall = None
            self._enqueue(spawned, compute_us=0, resume_value=None)
            return spawned

        if isinstance(syscall, Join):
            target = syscall.thread
            if not target.alive:
                return target.return_value
            thread.state = BLOCKED
            target.joiners.append(thread)
            return _BLOCKED

        if isinstance(syscall, Now):
            return self.now_us

        if isinstance(syscall, Yield):
            self._enqueue(thread, compute_us=0, resume_value=None)
            return _BLOCKED

        raise TypeError("thread %r yielded non-syscall %r" % (thread, syscall))

    def _wake_sleeper(self, thread):
        thread.wakeup_event = None
        self._enqueue(thread, compute_us=0, resume_value=None)

    def _futex_timeout(self, thread, key):
        thread.wakeup_event = None
        if self.futexes.remove(key, thread):
            thread.wait_key = None
            self._enqueue(thread, compute_us=0, resume_value=False)

    def _exit(self, thread, value):
        thread.state = EXITED
        thread.return_value = value
        thread.exited_at_us = self.now_us
        # Robust-futex semantics: a thread must not exit while registered
        # as the owner of a wait-queue key.  Normal exits released
        # everything, so the purge scans an empty-or-tiny dict; a thread
        # that died holding resources (crash fault, buggy model) gets its
        # ownership cleared and the primitive's recovery handler invoked
        # so waiters are not stranded behind a dead holder.
        leaked = self.futexes.purge_owner(thread)
        if leaked:
            for key, holds in leaked:
                if self._tp_owner_exit.active:
                    self._tp_owner_exit.fire(
                        self.clock.now_us, tid=thread.tid, key=key,
                        holds=holds,
                    )
                handler = getattr(key, "_on_owner_death", None)
                if handler is not None:
                    handler(thread, holds)
                else:
                    self.futex_wake(key, 1)
        joiners = thread.joiners
        thread.joiners = []
        for waiter in joiners:
            # A joiner can itself have been killed while it waited; never
            # resurrect a corpse into the run queue.
            if waiter.alive:
                self._enqueue(waiter, compute_us=0, resume_value=value)

    def kill_thread(self, thread):
        """Terminate ``thread`` abruptly, as a crash would (fault hook).

        Closing the generator raises ``GeneratorExit`` at its current
        yield point, so ``finally`` blocks run (with ``current_thread``
        set to the dying thread, releases behave as if it ran them);
        anything still held afterwards is cleaned up by the robust-futex
        purge in :meth:`_exit`.  Returns True if the thread was alive.
        """
        if not thread.alive:
            return False
        self.stats["crashes"] += 1
        thread._pending_syscall = None
        thread.overhead_us = 0
        previous = self.current_thread
        self.current_thread = thread
        try:
            thread.body.close()
        except Exception:
            # A cleanup handler raised; the crash is still contained --
            # the robust-futex purge below recovers whatever it leaked.
            pass
        finally:
            self.current_thread = previous
        if thread.wakeup_event is not None:
            thread.wakeup_event.cancel()
            thread.wakeup_event = None
        state = thread.state
        if state is BLOCKED:
            if thread.wait_key is not None:
                self.futexes.remove(thread.wait_key, thread)
                thread.wait_key = None
            self._exit(thread, None)
        elif state is SLEEPING:
            self._exit(thread, None)
        # READY / RUNNING / THROTTLED threads stay owned by the scheduler:
        # when their slice or release comes, resuming the closed body
        # raises StopIteration into the normal exit path (_advance ->
        # _exit), which runs the same purge.
        return True

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    @property
    def quiescent(self):
        """True when no syscall dispatch is in flight and nothing is due.

        A checkpoint barrier is sound only at a quiescent point: the
        event loop is not inside a thread body (``current_thread`` is
        None) and no live timer is due at or before the current virtual
        time.  ``run(until_us=T)`` establishes exactly this state when
        it returns -- it drains every event with ``when <= T`` before
        advancing the clock to ``T``.
        """
        if self.current_thread is not None:
            return False
        now = self.clock.now_us
        for when, timer in self._wheel.pending():
            if when <= now and not timer.cancelled:
                return False
        return True

    def snapshot_state(self, label=repr):
        """JSON-safe walk of the full kernel state (checkpoint walker).

        Pure observation: never consumes ``_seq``/``_req_seq`` ticks,
        RNG draws, or fires tracepoints, so walking a run cannot perturb
        it (the restore-equality suite is the proof).  The two
        ``itertools.count`` counters are deliberately *not* recorded --
        they cannot be read without advancing them, and replay-based
        restore reconstructs them exactly (the trace digest pins the
        ordering they feed).  Resource keys are rendered through
        ``label`` so the walk is stable across processes.
        """
        threads = {
            "tid": [], "name": [], "state": [], "cgroup": [],
            "pending_compute_us": [], "cpu_time_us": [], "wait_key": [],
            "blocked_since_us": [], "overhead_us": [],
            "demoted_until_us": [], "psid": [], "joiners": [],
            "started_at_us": [], "exited_at_us": [],
        }
        for thread in self.threads:
            threads["tid"].append(thread.tid)
            threads["name"].append(thread.name)
            threads["state"].append(thread.state.value)
            threads["cgroup"].append(
                None if thread.cgroup is None else thread.cgroup.name)
            threads["pending_compute_us"].append(thread.pending_compute_us)
            threads["cpu_time_us"].append(thread.cpu_time_us)
            threads["wait_key"].append(
                None if thread.wait_key is None else label(thread.wait_key))
            threads["blocked_since_us"].append(thread.blocked_since_us)
            threads["overhead_us"].append(thread.overhead_us)
            threads["demoted_until_us"].append(thread.demoted_until_us)
            threads["psid"].append(
                None if thread.pbox is None else thread.pbox.psid)
            threads["joiners"].append([t.tid for t in thread.joiners])
            threads["started_at_us"].append(thread.started_at_us)
            threads["exited_at_us"].append(thread.exited_at_us)
        return {
            "now_us": self.clock.now_us,
            "quantum_us": self.quantum_us,
            "sched": self.sched,
            "stats": dict(self.stats),
            "idle_mask": self._idle_mask,
            "cores": [
                {
                    "index": core.index,
                    "running": (None if core.running is None
                                else core.running.tid),
                    "busy_us": core.busy_us,
                    "reserved_for": core.reserved_for,
                }
                for core in self.cores
            ],
            "run_queue": [t.tid for t in self.run_queue.threads()],
            "threads": threads,
            "cgroups": sorted(
                (name, group.snapshot_state())
                for name, group in self.cgroups.items()),
            "futexes": self.futexes.snapshot_state(label),
            "timers": self._wheel.snapshot_entries(),
            "penalty_armer": self.penalty_armer.snapshot_state(),
            "rngs": self.rngs.snapshot_state(),
            "active_requests": sorted(self.active_requests.items()),
        }


class IdleWatchdog:
    """Deadlock/livelock sentinel for fault-injection runs.

    Ticks every ``period_us`` of virtual time.  A simulation is *stuck*
    when no syscall ran since the previous tick, no live timer remains
    in the heap, and at least one live thread is blocked on a futex for
    a reason other than idling on an empty task queue.  When stuck, the
    watchdog attempts lost-wakeup repair: every waiter-bearing key with
    no live registered owner gets one wake (waiters re-check their
    predicates, so a spurious wake is harmless churn).  If the repair
    wakes nobody, the situation is a genuine deadlock; ``on_deadlock``
    is invoked once with the blocked threads and ticking stops so the
    drained heap ends the run.

    Only the chaos harness arms this (normal runs must keep the
    ``kernel.run(until_us=None)`` heap-drain termination semantics), and
    arming requires a deadline so a bounded run stays bounded.
    """

    def __init__(self, kernel, period_us=50_000, stale_us=250_000,
                 on_deadlock=None):
        self.kernel = kernel
        self.period_us = period_us
        self.stale_us = stale_us
        self.on_deadlock = on_deadlock
        self.ticks = 0
        self.recoveries = 0
        self.recovered_wakes = 0
        self.stale_repairs = 0
        self.deadlocks = 0
        self._deadline_us = None
        self._last_syscalls = -1
        self._tp_recover = kernel.trace.point("fault.recover")

    def arm(self, deadline_us):
        """Start ticking until virtual time reaches ``deadline_us``."""
        self._deadline_us = deadline_us
        self._last_syscalls = self.kernel.stats["syscalls"]
        self._post_next()

    def stats(self):
        """JSON-safe summary for chaos result entries."""
        return {
            "ticks": self.ticks,
            "recoveries": self.recoveries,
            "recovered_wakes": self.recovered_wakes,
            "stale_repairs": self.stale_repairs,
            "deadlocks": self.deadlocks,
        }

    def _post_next(self):
        when = self.kernel.clock.now_us + self.period_us
        if self._deadline_us is None or when > self._deadline_us:
            return
        self.kernel.post(when, self._tick)

    @staticmethod
    def _idle_wait(key):
        """True for waits that are legitimate idling, not starvation.

        Consumers parked on an *empty* task queue at the end of a run
        are the normal quiescent state; anything else blocked while the
        heap is drained is a suspect.
        """
        if key is None or not hasattr(key, "__len__"):
            return False
        try:
            return len(key) == 0
        except TypeError:
            return False

    def _tick(self):
        self.ticks += 1
        kernel = self.kernel
        # Even while the simulation is otherwise making progress, a lost
        # wake-up can strand a waiter on a key nobody touches again; the
        # idle check would never see it.  Repair stranded queues on every
        # tick, not just when stuck.
        stale_woken = self._repair_stale()
        if stale_woken:
            self.stale_repairs += 1
            self.recovered_wakes += stale_woken
            if self._tp_recover.active:
                self._tp_recover.fire(kernel.clock.now_us,
                                      kind="stale-waiter",
                                      woken=stale_woken)
        syscalls = kernel.stats["syscalls"]
        suspects = None
        if syscalls == self._last_syscalls:
            if not kernel._wheel.has_live_timer():
                suspects = [
                    thread for thread in kernel.threads
                    if thread.alive
                    and thread.state is BLOCKED
                    and not self._idle_wait(thread.wait_key)
                ]
        self._last_syscalls = syscalls
        if not suspects:
            self._post_next()
            return
        woken = self._recover()
        if woken:
            self.recoveries += 1
            self.recovered_wakes += woken
            if self._tp_recover.active:
                self._tp_recover.fire(kernel.clock.now_us,
                                      kind="lost-wakeup", woken=woken)
            self._post_next()
            return
        self.deadlocks += 1
        if self._tp_recover.active:
            self._tp_recover.fire(kernel.clock.now_us, kind="deadlock",
                                  woken=0)
        if self.on_deadlock is not None:
            self.on_deadlock(suspects)
        # Unrecoverable: stop ticking so the drained heap ends the run
        # instead of spinning to the deadline.

    def _recover(self):
        kernel = self.kernel
        futexes = kernel.futexes
        woken = 0
        for key in futexes.keys():
            owners = futexes.owners(key)
            if any(owner.alive for owner in owners):
                # A live holder will release eventually -- waking the
                # waiters cannot help and may mask a real lock cycle.
                continue
            if self._idle_wait(key):
                continue
            woken += kernel.futex_wake(key, 1)
        return woken

    def _repair_stale(self):
        """Wake the head of queues stranded behind no live owner.

        The release chain of every lock-like primitive wakes the FIFO
        head within one hold time, so a head blocked longer than
        ``stale_us`` on a key with no live registered holder means a
        wake-up went missing.  One wake repairs it; acquire loops
        re-check their predicate, so a false positive is harmless churn.
        """
        kernel = self.kernel
        futexes = kernel.futexes
        now = kernel.clock.now_us
        woken = 0
        for key in futexes.keys():
            if self._idle_wait(key):
                continue
            if any(owner.alive for owner in futexes.owners(key)):
                continue
            queue = futexes.waiters(key)
            if not queue:
                continue
            if now - queue[0].blocked_since_us > self.stale_us:
                woken += kernel.futex_wake(key, 1)
        return woken
