"""Bind the pre-scalability kernel hot paths onto a Kernel instance.

The scale-throughput guard compares the current kernel against the
kernel as it was before the scalability work: a single global event
heap with no zero-delay lane, a full core scan on every dispatch, and
one enqueue+dispatch per woken futex waiter.  These functions are verbatim ports of that code
(see git history of ``src/repro/sim/kernel.py``); ``bind_legacy``
monkeypatches them onto one Kernel instance so the A/B runs in-process
on identical scenario specs.

Only the scheduling internals are rebound -- syscall execution, thread
lifecycle, tracepoints, and the cgroup model are the shared,
unmodified code paths.  One piece of scheduling state leaks into them:
the shared ``_enqueue`` calls ``_dispatch`` only while ``_idle_mask``
is non-zero, and the legacy paths never maintain that mask, so
``bind_legacy`` pins it non-zero.
"""

import functools
import heapq
import types

from repro.sim.kernel import _BLOCKED, _Timer
from repro.sim.thread import ThreadState


def _legacy_post(self, when_us, fn):
    timer = _Timer(fn)
    now = self.clock.now_us
    if when_us < now:
        when_us = now
    heapq.heappush(self._heap, (when_us, next(self._seq), timer))
    return timer


def _legacy_run(self, until_us=None):
    heap = self._heap
    clock = self.clock
    heappop = heapq.heappop
    limit = float("inf") if until_us is None else until_us
    while heap:
        when = heap[0][0]
        if when > limit:
            break
        timer = heappop(heap)[2]
        if timer.cancelled:
            continue
        if when > clock.now_us:
            clock.now_us = int(when)
        timer.fn()
    if until_us is not None and until_us > self.now_us:
        self.clock.advance_to(until_us)


def _legacy_futex_wake(self, key, n=1):
    if self.wake_filter is not None and not self.wake_filter(key, n):
        return 0
    woken = self.futexes.pop_waiters(key, n, waker=self.current_thread)
    for thread in woken:
        if thread.wakeup_event is not None:
            thread.wakeup_event.cancel()
            thread.wakeup_event = None
        thread.wait_key = None
        self._enqueue(thread, compute_us=0, resume_value=True)
    if woken:
        self._dispatch()
    return len(woken)


def _legacy_dispatch(self):
    run_queue = self.run_queue
    for core in self.cores:
        if core.running is not None:
            continue
        if not run_queue._queue:
            return
        thread = run_queue.pick_for_core(core)
        if thread is None:
            continue
        self._start_slice(core, thread)


def _legacy_start_slice(self, core, thread):
    now = self.clock.now_us
    group = thread.cgroup or self.root_cgroup
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
    core.running = thread
    thread.state = ThreadState.RUNNING
    self.stats["context_switches"] += 1
    if self._tp_switch.active:
        self._tp_switch.fire(now, tid=thread.tid,
                             name=thread.name, core=core.index,
                             slice_us=slice_us)
    timer = core._slice_timer
    timer.cancelled = False
    heapq.heappush(self._heap, (now + slice_us, next(self._seq), timer))
    core.slice_end_event = timer
    core._slice_started_us = now


def _legacy_slice_end(self, core):
    thread = core.running
    core.running = None
    core.slice_end_event = None
    ran = self.clock.now_us - core._slice_started_us
    if ran:
        core.busy_us += ran
        thread.cpu_time_us += ran
        group = thread.cgroup or self.root_cgroup
        group.charge(ran)
        thread.pending_compute_us -= ran
    if self._tp_switchout.active:
        self._tp_switchout.fire(self.clock.now_us, tid=thread.tid,
                                core=core.index, ran_us=ran,
                                done=thread.pending_compute_us <= 0)
    if thread.pending_compute_us > 0:
        self.run_queue.push(thread)
        self._dispatch()
        return
    self._dispatch()
    _legacy_resume(self, thread)


def _legacy_resume(self, thread):
    """Continue a thread whose CPU slice / wait completed."""
    if thread._pending_syscall is not None:
        syscall = thread._pending_syscall
        thread._pending_syscall = None
        result = self._execute(thread, syscall)
        if result is _BLOCKED:
            return
        self._advance(thread, result)
    else:
        self._advance(thread, thread._resume_value)


def _legacy_attribute_blame(self, waiter, key, defer_us):
    blamed_psid = None
    for other in self._pboxes.values():
        if other is not waiter and key in other.holders:
            blamed_psid = other.psid
            break
    if blamed_psid is None:
        releaser = self.last_releaser.get(key)
        if releaser is not None and releaser[0] != waiter.psid:
            blamed_psid = releaser[0]
    if blamed_psid is not None:
        slot = (blamed_psid, key)
        waiter.blame[slot] = waiter.blame.get(slot, 0) + defer_us


def bind_legacy(kernel, manager=None):
    """Rebind ``kernel`` (and optionally ``manager``) to pre-PR paths."""
    kernel._heap = []
    kernel.post = types.MethodType(_legacy_post, kernel)
    kernel.run = types.MethodType(_legacy_run, kernel)
    kernel.futex_wake = types.MethodType(_legacy_futex_wake, kernel)
    kernel._dispatch = types.MethodType(_legacy_dispatch, kernel)
    kernel._start_slice = types.MethodType(_legacy_start_slice, kernel)
    kernel._slice_end = types.MethodType(_legacy_slice_end, kernel)
    # Each core's reusable slice timer holds the slice end the kernel
    # resolved at construction; point it at the legacy one.
    for core in kernel.cores:
        core._slice_timer.fn = functools.partial(kernel._slice_end, core)
    # The legacy dispatch and slice paths never touch _idle_mask, and
    # the shared _enqueue skips _dispatch while it is zero.  Pin it to
    # "every core idle" so every enqueue dispatches, as the old code
    # did, even if cores were already filled when this runs.
    kernel._idle_mask = (1 << len(kernel.cores)) - 1
    if manager is not None:
        manager._attribute_blame = types.MethodType(
            _legacy_attribute_blame, manager)
    return kernel
