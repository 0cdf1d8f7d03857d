"""Fault-machinery overhead: chaos disabled must be within budget.

The fault-injection harness touches exactly one kernel hot path when no
faults are armed: ``futex_wake`` checks the ``wake_filter`` hook (one
attribute load and ``is not None`` test) before popping waiters.  This
benchmark runs the same contended simulation with the shipped
``futex_wake`` and with a pre-fault variant (the shipped body minus the
hook check), each bound to the kernel instance the same way, so the
two sides differ only in the hook, and measures that difference three
ways:

- **bytecodes (asserted)**: each side runs a short fixed window under
  ``_common.count_bytecodes``, which counts every bytecode executed
  inside ``kernel.run``.  The count repeats exactly, so it resolves the
  hook's few bytecodes per wake; host time on a shared 2-vCPU host
  moves by far more than 2% between runs of identical code (an A/A
  pair of wall-clock runs read 0.79-1.53);
- **wall clock (reported)**: the best of REPEATS alternating pairs of
  untraced runs, the first side swapping each repeat;
- **microbench (reported)**: the per-call cost of the disabled guard.

The acceptance bar: the faults-disabled kernel executes less than 2%
more than the pre-fault hot path.
"""

import time

from _common import count_bytecodes, once, write_result

from repro.sim import Compute, FutexWait, Kernel, Sleep

DURATION_US = 250_000
#: Virtual window of each bytecode-counted run (~2.4 s of host time per
#: side under the tracer on a 2-vCPU x86-64 host, Python 3.11).
TRACED_US = 25_000
REPEATS = 3
OVERHEAD_BUDGET = 0.02
#: Wake-heavy workload: ping-pong pairs so futex_wake dominates.
PAIRS = 6


def _prefault_futex_wake(self, key, n=1):
    """``Kernel.futex_wake`` as shipped, minus the ``wake_filter`` check."""
    woken = self.futexes.pop_waiters(key, n, waker=self.current_thread)
    if not woken:
        return 0
    if self._idle_mask:
        for thread in woken:
            if thread.wakeup_event is not None:
                thread.wakeup_event.cancel()
                thread.wakeup_event = None
            thread.wait_key = None
            self._enqueue(thread, compute_us=0, resume_value=True)
        self._dispatch()
        return len(woken)
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


def _build_pingpong(kernel):
    """PAIRS ping-pong thread pairs hammering futex wait/wake."""
    for pair in range(PAIRS):
        ping_key = ("ping", pair)
        pong_key = ("pong", pair)

        def ping(ping_key=ping_key, pong_key=pong_key):
            while True:
                yield Compute(us=5)
                kernel.futex_wake(pong_key, 1)
                yield FutexWait(ping_key, timeout_us=1_000)

        def pong(ping_key=ping_key, pong_key=pong_key):
            while True:
                yield FutexWait(pong_key, timeout_us=1_000)
                yield Compute(us=5)
                kernel.futex_wake(ping_key, 1)

        kernel.spawn(ping, name="ping-%d" % pair)
        kernel.spawn(pong, name="pong-%d" % pair)

    def idler():
        while True:
            yield Sleep(us=100_000)

    kernel.spawn(idler, name="idler")


def _kernel(bind_prefault):
    kernel = Kernel(cores=4, seed=1)
    # Both sides bind their futex_wake on the instance, so thread
    # bodies look it up the same way and only the bodies differ.
    wake = _prefault_futex_wake if bind_prefault else Kernel.futex_wake
    kernel.futex_wake = wake.__get__(kernel)
    _build_pingpong(kernel)
    return kernel


def _counted_run(bind_prefault):
    """Bytecodes executed inside ``kernel.run`` over TRACED_US."""
    kernel = _kernel(bind_prefault)
    count, _ = count_bytecodes(kernel.run, until_us=TRACED_US)
    return count, kernel.stats["syscalls"]


def _counted_pair():
    """``(current_ops, prefault_ops, syscalls)``: one counted run a side.

    Both sides must run the identical simulation.
    """
    current, current_syscalls = _counted_run(False)
    prefault, prefault_syscalls = _counted_run(True)
    assert current_syscalls == prefault_syscalls, (
        current_syscalls, prefault_syscalls)
    return current, prefault, current_syscalls


def _timed_run(bind_prefault):
    kernel = _kernel(bind_prefault)
    start = time.perf_counter()
    kernel.run(until_us=DURATION_US)
    return time.perf_counter() - start, kernel.stats["syscalls"]


def _best_pair():
    """Best wall of each side over REPEATS alternating pairs.

    The side that runs first swaps every repeat.  Returns
    ``(current_s, prefault_s, syscalls)``; both sides must run the
    identical simulation.
    """
    best = {}
    syscalls = {}
    for repeat in range(REPEATS):
        for bind_prefault in ((False, True) if repeat % 2 == 0
                              else (True, False)):
            elapsed, syscalls[bind_prefault] = _timed_run(bind_prefault)
            best[bind_prefault] = min(best.get(bind_prefault, elapsed),
                                      elapsed)
    assert syscalls[False] == syscalls[True], syscalls
    return best[False], best[True], syscalls[False]


def _guard_cost_ns(loops=2_000_000):
    """Per-call cost of the disabled ``wake_filter`` guard pattern."""
    wake_filter = None
    sink = 0
    rng = range(loops)
    start = time.perf_counter()
    for _ in rng:
        if wake_filter is not None:
            sink += 1
    guarded = time.perf_counter() - start
    start = time.perf_counter()
    for _ in rng:
        pass
    empty = time.perf_counter() - start
    assert sink == 0
    # Unclamped: noise can make it negative, and it is reported so.
    return (guarded - empty) / loops * 1e9


def test_faults_disabled_overhead_within_budget(benchmark):
    def run():
        return _counted_pair() + _best_pair() + (_guard_cost_ns(),)

    (current_ops, prefault_ops, traced_syscalls, current_s, prefault_s,
     syscalls, guard_ns) = once(benchmark, run)
    overhead = current_ops / prefault_ops - 1.0

    lines = [
        "# Fault-machinery overhead with no faults armed.  'current' is",
        "# the shipped futex_wake, 'pre-fault' the same body without the",
        "# wake_filter check, each bound on the kernel instance, so the",
        "# difference isolates the hook.  Asserted: bytecodes executed",
        "# over a %d ms virtual window (budget: <%d%%).  Reported only:"
        % (TRACED_US // 1000, int(OVERHEAD_BUDGET * 100)),
        "# the best wall of %d alternating %d ms pairs, and the guard's"
        % (REPEATS, DURATION_US // 1000),
        "# own cost per call.",
        "config\tbytecodes\tvs_prefault\tsyscalls\twall_s"
        "\twall_vs_prefault\twall_syscalls\tguard_ns",
        "pre-fault\t%d\t1.00000x\t%d\t%.4f\t1.000x\t%d\t"
        % (prefault_ops, traced_syscalls, prefault_s, syscalls),
        "current\t%d\t%.5fx\t%d\t%.4f\t%.3fx\t%d\t%.2f"
        % (current_ops, current_ops / prefault_ops, traced_syscalls,
           current_s, current_s / prefault_s if prefault_s else 1.0,
           syscalls, guard_ns),
    ]
    write_result("chaos_overhead.txt", lines)

    assert overhead < OVERHEAD_BUDGET, (
        "faults-disabled kernel executes %.2f%% more bytecodes than the "
        "pre-fault hot path (budget %d%%)"
        % (overhead * 100, OVERHEAD_BUDGET * 100)
    )
