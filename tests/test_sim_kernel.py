"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    Compute,
    DeadlockError,
    FutexWait,
    FutexWake,
    Join,
    Kernel,
    Now,
    SimThread,
    Sleep,
    Spawn,
    ThreadState,
    Yield,
)


def test_compute_advances_virtual_time():
    kernel = Kernel(cores=1)
    seen = {}

    def body():
        yield Compute(us=1_000)
        seen["t"] = yield Now()

    kernel.spawn(body)
    kernel.run()
    assert seen["t"] == 1_000


def test_sleep_does_not_consume_cpu():
    kernel = Kernel(cores=1)

    def body():
        yield Sleep(us=5_000)

    thread = kernel.spawn(body)
    kernel.run()
    assert kernel.now_us == 5_000
    assert thread.cpu_time_us == 0


def test_two_threads_share_one_core():
    kernel = Kernel(cores=1)
    done = {}

    def body(name):
        yield Compute(us=10_000)
        done[name] = yield Now()

    kernel.spawn(lambda: body("a"))
    kernel.spawn(lambda: body("b"))
    kernel.run()
    # 20 ms of total work on one core: the later finisher lands at 20 ms.
    assert max(done.values()) == 20_000


def test_two_threads_on_two_cores_run_in_parallel():
    kernel = Kernel(cores=2)
    done = {}

    def body(name):
        yield Compute(us=10_000)
        done[name] = yield Now()

    kernel.spawn(lambda: body("a"))
    kernel.spawn(lambda: body("b"))
    kernel.run()
    assert done["a"] == 10_000
    assert done["b"] == 10_000


def test_round_robin_interleaves_threads():
    kernel = Kernel(cores=1, quantum_us=1_000)
    finish = {}

    def body(name):
        yield Compute(us=3_000)
        finish[name] = yield Now()

    kernel.spawn(lambda: body("a"))
    kernel.spawn(lambda: body("b"))
    kernel.run()
    # With 1 ms quanta both finish within one quantum of each other,
    # rather than a finishing fully before b starts.
    assert abs(finish["a"] - finish["b"]) <= 1_000


def test_fractional_quantum_is_truncated():
    """A fractional quantum runs as its whole-microsecond part."""

    def finishes(quantum_us):
        kernel = Kernel(cores=1, quantum_us=quantum_us)
        finish = {}

        def body(name):
            yield Compute(us=3_000)
            finish[name] = yield Now()

        kernel.spawn(lambda: body("a"))
        kernel.spawn(lambda: body("b"))
        kernel.run()
        return finish

    assert finishes(999.5) == finishes(999)


def test_futex_wait_and_wake():
    kernel = Kernel(cores=2)
    key = object()
    log = []

    def waiter():
        woken = yield FutexWait(key)
        log.append(("woken", woken, (yield Now())))

    def waker():
        yield Sleep(us=2_000)
        count = yield FutexWake(key)
        log.append(("woke_n", count))

    kernel.spawn(waiter)
    kernel.spawn(waker)
    kernel.run()
    assert ("woke_n", 1) in log
    assert ("woken", True, 2_000) in log


def test_futex_timeout_returns_false():
    kernel = Kernel(cores=1)
    result = {}

    def waiter():
        result["woken"] = yield FutexWait(object(), timeout_us=1_500)

    kernel.spawn(waiter)
    kernel.run()
    assert result["woken"] is False
    assert kernel.now_us == 1_500


def test_futex_wake_without_waiters_returns_zero():
    kernel = Kernel(cores=1)
    result = {}

    def body():
        result["n"] = yield FutexWake(object())

    kernel.spawn(body)
    kernel.run()
    assert result["n"] == 0


def test_spawn_and_join():
    kernel = Kernel(cores=2)
    result = {}

    def child():
        yield Compute(us=4_000)
        return 42

    def parent():
        thread = yield Spawn(SimThread(child, name="child"))
        result["value"] = yield Join(thread)
        result["t"] = yield Now()

    kernel.spawn(parent)
    kernel.run()
    assert result["value"] == 42
    assert result["t"] == 4_000


def test_join_already_exited_thread():
    kernel = Kernel(cores=1)
    result = {}

    def child():
        yield Compute(us=100)
        return "done"

    def parent(child_thread):
        yield Sleep(us=10_000)
        result["value"] = yield Join(child_thread)

    child_thread = kernel.spawn(child)
    kernel.spawn(lambda: parent(child_thread))
    kernel.run()
    assert result["value"] == "done"


def test_deadlock_detection():
    kernel = Kernel(cores=1)

    def stuck():
        yield FutexWait(object())

    kernel.spawn(stuck)
    with pytest.raises(DeadlockError):
        kernel.run()


def test_run_until_bounds_time():
    kernel = Kernel(cores=1)

    def forever():
        while True:
            yield Sleep(us=1_000)

    kernel.spawn(forever)
    kernel.run(until_us=10_500)
    assert kernel.now_us == 10_500


def test_yield_relinquishes_cpu():
    kernel = Kernel(cores=1)
    order = []

    def spinner():
        order.append("spinner-start")
        yield Yield()
        order.append("spinner-end")

    def other():
        order.append("other")
        yield Compute(us=0)

    kernel.spawn(spinner)
    kernel.spawn(other)
    kernel.run()
    assert order.index("other") < order.index("spinner-end")


def test_spawn_after_delays_start():
    kernel = Kernel(cores=1)
    seen = {}

    def late():
        seen["start"] = yield Now()

    kernel.spawn_after(7_000, late)
    kernel.run()
    assert seen["start"] == 7_000


def test_cgroup_quota_throttles_thread():
    kernel = Kernel(cores=2)
    # 20% CPU: 20 ms per 100 ms period.
    group = kernel.create_cgroup("slow", quota_us=20_000)
    done = {}

    def body(name):
        yield Compute(us=40_000)
        done[name] = yield Now()

    kernel.spawn(lambda: body("limited"), cgroup=group)
    kernel.spawn(lambda: body("free"))
    kernel.run()
    assert done["free"] == 40_000
    # 40 ms of work at 20 ms per 100 ms: finishes in the second period.
    assert done["limited"] >= 100_000


def test_cgroup_quota_change_takes_effect():
    kernel = Kernel(cores=1)
    group = kernel.create_cgroup("g", quota_us=10_000)
    done = {}

    def body():
        yield Compute(us=30_000)
        done["t"] = yield Now()

    kernel.spawn(body, cgroup=group)
    # Lift the quota after the first period.
    kernel.post(100_000, lambda: group.set_quota(None))
    kernel.run()
    # First period does 10 ms; remaining 20 ms run unthrottled after 100 ms.
    assert 100_000 <= done["t"] <= 125_000


def test_resume_hook_injects_delay_once():
    kernel = Kernel(cores=1)
    penalized = {"done": False}
    times = {}

    def hook(thread):
        if thread.name == "noisy" and not penalized["done"]:
            penalized["done"] = True
            return 5_000
        return 0

    kernel.add_resume_hook(hook)

    def noisy():
        yield Compute(us=1_000)
        times["after"] = yield Now()

    kernel.spawn(noisy, name="noisy")
    kernel.run()
    # 5 ms penalty applied before the first syscall plus 1 ms compute.
    assert times["after"] == 6_000
    assert kernel.stats["penalties"] == 1
    assert kernel.stats["penalty_us"] == 5_000


def test_charge_current_adds_overhead_before_next_syscall():
    kernel = Kernel(cores=1)
    times = {}

    def body():
        yield Compute(us=1_000)
        kernel.charge_current(250)
        yield Sleep(us=1_000)
        times["end"] = yield Now()

    kernel.spawn(body)
    kernel.run()
    assert times["end"] == 2_250


def test_affinity_restricts_cores():
    kernel = Kernel(cores=2)
    done = {}

    def body(name):
        yield Compute(us=10_000)
        done[name] = yield Now()

    kernel.spawn(lambda: body("pinned-a"), affinity={0})
    kernel.spawn(lambda: body("pinned-b"), affinity={0})
    kernel.run()
    # Both pinned to core 0: serialized, 20 ms total.
    assert max(done.values()) == 20_000


def test_thread_crash_is_reported():
    from repro.sim.errors import ThreadCrashedError

    kernel = Kernel(cores=1)

    def bad():
        yield Compute(us=10)
        raise RuntimeError("boom")

    kernel.spawn(bad, name="bad")
    with pytest.raises(ThreadCrashedError):
        kernel.run()
