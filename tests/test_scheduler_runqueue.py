"""Unit tests for the run queue's picking rules."""

from repro.sim.scheduler import Core, RunQueue
from repro.sim.thread import SimThread, ThreadState


def make_thread(name, affinity=None):
    def body():
        yield

    return SimThread(body, name=name, affinity=affinity)


def make_queue(now_us=0):
    queue = RunQueue()
    queue._now = lambda: now_us
    return queue


def test_fifo_order():
    queue = make_queue()
    first, second = make_thread("a"), make_thread("b")
    queue.push(first)
    queue.push(second)
    core = Core(0)
    assert queue.pick_for_core(core) is first
    assert queue.pick_for_core(core) is second
    assert queue.pick_for_core(core) is None


def test_push_sets_ready_state():
    queue = make_queue()
    thread = make_thread("t")
    queue.push(thread)
    assert thread.state is ThreadState.READY


def test_affinity_respected():
    queue = make_queue()
    pinned = make_thread("pinned", affinity={1})
    free = make_thread("free")
    queue.push(pinned)
    queue.push(free)
    core0 = Core(0)
    # pinned cannot run on core 0; free is picked instead.
    assert queue.pick_for_core(core0) is free
    core1 = Core(1)
    assert queue.pick_for_core(core1) is pinned


def test_reserved_core_only_accepts_matching_tag():
    queue = make_queue()
    tagged = make_thread("tagged")
    tagged.darc_tag = "short"
    untagged = make_thread("untagged")
    queue.push(untagged)
    queue.push(tagged)
    reserved = Core(0)
    reserved.reserved_for = "short"
    assert queue.pick_for_core(reserved) is tagged
    assert queue.pick_for_core(reserved) is None  # untagged stays queued
    normal = Core(1)
    assert queue.pick_for_core(normal) is untagged


def test_demoted_thread_skipped_while_normal_available():
    queue = make_queue(now_us=1_000)
    demoted = make_thread("demoted")
    demoted.demoted_until_us = 5_000
    normal = make_thread("normal")
    queue.push(demoted)
    queue.push(normal)
    assert queue.pick_for_core(Core(0)) is normal
    # Only the demoted thread remains: it still runs (no starvation).
    assert queue.pick_for_core(Core(0)) is demoted


def test_demotion_lapses_with_time():
    queue = make_queue(now_us=10_000)
    thread = make_thread("t")
    thread.demoted_until_us = 5_000  # already expired
    other = make_thread("o")
    queue.push(thread)
    queue.push(other)
    # Expired demotion: plain FIFO applies.
    assert queue.pick_for_core(Core(0)) is thread


def test_remove_from_queue():
    queue = make_queue()
    thread = make_thread("t")
    queue.push(thread)
    assert queue.remove(thread) is True
    assert queue.remove(thread) is False
    assert len(queue) == 0


def test_threads_snapshot():
    queue = make_queue()
    threads = [make_thread("t%d" % i) for i in range(3)]
    for thread in threads:
        queue.push(thread)
    assert queue.threads() == threads
