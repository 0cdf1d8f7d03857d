"""Scheduler-seam differential and EEVDF property tests.

Two halves, matching the seam's two claims:

1. **cfs is the pre-seam scheduler, bit for bit.**  Every pre-seam
   golden case replays to its committed digest with the policy
   selected *explicitly* (``sched="cfs"``) and the kernel's inlined
   head-of-queue dispatch shortcut disabled -- so the differential
   simultaneously proves that the seam's explicit selection equals the
   default path and that :meth:`RunQueue.pick_for_core` is
   behaviourally identical to the fast path it shadows.

2. **eevdf honors its invariants under arbitrary schedules.**  The
   queue-level hypothesis suite drives push / pick / charge
   interleavings and pins: virtual clocks never move backwards,
   per-thread eligibility/deadline stamps are monotone, picking is
   work-conserving (a non-empty feasible queue always yields a
   thread), and no thread starves (every continuously-runnable thread
   is served within a bounded number of picks).  A full-kernel run
   re-checks starvation end to end, and the committed c18/c20 golden
   pair proves the policy actually diverges from cfs on a contended
   case (a pin of a policy whose schedule never differs would be
   vacuous).

3. **the heap-indexed eevdf queue is the scan it replaced.**  A
   verbatim copy of the scan-based queue stays here as an oracle; a
   hypothesis differential drives both through identical push /
   push_front / pick / charge / remove scripts with affinity masks,
   DARC reservations and demotion windows, and compares every pick,
   the virtual clock, every thread's stamps and the queue order after
   each step.  The slow-path counter is pinned alongside: zero on an
   unconstrained queue, rising when the head is pinned, reserved
   against, or demoted.
"""

import json
import os
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.golden import first_divergence, run_golden_case
from repro.sim.kernel import Kernel
from repro.sim.scheduler import (
    DEFAULT_QUANTUM_US,
    Core,
    EevdfRunQueue,
    RunQueue,
    SCHED_POLICIES,
    SchedPolicy,
    make_run_queue,
)
from repro.sim.syscalls import Compute, Sleep
from repro.sim.thread import ThreadState

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: The pre-seam corpus: the 17 cases that existed before the scheduler
#: seam landed (their frozen digests live in test_golden_traces.py's
#: PRE_SEAM_DIGESTS table; here the committed documents are the
#: reference, so the two suites catch a drifting corpus from both
#: ends).
PRE_SEAM_CASES = tuple("c%d" % i for i in range(1, 18))

#: Cheap, structurally diverse representatives kept in the fast loop
#: (`pytest -m "not slow"`); the rest of the corpus carries a `slow`
#: mark.  CI's sched-matrix job and the full tier-1 run execute the
#: whole file, so all 17 differentials still gate every change.
_FAST_DIFFERENTIAL_CASES = frozenset({"c1", "c3", "c5", "c14", "c17"})

_DIFFERENTIAL_PARAMS = tuple(
    case_id if case_id in _FAST_DIFFERENTIAL_CASES
    else pytest.param(case_id, marks=pytest.mark.slow)
    for case_id in PRE_SEAM_CASES
)


def _load_golden(case_id):
    with open(os.path.join(GOLDEN_DIR, "%s.json" % case_id)) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Half 1: the cfs differential against the committed corpus.


@pytest.mark.parametrize("case_id", _DIFFERENTIAL_PARAMS)
def test_cfs_explicit_with_fast_path_disabled_matches_corpus(case_id):
    """Explicit cfs + disabled dispatch shortcut == committed digest.

    ``_fifo_fast_path = False`` forces every dispatch through
    :meth:`RunQueue.pick_for_core`; a digest match therefore proves
    the general scan and the inlined shortcut make identical decisions
    on the full corpus, and that selecting ``cfs`` by name is the
    default path.
    """
    golden = _load_golden(case_id)

    def disable_fast_path(env):
        env.kernel._fifo_fast_path = False

    actual = run_golden_case(case_id, golden["duration_s"],
                             golden["seed"], observer=disable_fast_path,
                             sched="cfs")
    assert first_divergence(golden, actual) is None, (
        "cfs with the dispatch fast path disabled diverged from the "
        "committed corpus on %s: pick_for_core is no longer equivalent "
        "to the inlined shortcut" % case_id)
    assert actual["digest"] == golden["digest"]


def test_policy_registry_capabilities():
    assert sorted(SCHED_POLICIES) == ["cfs", "eevdf"]
    assert RunQueue.fifo_fast_path is True
    assert EevdfRunQueue.fifo_fast_path is False
    with pytest.raises(ValueError):
        make_run_queue("o1-lottery")


def test_eevdf_pin_diverges_from_cfs():
    """The c18/c20 pair differ only in (sched, cores) -- and in digest.

    c20 exists to lock the EEVDF schedule down; that is only a real
    pin because the schedule differs from what cfs produces.  The
    corpus documents carry distinct digests, which this asserts so a
    future change that silently degenerates eevdf into FIFO (it
    happened during development: without the place_entity rule the
    virtual clock outruns every vruntime and deadlines follow arrival
    order exactly) turns the golden pair into a loud failure here.
    """
    cfs_doc = _load_golden("c18")
    eevdf_doc = _load_golden("c20")
    assert eevdf_doc["digest"] != cfs_doc["digest"]


# ---------------------------------------------------------------------------
# Half 2: EEVDF queue-level invariants under hypothesis.


class _FakeThread:
    """The thread-field slice the scheduler protocol is allowed to read."""

    __slots__ = ("tid", "state", "affinity", "demoted_until_us",
                 "vruntime_us", "v_eligible_us", "v_deadline_us")

    def __init__(self, tid):
        self.tid = tid
        self.state = ThreadState.NEW
        self.affinity = None
        self.demoted_until_us = 0
        self.vruntime_us = 0
        self.v_eligible_us = 0
        self.v_deadline_us = 0

    def __repr__(self):
        return "F%d" % self.tid


#: One scripted step: either push thread ``i`` (if not queued) or pick
#: a thread and charge it ``ran_us`` of service, re-queueing it.
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 5)),
        st.tuples(st.just("pick"), st.integers(1, 2_000)),
    ),
    min_size=1, max_size=200,
)


@settings(max_examples=80, deadline=None)
@given(steps=_STEPS)
def test_eevdf_clocks_and_stamps_are_monotone(steps):
    """vtime, per-thread vruntime, and per-thread stamps never regress,
    and picking is work-conserving on an unconstrained queue."""
    queue = EevdfRunQueue(slice_us=1_000)
    core = Core(0)
    threads = {i: _FakeThread(i) for i in range(6)}
    queued = set()
    last_stamp = {}
    for op, arg in steps:
        vtime_before = queue.vtime_us
        if op == "push":
            if arg in queued:
                continue
            thread = threads[arg]
            vruntime_before = thread.vruntime_us
            queue.push(thread)
            queued.add(arg)
            assert thread.vruntime_us >= vruntime_before
            stamp = (thread.v_eligible_us, thread.v_deadline_us)
            previous = last_stamp.get(arg)
            if previous is not None:
                assert stamp >= previous, (
                    "re-push moved thread %d's stamps backwards" % arg)
            last_stamp[arg] = stamp
            assert thread.v_deadline_us == \
                thread.v_eligible_us + queue.slice_us
        else:
            picked = queue.pick_for_core(core)
            if not queued:
                assert picked is None
                continue
            # Work conservation: every queued thread is feasible here.
            assert picked is not None
            queued.discard(picked.tid)
            queue.charge(picked, arg)
            assert picked.vruntime_us >= picked.v_eligible_us
        assert queue.vtime_us >= vtime_before, "virtual clock regressed"


@settings(max_examples=40, deadline=None)
@given(population=st.integers(2, 8), ran_us=st.integers(1, 1_500),
       rounds=st.integers(30, 120))
def test_eevdf_no_starvation_uniform_service(population, ran_us, rounds):
    """Under homogeneous slices, every thread is served every window.

    Each pick charges the same service amount and immediately re-queues
    the thread (the saturated-CPU steady state with equal demand --
    what the kernel produces, since it charges actual CPU consumed,
    capped by one quantum).  A waiting thread's deadline is fixed while
    everyone else's grows with service, so any window of ``2 *
    population`` consecutive picks must serve every thread at least
    once; pick-count starvation would mean the deadline ordering broke.
    """
    queue = EevdfRunQueue(slice_us=1_000)
    core = Core(0)
    threads = [_FakeThread(i) for i in range(population)]
    for thread in threads:
        queue.push(thread)
    window = []
    for _ in range(rounds):
        picked = queue.pick_for_core(core)
        assert picked is not None
        queue.charge(picked, ran_us)
        queue.push(picked)
        window.append(picked.tid)
        if len(window) >= 2 * population:
            recent = set(window[-2 * population:])
            assert recent == set(range(population)), (
                "threads %s starved over a %d-pick window"
                % (sorted(set(range(population)) - recent),
                   2 * population))


@settings(max_examples=60, deadline=None)
@given(population=st.integers(2, 8),
       charges=st.lists(st.integers(1, 1_500), min_size=20, max_size=120))
def test_eevdf_service_lag_is_bounded(population, charges):
    """Heterogeneous service keeps vruntime spread bounded (no
    starvation in service units).

    With per-pick service amounts chosen adversarially, pick *counts*
    are legitimately uneven (EEVDF equalizes service, not picks), but
    the service spread may not diverge: the picked thread always holds
    the globally minimum eligible stamp, so after its charge it can
    overshoot the laggard by at most one charge; the place rule keeps
    re-entering threads pinned to the virtual clock.  Unbounded spread
    is exactly what starvation looks like in service units.
    """
    queue = EevdfRunQueue(slice_us=1_000)
    core = Core(0)
    threads = [_FakeThread(i) for i in range(population)]
    for thread in threads:
        queue.push(thread)
    bound = max(charges) + queue.slice_us
    for ran_us in charges:
        picked = queue.pick_for_core(core)
        assert picked is not None
        queue.charge(picked, ran_us)
        queue.push(picked)
        spread = max(t.vruntime_us for t in threads) \
            - min(t.vruntime_us for t in threads)
        assert spread <= bound, (
            "service spread %d exceeded bound %d: some thread is "
            "falling ever further behind" % (spread, bound))


def test_eevdf_latecomer_leapfrogs_overserved_thread():
    """A fresh thread outranks one that ran past its fair share.

    Divergence from FIFO needs run-queue contention: with a competitor
    queued, the virtual clock advances at half the hog's service rate,
    so the hog's re-push stamps land a full slice *ahead* of the clock
    while a latecomer is placed *at* the clock with an earlier
    deadline.  (A lone runner accrues zero lag -- the clock tracks it
    at full rate -- which is why the c20 golden pins a saturated
    3-core case.)
    """
    queue = EevdfRunQueue(slice_us=1_000)
    core = Core(0)
    hog, waiter, latecomer = (_FakeThread(i) for i in range(3))
    queue.push(hog)
    queue.push(waiter)
    picked = queue.pick_for_core(core)
    assert picked is hog  # deadline tie -> arrival order
    queue.charge(hog, 1_000)
    queue.push(hog)  # hog now a full slice ahead of the virtual clock
    queue.push(latecomer)
    order = [queue.pick_for_core(core).tid for _ in range(3)]
    assert order.index(latecomer.tid) < order.index(hog.tid), (
        "expected the latecomer to be served before the over-served "
        "hog, got pick order %s" % order)


def test_eevdf_demoted_threads_yield_to_normal_ones():
    queue = EevdfRunQueue(slice_us=1_000)
    core = Core(0)
    demoted, normal = _FakeThread(0), _FakeThread(1)
    queue.push(demoted)
    queue.push(normal)
    demoted.demoted_until_us = 10 ** 9  # demoted far past _now() == 0
    assert queue.pick_for_core(core) is normal
    assert queue.pick_for_core(core) is demoted  # fallback when alone
    assert queue.pick_for_core(core) is None


def test_eevdf_respects_affinity_and_reservation():
    queue = EevdfRunQueue(slice_us=1_000)
    pinned = _FakeThread(0)
    pinned.affinity = {1}
    queue.push(pinned)
    core0, core1 = Core(0), Core(1)
    assert queue.pick_for_core(core0) is None
    assert queue.pick_for_core(core1) is pinned
    reserved_core = Core(0)
    reserved_core.reserved_for = "tenant-x"
    outsider = _FakeThread(1)
    queue.push(outsider)
    assert queue.pick_for_core(reserved_core) is None
    assert queue.pick_for_core(core0) is outsider


# ---------------------------------------------------------------------------
# Half 3: the heap-indexed eevdf queue against the scan it replaced.


class _ScanEevdfRunQueue(SchedPolicy):
    """Reference oracle: the scan-based eevdf queue, method for method
    as it shipped before the run queue became a heap (a deque scanned
    up to three times per pick, ties broken by scan position)."""

    name = "eevdf"
    fifo_fast_path = False

    def __init__(self, slice_us=DEFAULT_QUANTUM_US):
        self._queue = deque()
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
        """Stamp eligibility/deadline and append a READY thread."""
        self._enter(thread)
        self._queue.append(thread)

    def push_front(self, thread):
        """Handed-back slice: same stamping, earlier tie-break rank."""
        self._enter(thread)
        self._queue.appendleft(thread)

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

    def pick_for_core(self, core):
        """Dequeue the earliest-deadline eligible thread for ``core``.

        Demoted threads are only picked when no normal feasible thread
        exists, mirroring the FIFO policy's demotion semantics (with
        min-deadline order among the demoted).
        """
        queue = self._queue
        if not queue:
            return None
        now = self._now()
        reserved = core.reserved_for
        min_eligible = None
        for thread in queue:
            if not self._feasible(thread, core, reserved):
                continue
            if thread.demoted_until_us > now:
                continue
            ve = thread.v_eligible_us
            if min_eligible is None or ve < min_eligible:
                min_eligible = ve
        if min_eligible is not None:
            if self.vtime_us < min_eligible:
                # Work conservation: never idle a core while a feasible
                # thread is queued -- jump the virtual clock to the
                # first eligible point.
                self.vtime_us = min_eligible
            vtime = self.vtime_us
            best = None
            best_index = -1
            for i, thread in enumerate(queue):
                if not self._feasible(thread, core, reserved):
                    continue
                if thread.demoted_until_us > now:
                    continue
                if thread.v_eligible_us > vtime:
                    continue
                if best is None or thread.v_deadline_us < best.v_deadline_us:
                    best = thread
                    best_index = i
            del queue[best_index]
            return best
        # Only demoted threads fit (or nothing does): min-deadline
        # among the feasible demoted threads.
        best = None
        best_index = -1
        for i, thread in enumerate(queue):
            if not self._feasible(thread, core, reserved):
                continue
            if best is None or thread.v_deadline_us < best.v_deadline_us:
                best = thread
                best_index = i
        if best is None:
            return None
        del queue[best_index]
        return best

    def snapshot_state(self):
        """JSON-safe policy state (checkpoint walker)."""
        return {
            "vtime_us": self.vtime_us,
            "queued": [
                (t.tid, t.vruntime_us, t.v_eligible_us, t.v_deadline_us)
                for t in self._queue
            ],
        }


class _TaggedThread(_FakeThread):
    """A fake thread that also carries the DARC request-type tag."""

    __slots__ = ("darc_tag",)

    def __init__(self, tid):
        super().__init__(tid)
        self.darc_tag = None


_POPULATION = 6
_TAGS = (None, "a", "b")

#: One differential step.  ``pick`` charges the picked thread
#: ``ran_us`` (the kernel's slice end) and then re-queues it with
#: ``requeue`` (``None`` leaves it off-queue, as a blocking thread);
#: ``charge`` bills an off-queue thread again; ``demote`` opens a
#: window relative to the current clock (a non-positive offset gives an
#: already-expired window); ``retag`` rewrites a thread's affinity mask
#: and DARC tag, queued or not.
_AFFINITIES = st.none() | st.frozensets(st.integers(0, 2), min_size=1)
_THREAD_IDS = st.integers(0, _POPULATION - 1)
_PICK = st.tuples(st.just("pick"), st.integers(0, 2), st.integers(0, 2_500),
                  st.sampled_from((None, "push", "push_front")))
_DIFF_STEPS = st.lists(
    st.one_of(
        _PICK,
        _PICK,  # twice: picks are the operation under test
        st.tuples(st.just("push"), _THREAD_IDS),
        st.tuples(st.just("push_front"), _THREAD_IDS),
        st.tuples(st.just("charge"), _THREAD_IDS, st.integers(0, 2_500)),
        st.tuples(st.just("remove"), _THREAD_IDS),
        st.tuples(st.just("demote"), _THREAD_IDS,
                  st.integers(-1_500, 3_000)),
        st.tuples(st.just("advance"), st.integers(1, 2_000)),
        st.tuples(st.just("retag"), _THREAD_IDS, _AFFINITIES,
                  st.sampled_from(_TAGS)),
    ),
    min_size=20, max_size=150,
)

#: Per-core DARC reservations (one to three cores).
_RESERVATIONS = st.lists(st.sampled_from(_TAGS), min_size=1, max_size=3)

#: Each thread's starting (affinity, DARC tag, demotion offset).
_CONSTRAINTS = st.lists(
    st.tuples(_AFFINITIES, st.sampled_from(_TAGS),
              st.integers(-1_500, 3_000)),
    min_size=_POPULATION, max_size=_POPULATION)


def _stamps(threads):
    return [(t.tid, t.state, t.vruntime_us, t.v_eligible_us,
             t.v_deadline_us) for t in threads]


def _tid(thread):
    return None if thread is None else thread.tid


def _run_differential(steps, reservations, constraints=None):
    """Drive the heap queue and the scan oracle through ``steps``.

    Every thread is pushed once before the script starts, so picks see
    a populated queue.  Each queue owns its own thread copies (both
    mutate stamps); after every step the result, the virtual clock,
    every thread's stamps and the queue order must agree.  Returns the
    heap queue.
    """
    clock = [0]
    heap, scan = EevdfRunQueue(slice_us=1_000), \
        _ScanEevdfRunQueue(slice_us=1_000)
    for queue in (heap, scan):
        queue._now = lambda: clock[0]
    cores = []
    for index, tag in enumerate(reservations):
        core = Core(index)
        core.reserved_for = tag
        cores.append(core)
    mine = [_TaggedThread(i) for i in range(_POPULATION)]
    theirs = [_TaggedThread(i) for i in range(_POPULATION)]
    for tid, (affinity, tag, demote) in enumerate(constraints or ()):
        for thread in (mine[tid], theirs[tid]):
            thread.affinity = affinity
            thread.darc_tag = tag
            thread.demoted_until_us = max(0, demote)
    queued = set()
    for step in [("push", tid) for tid in range(_POPULATION)] + steps:
        op, arg = step[0], step[1]
        if op in ("push", "push_front"):
            if arg in queued:
                continue
            getattr(heap, op)(mine[arg])
            getattr(scan, op)(theirs[arg])
            queued.add(arg)
        elif op == "pick":
            core = cores[arg % len(cores)]
            picked = heap.pick_for_core(core)
            expected = scan.pick_for_core(core)
            assert _tid(picked) == _tid(expected), (
                "pick diverged on core %d: heap %r vs scan %r"
                % (core.index, picked, expected))
            if picked is not None:
                queued.discard(picked.tid)
                heap.charge(picked, step[2])
                scan.charge(expected, step[2])
                if step[3] is not None:
                    getattr(heap, step[3])(picked)
                    getattr(scan, step[3])(expected)
                    queued.add(picked.tid)
        elif op == "charge":
            if arg in queued:
                continue
            heap.charge(mine[arg], step[2])
            scan.charge(theirs[arg], step[2])
        elif op == "remove":
            assert heap.remove(mine[arg]) == scan.remove(theirs[arg])
            queued.discard(arg)
        elif op == "demote":
            until = max(1, clock[0] + step[2])
            mine[arg].demoted_until_us = theirs[arg].demoted_until_us = until
        elif op == "advance":
            clock[0] += arg
        else:
            for thread in (mine[arg], theirs[arg]):
                thread.affinity = step[2]
                thread.darc_tag = step[3]
        assert heap.vtime_us == scan.vtime_us
        assert _stamps(mine) == _stamps(theirs)
        assert [t.tid for t in heap.threads()] == \
            [t.tid for t in scan.threads()]
        assert len(heap) == len(scan) == len(queued)
        assert heap.snapshot_state() == scan.snapshot_state()
    return heap


@settings(max_examples=300, deadline=None)
@given(steps=_DIFF_STEPS, reservations=_RESERVATIONS,
       constraints=_CONSTRAINTS)
def test_eevdf_heap_matches_scan_oracle(steps, reservations, constraints):
    """Affinity, DARC reservations and demotion: every pick agrees."""
    _run_differential(steps, reservations, constraints)


_UNCONSTRAINED_STEPS = _DIFF_STEPS.map(lambda steps: [
    step for step in steps if step[0] not in ("demote", "retag")])


@settings(max_examples=100, deadline=None)
@given(steps=_UNCONSTRAINED_STEPS, cores=st.integers(1, 3))
def test_eevdf_heap_unconstrained_never_takes_slow_path(steps, cores):
    """No affinity, reservation or demotion: every pick is a heappop."""
    heap = _run_differential(steps, [None] * cores)
    assert heap.slow_picks == 0


def _queue_with_head(**fields):
    """An eevdf queue whose head thread carries ``fields``."""
    queue = EevdfRunQueue(slice_us=1_000)
    queue._now = lambda: 5_000
    head, other = _TaggedThread(0), _TaggedThread(1)
    for name, value in fields.items():
        setattr(head, name, value)
    queue.push(head)
    queue.push(other)
    return queue, head, other


def test_eevdf_slow_picks_count_constrained_heads():
    core = Core(0)
    queue, head, other = _queue_with_head(affinity=frozenset({1}))
    assert queue.pick_for_core(core) is other
    assert queue.slow_picks == 1
    queue, head, other = _queue_with_head(demoted_until_us=9_000)
    assert queue.pick_for_core(core) is other
    assert queue.slow_picks == 1
    # An expired demotion window keeps the head on the fast path.
    queue, head, other = _queue_with_head(demoted_until_us=4_000)
    assert queue.pick_for_core(core) is head
    assert queue.slow_picks == 0
    reserved = Core(0)
    reserved.reserved_for = "a"
    queue, head, other = _queue_with_head()
    other.darc_tag = "a"
    assert queue.pick_for_core(reserved) is other
    assert queue.pick_for_core(reserved) is None
    assert queue.slow_picks == 2


def test_cfs_slow_picks_count_picks_past_head_shortcut():
    queue = RunQueue()
    core = Core(0)
    free, pinned = _TaggedThread(0), _TaggedThread(1)
    pinned.affinity = frozenset({1})
    queue.push(free)
    queue.push(pinned)
    assert queue.pick_for_core(core) is free
    assert queue.slow_picks == 0
    assert queue.pick_for_core(core) is None
    assert queue.slow_picks == 1


# ---------------------------------------------------------------------------
# Full-kernel EEVDF: end-to-end starvation check on a saturated core.


def test_eevdf_full_kernel_serves_every_thread():
    """On one eevdf core, compute hogs cannot starve periodic sleepers."""
    kernel = Kernel(cores=1, seed=7, sched="eevdf")
    progress = {"hog": 0, "sleeper": 0}

    def hog():
        for _ in range(200):
            yield Compute(us=900)
            progress["hog"] += 1

    def sleeper():
        for _ in range(50):
            yield Sleep(us=500)
            yield Compute(us=100)
            progress["sleeper"] += 1

    kernel.spawn(hog, name="hog-a")
    kernel.spawn(hog, name="hog-b")
    kernel.spawn(sleeper, name="sleeper")
    kernel.run(until_us=150_000)
    assert progress["hog"] > 0
    assert progress["sleeper"] >= 40, (
        "the sleeper made only %d/50 iterations by 150ms on a "
        "saturated eevdf core -- it is being starved"
        % progress["sleeper"])


def test_eevdf_full_kernel_deterministic():
    """Same seed + sched -> byte-identical final kernel state."""

    def build_and_run():
        kernel = Kernel(cores=2, seed=3, sched="eevdf")
        done = []

        def worker(i):
            def body():
                for _ in range(20 + i):
                    yield Compute(us=150 + 17 * i)
                    yield Sleep(us=40)
                done.append(i)
            return body

        for i in range(6):
            kernel.spawn(worker(i), name="w%d" % i)
        kernel.run(until_us=100_000)
        return done, kernel.now_us, dict(kernel.stats), \
            kernel.run_queue.snapshot_state()["vtime_us"]

    assert build_and_run() == build_and_run()
