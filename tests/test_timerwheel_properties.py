"""Property tests for the hierarchical timer wheel.

The wheel replaced the kernel's single global event heap, so its
contract is checked against the thing it replaced: a sorted-heap model.
For arbitrary interleavings of arm / cancel / pop-up-to-limit the wheel
must fire exactly the timers the heap would fire, in exactly the heap's
``(when, seq)`` order -- never losing a timer, never firing a cancelled
one, never firing early, regardless of which level (due block, the
three far levels, or the overflow heap) an entry cascades through.

The operation stream mirrors how the kernel drives the wheel: pops use
a monotone ``limit`` (the run horizon), a ``None`` pop advances virtual
time to the limit, and no arm ever targets the past (the kernel clamps
``post()`` to ``now``).  Three more operations aim at the zero-delay
lane, which holds every timer armed at the wheel's cursor: arms
exactly at the cursor right after a pop returned an entry (the kernel's
zero-length slices), arms below the cursor (which the wheel clamps to
it), and pops whose limit lies below the cursor (which fire nothing).
After every operation the wheel's ``snapshot_entries()`` must equal
the model's live ``(when, seq)`` pairs.
"""

import heapq
import itertools

from hypothesis import example, given, settings, strategies as st

from repro.sim.timerwheel import TimerWheel


class _FakeTimer:
    __slots__ = ("cancelled", "name")

    def __init__(self, name):
        self.cancelled = False
        self.name = name

    def __repr__(self):
        return "T%d%s" % (self.name, "x" if self.cancelled else "")


#: Deltas spanning every wheel level: the due block (< 1024 us), the
#: three far levels (up to ~2^40 us), and the overflow heap beyond.
_DELTAS = st.one_of(
    st.integers(0, 1023),
    st.integers(1024, (1 << 20) - 1),
    st.integers(1 << 20, (1 << 30) - 1),
    st.integers(1 << 30, (1 << 40) + 10_000),
)

_OPS = st.lists(
    st.one_of(
        # Arm one to three timers at now + delta: same-time entries are
        # what the lane must not overtake once the cursor reaches them.
        st.tuples(st.just("arm"), st.tuples(_DELTAS, st.integers(1, 3))),
        st.tuples(st.just("cancel"), st.integers(0, 10 ** 6)),
        st.tuples(st.just("pop"), st.integers(0, 1 << 22)),
        # Pop one entry (limit now + delta); if one fired, arm n timers
        # at its time, which is where the cursor now stands.
        st.tuples(st.just("pop_arm_at_cursor"),
                  st.tuples(st.integers(0, 1 << 12), st.integers(1, 4))),
        st.tuples(st.just("arm_below_cursor"), st.integers(1, 1 << 12)),
        st.tuples(st.just("pop_below_cursor"), st.integers(1, 1 << 12)),
    ),
    max_size=120,
)


def _model_pop(model, limit):
    """Pop the next live entry from the heap model, or None."""
    while model and model[0][0] <= limit:
        when, seq, timer = heapq.heappop(model)
        if timer.cancelled:
            continue
        return when, timer
    return None


def _drain(wheel, model, limit, now):
    """Pop both sides until empty; assert they agree entry by entry."""
    fired = []
    while True:
        expected = _model_pop(model, limit)
        actual = wheel.pop_next(limit)
        assert actual == expected, (
            "wheel fired %r but the heap model fired %r (limit=%d)"
            % (actual, expected, limit))
        if actual is None:
            return fired, max(now, limit)
        when, timer = actual
        assert not timer.cancelled
        assert when <= limit
        assert when >= now, "fired in the past: %d < now %d" % (when, now)
        now = when
        fired.append(actual)


def _live(model):
    """The model's live ``(when, seq)`` pairs in firing order."""
    return sorted((when, seq) for when, seq, timer in model
                  if not timer.cancelled)


@settings(max_examples=120, deadline=None)
@given(ops=_OPS)
# The lane's three obligations, each as the shortest stream that needs
# it: a due entry at the cursor fires before the lane; a limit below
# the cursor fires nothing from the lane; the snapshot walks the lane.
@example(ops=[("arm", (5, 2)), ("pop_arm_at_cursor", (5, 1)), ("pop", 0)])
@example(ops=[("arm", (5, 1)), ("pop_arm_at_cursor", (5, 2)),
              ("arm_below_cursor", 3), ("pop_below_cursor", 1)])
@example(ops=[("arm", (0, 1))])
def test_wheel_matches_heap_model(ops):
    wheel = TimerWheel()
    model = []  # heap of (when, seq, timer)
    armed = []  # every timer ever armed, for the cancel op + final audit
    seq = itertools.count()
    now = 0
    # The wheel's cursor while the model knows it: it starts at 0 and
    # stands at every popped entry's time.  A pop that returns None may
    # leave it anywhere up to its limit, so it is unknown (None) until
    # the next pop returns an entry.
    cursor = 0
    name = itertools.count()

    def arm(when, clamped):
        timer = _FakeTimer(next(name))
        tick = next(seq)
        heapq.heappush(model, (clamped, tick, timer))
        wheel.insert(when, tick, timer)
        armed.append((clamped, timer))

    for op, value in ops:
        if op == "arm":
            delta, count = value
            for _ in range(count):
                arm(now + delta, now + delta)
        elif op == "cancel" and armed:
            armed[value % len(armed)][1].cancelled = True
        elif op == "pop":
            limit = now + value
            fired, now = _drain(wheel, model, limit, now)
            for when, timer in fired:
                timer.cancelled = True  # mark fired; must never re-fire
            cursor = None
        elif op == "pop_arm_at_cursor":
            delta, count = value
            expected = _model_pop(model, now + delta)
            actual = wheel.pop_next(now + delta)
            assert actual == expected
            if actual is None:
                now, cursor = now + delta, None
            else:
                assert actual[0] >= now and not actual[1].cancelled
                now = cursor = actual[0]
                actual[1].cancelled = True  # fired; must never re-fire
                for _ in range(count):
                    arm(cursor, cursor)
        elif op == "arm_below_cursor" and cursor is not None:
            arm(cursor - value, cursor)
        elif op == "pop_below_cursor" and cursor is not None:
            assert _model_pop(model, cursor - value) is None
            assert wheel.pop_next(cursor - value) is None
        assert wheel.snapshot_entries() == _live(model), op

    # Final drain far beyond every representable entry: nothing live
    # may be lost, and order must still match the model.
    live = [t for _, t in wheel.pending() if not t.cancelled]
    assert len(live) == sum(1 for _, t in armed if not t.cancelled)
    _drain(wheel, model, 1 << 50, now)
    assert not wheel.has_live_timer()
    assert [t for _, t in wheel.pending() if not t.cancelled] == []


@settings(max_examples=60, deadline=None)
@given(deltas=st.lists(_DELTAS, min_size=1, max_size=60),
       limit_step=st.integers(1, 1 << 41))
def test_every_armed_timer_fires_exactly_once_in_order(deltas, limit_step):
    """No cancels: every armed timer fires once, in (when, seq) order."""
    wheel = TimerWheel()
    seq = itertools.count()
    timers = []
    for delta in deltas:
        timer = _FakeTimer(len(timers))
        wheel.insert(delta, next(seq), timer)
        timers.append((delta, timer))

    fired = []
    limit = 0
    step = limit_step
    while wheel.has_live_timer():
        # Geometric horizon: reaches the largest representable delta in
        # ~41 rounds even when the drawn first step is tiny, while small
        # steps still exercise many partial drains at the low end.
        limit += step
        step *= 2
        while True:
            entry = wheel.pop_next(limit)
            if entry is None:
                break
            fired.append(entry)

    assert len(fired) == len(timers), "lost %d timer(s)" % (
        len(timers) - len(fired))
    whens = [when for when, _ in fired]
    assert whens == sorted(whens)
    # Same-when entries fire in arm order (the seq tie-break).
    assert [t.name for _, t in fired] == [
        t.name for _, t in sorted(
            ((when, timer) for when, timer in timers),
            key=lambda pair: (pair[0], pair[1].name))]
