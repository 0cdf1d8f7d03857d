"""The saturated kernel, pinned at two scale points.

The golden corpus runs 2-4-core kernels whose due heap holds about
three timers, so it never drives the context switch the way a big
machine does.  These two points do:

- ``cfs-10k``: 10,000 threads on 1,250 cores for 5 ms.  The due heap
  holds 1,531 timers on average when one pops, 57% of slices are
  zero-length (they fire from the timer wheel's FIFO lane), and 94% of
  slice ends find no idle core but their own, so the slice end refills
  its core in place instead of scanning a 1,250-bit idle mask.
- ``eevdf-1k``: 1,000 threads on 125 cores for 20 ms under the
  virtual-deadline policy: 52% zero-length slices, 98% in-place
  refills, a due heap of ~150.

Each point pins the ``TraceDigest`` of its canonical tracepoint stream,
the timer arms (the benchmark's kernel events) and stream events, the
kernel and manager stats, and the requests served per family.  The
literals were computed before the one-pass context switch landed, so
they hold it to the schedule the previous switch made.  Changing the
simulation on purpose means updating them here and saying why in the
change log.
"""

import functools

import pytest

from repro.obs.golden import TraceDigest
from repro.scale.scenario import (
    EXTENDED_APP_KINDS,
    ScaleSpec,
    build_scale_scenario,
)
from repro.sim.thread import reset_thread_ids

#: point -> (threads, sched, virtual us), all at seed 1.
POINTS = {
    "cfs-10k": (10_000, "cfs", 5_000),
    "eevdf-1k": (1_000, "eevdf", 20_000),
}

PINS = {
    "cfs-10k": {
        "digest": "7048810a7e8a64941692c10f83f0173a"
                  "d5c77eeff5c42230558cd1b083859ea5",
        "trace_events": 378_258,
        "timer_arms": 99_437,
        "kernel": {"syscalls": 103_830, "context_switches": 93_498,
                   "penalties": 124, "penalty_us": 133_600,
                   "throttles": 0, "crashes": 0},
        "manager": {"events": 16_812, "detections": 72, "actions": 155,
                    "pbox_level_actions": 83, "penalties_applied": 124,
                    "penalty_applied_us": 133_600, "penalty_backoffs": 0,
                    "penalty_clamped": 0, "penalty_reverts": 0,
                    "safe_mode_releases": 0},
        "requests": {"mysql": 383, "pg": 189, "apache": 419,
                     "memcached": 716, "varnish": 195, "faas": 73},
    },
    "eevdf-1k": {
        "digest": "a2e57495761cd69e085ed5c2dcf1db98"
                  "2cf5309708b3a0baaafec8f949de23cd",
        "trace_events": 136_708,
        "timer_arms": 35_726,
        "kernel": {"syscalls": 38_019, "context_switches": 33_648,
                   "penalties": 88, "penalty_us": 111_656,
                   "throttles": 0, "crashes": 0},
        "manager": {"events": 6_638, "detections": 39, "actions": 103,
                    "pbox_level_actions": 64, "penalties_applied": 88,
                    "penalty_applied_us": 111_656, "penalty_backoffs": 0,
                    "penalty_clamped": 0, "penalty_reverts": 0,
                    "safe_mode_releases": 0},
        "requests": {"mysql": 197, "pg": 116, "apache": 180,
                     "memcached": 256, "varnish": 110, "faas": 79},
    },
}


@functools.lru_cache(maxsize=None)
def _observed(point):
    """Run ``point`` once per test process, with a digest on its bus."""
    threads, sched, duration_us = POINTS[point]
    reset_thread_ids()
    spec = ScaleSpec(threads, sched=sched, families=EXTENDED_APP_KINDS,
                     duration_us=duration_us, seed=1)
    digest = TraceDigest()
    # The binder runs before any thread is spawned, so the digest sees
    # the whole stream.
    scenario = build_scale_scenario(
        spec, kernel_binder=lambda kernel, _manager: digest.attach(
            kernel.trace))
    kernel = scenario.kernel
    kernel.run(until_us=spec.duration_us)
    return {
        "digest": digest.document()["digest"],
        "trace_events": digest.events,
        # repr(itertools.count(n)) is "count(n)"; next() would arm.
        "timer_arms": int(repr(kernel._seq)[6:-1]),
        "kernel": dict(kernel.stats),
        "manager": dict(scenario.manager.stats),
        "requests": scenario.requests_by_family(),
    }


@pytest.mark.parametrize("point", sorted(POINTS))
def test_trace_digest(point):
    observed, pinned = _observed(point), PINS[point]
    assert (observed["trace_events"], observed["digest"]) == (
        pinned["trace_events"], pinned["digest"])


@pytest.mark.parametrize("point", sorted(POINTS))
def test_timer_arms(point):
    assert _observed(point)["timer_arms"] == PINS[point]["timer_arms"]


@pytest.mark.parametrize("point", sorted(POINTS))
def test_kernel_stats(point):
    assert _observed(point)["kernel"] == PINS[point]["kernel"]


@pytest.mark.parametrize("point", sorted(POINTS))
def test_manager_stats(point):
    assert _observed(point)["manager"] == PINS[point]["manager"]


@pytest.mark.parametrize("point", sorted(POINTS))
def test_requests_by_family(point):
    assert _observed(point)["requests"] == PINS[point]["requests"]
