"""Scale-throughput guards: the 10k-thread tentpole numbers.

Four load-bearing properties of the scalability work are asserted here
rather than described:

1. **kernel event throughput** -- at 10,000 threads the current kernel
   (timer wheel + batched futex wake + idle-core bitmask dispatch)
   must process its event stream at >= 5x the rate of the pre-PR
   kernel (global event heap, full core scan per dispatch, one
   enqueue+dispatch per woken waiter).  The comparison is in-process
   A/B: ``bind_legacy`` rebinds one kernel instance's hot paths to
   verbatim ports of the old code, and both kernels execute the
   bit-identical scenario (same spec, same seed, same event count).
2. **manager detection cost** -- the manager's per-event cost must not
   grow linearly with the pBox population: going 1,000 -> 10,000
   threads (100 -> 1,000 pBoxes) may at most triple the per-event
   cost (the O(pboxes) blame scan it replaced would grow ~10x), and
   across the whole sweep (10 -> 1,000 pBoxes, 100x) the per-event
   cost may grow at most :data:`SWEEP_GROWTH_CEILING` x.
3. **manager overhead fraction** -- relative overhead at the top of
   the sweep must not exceed the bottom: with dirty-set scans,
   per-tenant shards and batched penalty arming, a 100x bigger
   population may not cost a larger *fraction* of the run.
4. **eevdf vs cfs** -- the configuration ``repro scale`` ships (eevdf,
   six tenant families) must keep its event throughput within
   :data:`EEVDF_RATIO_CEILING` of cfs on the identical spec at 10,000
   threads, and never leave the O(log n) heap pick for the counted
   slow path (the scale scenario has no affinity, DARC tag or
   demotion).  The smoke leg runs it at the top smoke point with
   :data:`SMOKE_EEVDF_RATIO_CEILING`, loose enough for a noisy runner
   but tight enough to catch a return to an O(n) pick.

The full sweep (100 -> 10,000 threads) is recorded to
``results/SCALE.json`` for ``repro report``; under ``REPRO_SMOKE`` a
two-point smoke sweep runs, the throughput and growth floors are
recorded but not asserted (the smoke points are too small to saturate
the host), and the overhead floor and the eevdf ratio are asserted
with smoke-sized slack -- those assertions are the CI ``scale-guard``
leg's teeth.  The eevdf guard writes nothing to ``results/SCALE.json``.
"""

import os
import time

import pytest

from _common import once
from _legacy_kernel import bind_legacy

from repro.scale.scenario import (
    EXTENDED_APP_KINDS,
    ScaleSpec,
    build_scale_scenario,
)
from repro.scale.sweep import (
    DEFAULT_THREAD_COUNTS,
    SMOKE_THREAD_COUNTS,
    run_scale_sweep,
    write_scale_json,
)

pytestmark = pytest.mark.slow

#: The acceptance point: 10,000 threads, 500 tenants, 1,000 pBoxes.
GUARD_THREADS = 10_000
#: Event budget for the A/B runs; big enough that per-run timing noise
#: on a loaded CI host stays well under the measured ~5.5x headroom.
GUARD_EVENT_BUDGET = 120_000
SPEEDUP_FLOOR = 5.0
#: Manager growth guard: 10x the pBoxes may cost at most 3x per event.
MANAGER_GROWTH_CEILING = 3.0
#: Below this per-event cost (us) the manager delta is timer noise on
#: the enabled-vs-disabled wall-clock subtraction, not a real trend.
MANAGER_NOISE_FLOOR_US = 1.0
#: Overhead floor (full sweep): the 10k-thread overhead fraction may
#: exceed the 100-thread one by at most this much -- i.e. relative
#: manager overhead must be flat-or-falling across a 100x pBox growth.
OVERHEAD_SLACK = 0.02
#: Overhead floor (smoke sweep): the two smoke points are tiny, so the
#: floor only guards against gross regressions (top <= 2x bottom plus
#: an absolute cushion for sub-second runs on a noisy CI host).
SMOKE_OVERHEAD_RATIO = 2.0
SMOKE_OVERHEAD_SLACK = 0.05
#: Sub-linear growth guard across the whole sweep: 100x the pBoxes
#: (bottom -> top of the sweep) may cost at most this factor more per
#: event.  A linear-in-pBoxes manager would grow ~100x.
SWEEP_GROWTH_CEILING = 3.0
#: eevdf guard (full run, 10k threads): cfs events/sec may exceed
#: eevdf's by at most this factor.  On a 2-vCPU x86 host the
#: heap-indexed pick measured 1.1-1.3x; the O(n) scan it replaced ran
#: at 1.4k events/s here, tens of times behind.
EEVDF_RATIO_CEILING = 1.5
#: eevdf guard (smoke, 400 threads): on the same host 1.1-1.3x with the
#: heap and ~4.5x with the O(n) scan, so 2x separates the two on a
#: noisy runner.
SMOKE_EEVDF_RATIO_CEILING = 2.0


def _timed_run(spec, kernel_binder=None):
    """Build + run one spec; returns (wall_s, events, kernel)."""
    scenario = build_scale_scenario(spec, kernel_binder=kernel_binder)
    kernel = scenario.kernel
    armed_before = next(kernel._seq)
    start = time.perf_counter()
    scenario.run()
    wall_s = time.perf_counter() - start
    events = next(kernel._seq) - 1 - armed_before
    return wall_s, events, kernel


def _ab_throughput(threads, rounds=2):
    """Interleaved new/legacy runs; min wall per variant (noise floor)."""
    spec = ScaleSpec(threads, seed=1, manager_enabled=True,
                     event_budget=GUARD_EVENT_BUDGET)
    new_walls, legacy_walls = [], []
    new_events = legacy_events = None
    for _ in range(rounds):
        wall, new_events, _kernel = _timed_run(spec)
        new_walls.append(wall)
        wall, legacy_events, _kernel = _timed_run(
            spec, kernel_binder=lambda k, m: bind_legacy(k, m))
        legacy_walls.append(wall)
    assert new_events == legacy_events, (
        "A/B kernels diverged: %d vs %d events -- the legacy binding is "
        "no longer behaviourally equivalent" % (new_events, legacy_events))
    new_s, legacy_s = min(new_walls), min(legacy_walls)
    return {
        "threads": threads,
        "events": new_events,
        "new_wall_s": round(new_s, 3),
        "legacy_wall_s": round(legacy_s, 3),
        "new_events_per_sec": round(new_events / new_s),
        "legacy_events_per_sec": round(legacy_events / legacy_s),
        "speedup": round(legacy_s / new_s, 2),
        "floor": SPEEDUP_FLOOR,
    }


def test_scale_sweep_and_throughput_guard(benchmark):
    smoke = bool(os.environ.get("REPRO_SMOKE"))
    thread_counts = SMOKE_THREAD_COUNTS if smoke else DEFAULT_THREAD_COUNTS
    guard_threads = thread_counts[-1]

    def measure():
        # A/B guard first: the comparison is the PR's acceptance number,
        # so it runs before the sweep churns the process heap.
        guard = _ab_throughput(guard_threads, rounds=2 if smoke else 3)
        # telemetry=True: each point gains the per-tenant SLO section
        # (schema 2) from its own untimed run -- the timed rounds that
        # feed the manager-cost subtraction stay subscriber-free.
        document = run_scale_sweep(
            thread_counts=thread_counts, seed=1,
            event_budget=GUARD_EVENT_BUDGET,
            rounds=1 if smoke else 3, telemetry=True,
            progress=lambda p: print(
                "  %6d threads: %7d ev/s, manager %+.1f%%"
                % (p["threads"], p["events_per_sec"],
                   100.0 * p["manager"]["overhead_frac"])),
        )
        document["throughput_guard"] = guard
        return document

    document = once(benchmark, measure)
    guard = document["throughput_guard"]
    path = write_scale_json(document)
    print("\nSCALE.json -> %s" % path)
    print("A/B at %d threads: new %d ev/s vs legacy %d ev/s (%.2fx)"
          % (guard["threads"], guard["new_events_per_sec"],
             guard["legacy_events_per_sec"], guard["speedup"]))

    points = {p["threads"]: p for p in document["points"]}
    top = points[guard_threads]
    bottom = points[thread_counts[0]]
    assert top["events"] > 0 and top["requests"] > 0

    # Guard 3 (runs in smoke too -- this is the CI scale-guard leg):
    # relative manager overhead must not grow with the population.
    top_frac = top["manager"]["overhead_frac"]
    bottom_frac = bottom["manager"]["overhead_frac"]
    if smoke:
        overhead_ceiling = (SMOKE_OVERHEAD_RATIO * bottom_frac
                            + SMOKE_OVERHEAD_SLACK)
    else:
        overhead_ceiling = bottom_frac + OVERHEAD_SLACK
    assert top_frac <= overhead_ceiling, (
        "manager overhead grew with scale: %.1f%% at %d threads vs "
        "%.1f%% at %d (ceiling %.1f%%)"
        % (100 * top_frac, top["threads"], 100 * bottom_frac,
           bottom["threads"], 100 * overhead_ceiling))
    if smoke:
        return  # smoke points are too small to saturate the host

    # Guard 1: >= 5x kernel event throughput at 10k threads.
    assert guard["threads"] == GUARD_THREADS
    assert guard["speedup"] >= SPEEDUP_FLOOR, (
        "kernel throughput regressed: %.2fx vs the pre-PR kernel at %d "
        "threads (floor %.1fx)" % (guard["speedup"], guard["threads"],
                                   SPEEDUP_FLOOR))

    # Guard 2: manager per-event cost grows sub-linearly in pBoxes.
    low = points[1000]["manager"]["cost_per_event_us"]
    high = points[GUARD_THREADS]["manager"]["cost_per_event_us"]
    ceiling = max(MANAGER_GROWTH_CEILING * low, MANAGER_NOISE_FLOOR_US)
    assert high <= ceiling, (
        "manager detection cost grew super-linearly: %.3f us/event at "
        "10k threads vs %.3f at 1k (ceiling %.3f)" % (high, low, ceiling))

    # Guard 4: sub-linear growth across the full sweep.  Bottom to top
    # is a 100x pBox growth (10 -> 1,000); per-event cost may grow at
    # most SWEEP_GROWTH_CEILING x over it.
    base = bottom["manager"]["cost_per_event_us"]
    sweep_ceiling = max(SWEEP_GROWTH_CEILING * base, MANAGER_NOISE_FLOOR_US)
    assert high <= sweep_ceiling, (
        "manager cost is not sub-linear in pBoxes: %.3f us/event at %d "
        "threads vs %.3f at %d (ceiling %.3f over a 100x pBox growth)"
        % (high, top["threads"], base, bottom["threads"], sweep_ceiling))


def _policy_throughput(threads, rounds):
    """Interleaved cfs/eevdf runs of the shipped six-family spec.

    Returns ``{sched: (events, min wall_s)}``.  Events/sec is the
    comparable unit: the two policies schedule differently, so their
    event counts differ on the same spec.
    """
    walls = {"cfs": [], "eevdf": []}
    events = {}
    for _ in range(rounds):
        for sched in walls:
            spec = ScaleSpec(threads, sched=sched,
                             families=EXTENDED_APP_KINDS,
                             event_budget=GUARD_EVENT_BUDGET, seed=1)
            wall, events[sched], kernel = _timed_run(spec)
            walls[sched].append(wall)
            if sched == "eevdf":
                assert kernel.run_queue.slow_picks == 0, (
                    "%d eevdf picks left the heap fast path on the "
                    "scale scenario, which has no affinity, DARC tag "
                    "or demotion" % kernel.run_queue.slow_picks)
    return {sched: (events[sched], min(walls[sched])) for sched in walls}


def test_eevdf_throughput_within_ratio_of_cfs(benchmark):
    smoke = bool(os.environ.get("REPRO_SMOKE"))
    threads = SMOKE_THREAD_COUNTS[-1] if smoke else GUARD_THREADS
    ceiling = SMOKE_EEVDF_RATIO_CEILING if smoke else EEVDF_RATIO_CEILING
    result = once(benchmark, lambda: _policy_throughput(threads, rounds=3))
    rate = {sched: events / wall
            for sched, (events, wall) in result.items()}
    ratio = rate["cfs"] / rate["eevdf"]
    print("\neevdf vs cfs at %d threads: %d vs %d ev/s (cfs %.2fx, "
          "ceiling %.1fx)" % (threads, rate["eevdf"], rate["cfs"], ratio,
                              ceiling))
    assert ratio <= ceiling, (
        "eevdf throughput fell behind cfs: %d vs %d events/s at %d "
        "threads (%.2fx, ceiling %.1fx)"
        % (rate["eevdf"], rate["cfs"], threads, ratio, ceiling))
