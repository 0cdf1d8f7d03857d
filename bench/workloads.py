"""The benchmark's four workloads: measure one round and print it.

Run as a script, this measures one round of one workload in this
process and prints the round as one JSON line on stdout::

    PYTHONPATH=src python bench/workloads.py --workload scale-cfs --seed 1

``run.py`` starts it once per round, each in a fresh interpreter, so
every round pays interpreter start, imports and the workload build the
way a user's run does.  The timed section is ``kernel.run`` only
(summed over the kernels of a round).  Everything is closed loop in
virtual time and deterministic, so a round's inputs are fixed by its
seed.
"""

import argparse
import functools
import gc
import hashlib
import heapq
import json
import os
import resource
import statistics
import time

from repro.cases import Solution, get_case, run_case
from repro.cli import _case_evaluator
from repro.core.trace import PBoxTracer
from repro.obs import (
    AttributionProfiler,
    BreachExplainer,
    CritPathTracer,
    MetricsCollector,
    MetricsRegistry,
    SpanRecorder,
    TelemetryPipeline,
)
from repro.obs.golden import run_golden_case
from repro.scale.scenario import (
    EXTENDED_APP_KINDS,
    ScaleSpec,
    build_scale_scenario,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")

#: The two scale workloads: threads, scheduler, event budget per point
#: and points per round.  Both run the six-family mix ``repro scale``
#: ships, and ``ScaleSpec`` sizes each point from its budget with
#: ``duration_for_budget``, as the sweep does.  Both points are 20 ms,
#: the sweep's floor: 39,000 events at 1,000 threads, and at 10,000
#: threads the sweep's own 250,000.  eevdf clients ramp up in the first
#: 4 ms, 12-21% of such a point's wall time; after that each 16 ms
#: window runs at the events/s the point keeps until 64 ms.  That
#: regime depends on the seed: 4 of 8 seeds at 1,000 and at 1,500
#: threads, and 5 of 16 at 2,000, run 25-38% slower than the rest.  So
#: an eevdf round runs twelve points with consecutive seeds, starting
#: at ``12 * (seed - 1) + 1``; seed 1 covers the shipped seed.  The cost
#: of a cfs point moves with its seed too, by up to 15% for the same
#: events, so a cfs round runs six points the same way.
SCALE_POINTS = {
    "scale-eevdf": (1000, "eevdf", 39_000, 12),
    "scale-cfs": (10000, "cfs", 250_000, 6),
}

#: ``--smoke``: one point this long, enough for every family's clients
#: (they start within the first 2 ms) to complete requests.
SMOKE_SCALE_US = 5_000

#: Case and virtual duration of the fully observed run, and its smoke size.
OBSERVED_CASE = "c5"
OBSERVED_DURATION_S = 40.0
SMOKE_OBSERVED_S = 2.0

#: Smoke golden corpus: the cases whose committed stream is this short.
SMOKE_GOLDEN_EVENTS = 20_000

#: Golden cases that run at their corpus seed whatever ``--seed`` is.
#: At seed 108 c20 records no victim samples in its 1.5 s and
#: ``run_case`` raises.  That was the only failure of any case at
#: seeds 2-59 and 100-125, and of c20 at seeds 0 and 60-259.
PINNED_GOLDEN = frozenset({"c20"})


#: What ``Timing`` counts over its sections, in ``_counts`` order.
COUNTERS = ("events", "context_switches", "scans", "scanned", "detections")


def _counts(kernel, manager):
    # Events are timer arms, read without consuming a sequence number:
    # repr(itertools.count(n)) is "count(n)", and next() would shift
    # every later timer's tie-break rank.
    return (int(repr(kernel._seq)[6:-1]), kernel.stats["context_switches"],
            manager.scan_stats["scans"], manager.scan_stats["evaluated"],
            manager.stats["detections"])


#: Untraced rounds run each timed section in ``STEPS`` equal steps of
#: virtual time, grouped into slices: a slice ends at the first step
#: that brings its host time to ``SLICE_S``, or at the section's last
#: step, and ``reference_loop`` is timed after every slice.  It is also
#: timed ``START_LOOPS`` times where the first section starts.
STEPS = 256
SLICE_S = 0.05
START_LOOPS = 5

#: ``reference_loop``'s best time on a 2-core x86-64 host, Python 3.11
#: (3,000 tries).  Host times are scaled by this over the loop's time
#: next to them.
REFERENCE_LOOP_S = 0.00256


def reference_loop(iterations=4_000):
    """Host time of a fixed loop of heap and dict work: the host's speed.

    It touches nothing of the simulator, so only the host moves it.
    The collector is off while it runs, so the simulator's heap does
    not either.
    """
    heap, counts = [], {}
    gc.disable()
    started = time.perf_counter()
    for i in range(iterations):
        heapq.heappush(heap, (i * 7919 % 10007, i))
        if len(heap) > 256:
            heapq.heappop(heap)
        counts[i & 255] = counts.get(i & 255, 0) + 1
    elapsed = time.perf_counter() - started
    gc.enable()
    return elapsed


class SetupDone(Exception):
    """Ends a set-up-only round where its first timed section would start."""


class Timing:
    """The timed sections of one round, and what the kernel did in them.

    ``host_wall_s`` is their host time.  With a tracer, ``wall_s`` is
    the same.  Without one, ``wall_s`` adds up each slice's host time
    scaled by ``REFERENCE_LOOP_S`` over the time of the
    ``reference_loop`` run right after it.  The host's speed moves
    within seconds, so a loop timed next to a slice follows it much
    more closely than any one figure for the whole round.  An untraced
    round also times the loop where its first section starts, in
    ``start_loops``.
    """

    def __init__(self, tracer=None, setup_only=False):
        self.tracer = tracer
        self.setup_only = setup_only
        self.start = None          # time.monotonic() at the first section
        self.wall_s = 0.0
        self.host_wall_s = 0.0
        self.start_loops = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def run(self, kernel, manager, until_us):
        """Run ``kernel`` to ``until_us`` as one timed section."""
        before = _counts(kernel, manager)
        gc.collect()
        if self.start is None:
            self.start = time.monotonic()
            if self.tracer is None:
                self.start_loops = [reference_loop()
                                    for _ in range(START_LOOPS)]
            if self.setup_only:
                raise SetupDone
        if self.tracer is not None:
            self.tracer.begin()
            started = time.perf_counter()
            kernel.run(until_us=until_us)
            elapsed = time.perf_counter() - started
            self.tracer.end()
            self.host_wall_s += elapsed
            self.wall_s += elapsed
        else:
            first, pending = kernel.now_us, 0.0
            for step in range(1, STEPS + 1):
                started = time.perf_counter()
                kernel.run(until_us=first + (until_us - first) * step
                           // STEPS)
                pending += time.perf_counter() - started
                if pending >= SLICE_S or step == STEPS:
                    self.host_wall_s += pending
                    self.wall_s += (pending * REFERENCE_LOOP_S
                                    / reference_loop())
                    pending = 0.0
        after = _counts(kernel, manager)
        for name, old, new in zip(COUNTERS, before, after):
            self.counters[name] += new - old


def scale_points(name, seed, smoke, timing):
    """A scale workload: one or more points of the scale sweep."""
    threads, sched, budget, points = SCALE_POINTS[name]
    duration_us = None
    if smoke:
        duration_us, points = SMOKE_SCALE_US, 1
    fingerprint, requests = [], {}
    for index in range(points):
        spec = ScaleSpec(threads, sched=sched, families=EXTENDED_APP_KINDS,
                         event_budget=budget, duration_us=duration_us,
                         seed=points * (seed - 1) + 1 + index)
        scenario = build_scale_scenario(spec)
        timing.run(scenario.kernel, scenario.manager, spec.duration_us)
        served = scenario.requests_by_family()
        for family in spec.families:
            requests[family] = requests.get(family, 0) + served.get(family, 0)
        fingerprint.append({"kernel": dict(scenario.kernel.stats),
                            "manager": scenario.manager.stats,
                            "requests": served})
    idle = sorted(family for family, count in requests.items() if not count)
    checks = [("families_served", not idle,
               "zero requests: %s" % idle if idle else "")]
    return {"points": fingerprint}, checks


def golden_cases(golden_dir, smoke):
    """``(case id, committed document)`` in corpus order."""
    cases = []
    for name in os.listdir(golden_dir):
        if name.endswith(".json"):
            with open(os.path.join(golden_dir, name)) as handle:
                cases.append((name[:-5], json.load(handle)))
    cases.sort(key=lambda case: int(case[0][1:]))
    if smoke:
        cases = [case for case in cases
                 if case[1]["events"] < SMOKE_GOLDEN_EVENTS]
    return cases


def golden_corpus(seed, smoke, timing, golden_dir=GOLDEN_DIR):
    """Replay the golden corpus at its pinned durations.

    At a case's corpus seed the replay must equal the committed
    document.  At any other seed the case runs at that seed, and the
    fingerprint check, which compares every round with the first, is
    what checks it.  The cases in ``PINNED_GOLDEN`` always run at their
    corpus seed.
    """

    def driver(env):
        timing.run(env.kernel, env.runtime.manager, env.duration_us)

    fingerprint, checks = {}, []
    for case_id, golden in golden_cases(golden_dir, smoke):
        case_seed = golden["seed"] if case_id in PINNED_GOLDEN else seed
        doc = run_golden_case(case_id, golden["duration_s"], case_seed,
                              driver=driver)
        fingerprint[case_id] = {"digest": doc["digest"],
                                "events": doc["events"],
                                "stats": doc["stats"]}
        if case_seed != golden["seed"]:
            continue
        match = (doc["digest"] == golden["digest"]
                 and doc["events"] == golden["events"]
                 and doc["stats"] == golden["stats"])
        checks.append(("%s.digest" % case_id, match,
                       "" if match else "replay differs from corpus"))
    return fingerprint, checks


def _sum_mismatches(tracer):
    """Traces whose segment buckets do not sum to the recorded latency."""
    bad = 0
    for tenant in tracer.tenants():
        for trace in tracer.slowest(tenant):
            if sum(trace.buckets.values()) != trace.latency_us:
                bad += 1
    return bad


def observed_c5(seed, smoke, timing):
    """Case c5 under pBox with all seven bus subscribers attached."""
    case = get_case(OBSERVED_CASE)
    duration_s = SMOKE_OBSERVED_S if smoke else OBSERVED_DURATION_S
    critpath = CritPathTracer()

    def observer(env):
        bus = env.kernel.trace
        env.metrics = MetricsRegistry()
        env.telemetry = TelemetryPipeline(evaluator=_case_evaluator(case))
        env.telemetry.attach(bus, manager=env.runtime.manager)
        critpath.attach(bus)
        BreachExplainer(critpath).attach(bus)
        AttributionProfiler().attach(bus)
        SpanRecorder().attach(bus)
        PBoxTracer().attach(bus)
        MetricsCollector(env.metrics).attach(bus)

    def driver(env):
        timing.run(env.kernel, env.runtime.manager, env.duration_us)

    run = run_case(case, Solution.PBOX, seed=seed, duration_s=duration_s,
                   observer=observer, driver=driver)
    mismatches = _sum_mismatches(critpath)
    checks = [("critpath_exact_sum", mismatches == 0,
               "%d mismatched traces" % mismatches if mismatches else "")]
    fingerprint = {"kernel": dict(run.env.kernel.stats),
                   "manager": run.manager.stats,
                   "victim": [run.victim_mean_us, run.victim_p95_us],
                   "requests": critpath.completed_count()}
    return fingerprint, checks


#: name -> round function ``(seed, smoke, timing) -> (fingerprint, checks)``.
WORKLOADS = {
    "scale-eevdf": functools.partial(scale_points, "scale-eevdf"),
    "scale-cfs": functools.partial(scale_points, "scale-cfs"),
    "golden-corpus": golden_corpus,
    "observed-c5": observed_c5,
}


def measure(workload, seed=1, smoke=False, tracer=None, setup_only=False):
    """Run one round in this process; returns the JSON-ready record.

    The fingerprint is the SHA-256 of canonical JSON over the events,
    kernel and manager stats, and requests per family or victim stats.
    ``wall_s`` and ``host_wall_s`` are those of :class:`Timing`.  An
    untraced record also holds the median ``reference_loop`` time where
    the first section started.  A set-up-only round stops where its
    first timed section would start, and its record holds only
    ``start`` and ``start_loop_s``.
    """
    timing = Timing(tracer, setup_only)
    try:
        fingerprint, checks = WORKLOADS[workload](seed, smoke, timing)
    except SetupDone:
        return {"start": timing.start,
                "start_loop_s": statistics.median(timing.start_loops)}
    fingerprint["events"] = timing.counters["events"]
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    record = {
        "start": timing.start,
        "wall_s": timing.wall_s,
        "host_wall_s": timing.host_wall_s,
        "events": timing.counters["events"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": hashlib.sha256(canonical.encode()).hexdigest(),
        "checks": [list(check) for check in checks],
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(timing.wall_s, timing.counters)
        record["wrapper_ns"] = tracer.wrapper_ns
    else:
        record["start_loop_s"] = statistics.median(timing.start_loops)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Measure one round of one benchmark workload and print "
                    "it as one JSON line.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="each workload 5-20x smaller")
    parser.add_argument("--traced", action="store_true",
                        help="time every layer from outside (per-layer run)")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first timed section starts")
    args = parser.parse_args(argv)
    tracer = None
    if args.traced:
        from layers import LayerTracer

        tracer = LayerTracer().install()
    record = measure(args.workload, args.seed, args.smoke, tracer,
                     args.setup_only)
    print(json.dumps(record, sort_keys=True))


if __name__ == "__main__":
    main()
