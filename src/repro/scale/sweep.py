"""The scalability sweep: thread counts -> ``results/SCALE.json``.

Each point builds the multi-tenant scenario twice -- manager enabled
and disabled -- on identical specs, so the manager's detection cost is
the wall-clock delta on the same event stream.  Event volume is the
kernel's timer-arm count (every event loop iteration pops exactly one
armed timer, so arms == events processed up to the handful still
pending at the horizon).

The event budget is constant across points: a 10,000-thread point
simulates a shorter virtual window than a 100-thread point, keeping
every measurement a similar wall-clock size while still holding the
full thread population live in the kernel.
"""

import gc
import json
import os
import time

from repro.obs.slo import BurnRatePolicy, SLObjective, SLOEvaluator
from repro.obs.telemetry import TelemetryPipeline
from repro.scale.scenario import ScaleSpec, build_scale_scenario

#: Schema 2 adds the optional per-point ``telemetry`` section
#: (per-tenant sketches + windowed time-series + SLO events) written by
#: ``--telemetry`` runs; schema-1 consumers must treat it as absent.
#: Schema 3 adds the sharded-manager columns to each point's
#: ``manager`` section: ``shards``, ``scans``, ``scanned``, and
#: ``budget_denied`` (see docs/PERFORMANCE.md for the full glossary).
#: Schema 4 adds the scheduler/family axes: top-level ``sched`` and
#: ``families``, plus per-point ``family_requests`` (requests per
#: tenant family, manager-on run); older consumers must treat all
#: three as absent (the report renders them defensively).
#: Schema 5 adds per-point ``sched_slow_picks`` (run-queue picks that
#: fell past the policy's head-of-queue shortcut, manager-on run).
SCALE_SCHEMA = 5

#: Field glossary for SCALE.json, mirrored (both directions) by the
#: glossary table in docs/PERFORMANCE.md -- ``tools/check_docs.py``
#: fails when either side drifts.  Keys are field names; values are the
#: one-line meaning the docs table must agree with in spirit (the
#: checker matches names, humans match meanings).
SCALE_FIELDS = {
    # Top-level document keys.
    "schema": "document schema version (see SCALE_SCHEMA)",
    "seed": "kernel RNG seed shared by every point",
    "event_budget": "target kernel events per point",
    "telemetry": "whether points carry a telemetry section",
    "wall_s": "wall seconds: sweep total / enabled run / disabled run",
    "points": "one measurement record per thread count",
    "throughput_guard": "A/B guard snapshot from the benchmark run",
    "sched": "scheduler policy the sweep's kernels ran under",
    "families": "tenant family mix assigned round-robin across tenants",
    # Per-point keys.
    "threads": "total worker threads at this point",
    "tenants": "application instances (threads // workers_per_tenant)",
    "pboxes": "live pBoxes (two connection pBoxes per tenant)",
    "cores": "simulated cores backing the point",
    "duration_virtual_ms": "virtual time simulated, milliseconds",
    "events": "kernel timer arms (per point) / manager state events (in manager)",
    "run_events": "kernel timer arms during run() only",
    "events_per_sec": "run_events / enabled-run wall seconds",
    "requests": "application requests completed (manager on)",
    "baseline_requests": "application requests completed (manager off)",
    "family_requests": "requests completed per tenant family (manager on)",
    "sched_slow_picks": "run-queue picks past the head shortcut (manager on)",
    "manager": "manager cost breakdown for this point",
    # point["manager"] keys.
    "detection_cost_s": "enabled minus disabled wall seconds (min-of-rounds)",
    "cost_per_event_us": "detection_cost_s spread over run_events, microseconds",
    "overhead_frac": "detection_cost_s / disabled-run wall seconds",
    "detections": "pbox-level detections that found a culprit",
    "penalties_applied": "delay penalties actually delivered",
    "shards": "per-tenant manager shards created",
    "scans": "dirty-set scans executed across shards",
    "scanned": "pBoxes evaluated by those scans",
    "budget_denied": "penalty reservations denied by the shared budget",
}

#: Per-point byte budget for the telemetry section, sized so a full
#: six-point sweep with telemetry stays inside the repo-wide 64 KiB
#: results cap (tools/check_results_size.py) with headroom for the
#: timing fields and the throughput guard snapshot.
TELEMETRY_BUDGET_BYTES = 8 * 1024

#: The tentpole sweep: ~100 threads (5 tenants) to 10,000 (500 tenants).
DEFAULT_THREAD_COUNTS = (100, 500, 1000, 2000, 5000, 10000)

#: Docs-CI smoke sweep (REPRO_SMOKE).
SMOKE_THREAD_COUNTS = (100, 400)


def _run_spec(spec):
    """Build + run one spec; returns (wall_s, events, scenario)."""
    scenario = build_scale_scenario(spec)
    kernel = scenario.kernel
    armed_before_run = next(kernel._seq)
    # The manager-cost number is a subtraction of two timed runs; a
    # collector pause landing in one of them is pure noise.  Collect
    # up front, then keep the GC out of the timed window (virtual-time
    # runs allocate mostly short-lived tuples -- refcounting handles
    # them without cycles piling up).
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    try:
        scenario.run()
    finally:
        wall_s = time.perf_counter() - start
        if gc_was_enabled:
            gc.enable()
    # Arms during run() plus the build-time arms it consumed; the two
    # next() probes themselves add 2, which is noise at this scale.
    events = next(kernel._seq) - 1
    run_events = events - armed_before_run
    return wall_s, events, run_events, scenario


def default_scale_evaluator():
    """The sweep's SLO configuration: slowdown-based, one default.

    Every tenant shares one objective -- at most 10% of requests slower
    than 5x the role's nominal latency -- with a short/long burn-rate
    policy sized to the ~100ms windows of a scale run (a few hundred
    milliseconds of sustained burn to alert, one quiet short-window to
    clear).  At the default sweep parameters this separates tenants:
    heavily contended ones latch into breach while lighter ones stay
    within budget, which is the story the dashboard is for.
    """
    return SLOEvaluator(
        objectives={},
        default=SLObjective(slowdown=5.0, target=0.9),
        policy=BurnRatePolicy(short_windows=3, long_windows=10,
                              threshold=2.0, clear_below=1.0),
    )


def collect_scale_telemetry(threads, seed=1, event_budget=250_000,
                            budget_bytes=TELEMETRY_BUDGET_BYTES,
                            sched="cfs", families=None):
    """One untimed telemetry run of a sweep point; returns the section.

    Telemetry is collected in its own run, *not* during the timed
    rounds: the manager-cost number is a wall-clock subtraction between
    two runs of the identical event stream, and an attached subscriber
    would pollute both sides of that subtraction.  Virtual time is
    deterministic, so the untimed run sees exactly the same simulation
    the timed rounds measured.
    """
    spec = ScaleSpec(threads, seed=seed, manager_enabled=True,
                     event_budget=event_budget, sched=sched,
                     families=families)
    pipeline = TelemetryPipeline(evaluator=default_scale_evaluator())
    scenario = build_scale_scenario(spec, telemetry=pipeline)
    scenario.run()
    return pipeline.to_json_dict(budget_bytes=budget_bytes)


def measure_scale_point(threads, seed=1, event_budget=250_000, rounds=2,
                        telemetry=False, sched="cfs", families=None):
    """Measure one sweep point; returns a JSON-ready dict.

    The manager's detection cost is a wall-clock subtraction (enabled
    minus disabled run of the identical event stream), so both variants
    run ``rounds`` times interleaved and the minimum wall per variant
    is used -- the standard noise floor for timing on a shared host.
    ``telemetry`` adds the per-tenant section from a separate untimed
    run (see :func:`collect_scale_telemetry`).  ``sched`` selects the
    scheduler policy for every kernel of the point; ``families`` the
    tenant family mix (both default to the pre-extension sweep).
    """
    spec = ScaleSpec(threads, seed=seed, manager_enabled=True,
                     event_budget=event_budget, sched=sched,
                     families=families)
    base_spec = ScaleSpec(threads, seed=seed, manager_enabled=False,
                          event_budget=event_budget, sched=sched,
                          families=families)
    walls, base_walls = [], []
    for _ in range(max(1, rounds)):
        wall_s, events, run_events, scenario = _run_spec(spec)
        walls.append(wall_s)
        base_wall_s, base_events, _base_run_events, base_scenario = \
            _run_spec(base_spec)
        base_walls.append(base_wall_s)
    wall_s, base_wall_s = min(walls), min(base_walls)
    manager_cost_s = max(0.0, wall_s - base_wall_s)
    manager_stats = dict(scenario.manager.stats)
    scan_stats = dict(scenario.manager.scan_stats)
    budget = scenario.manager.penalty_budget
    point = {
        "threads": spec.threads,
        "tenants": spec.tenants,
        "pboxes": 2 * spec.tenants,  # two connection pBoxes per tenant
        "cores": spec.cores,
        "duration_virtual_ms": round(spec.duration_us / 1_000, 3),
        "events": events,
        "run_events": run_events,
        "wall_s": round(wall_s, 4),
        "events_per_sec": round(run_events / wall_s) if wall_s else 0,
        "requests": scenario.total_requests(),
        "family_requests": scenario.requests_by_family(),
        "sched_slow_picks": scenario.kernel.run_queue.slow_picks,
        "manager": {
            "wall_s": round(base_wall_s, 4),
            "detection_cost_s": round(manager_cost_s, 4),
            "cost_per_event_us": round(
                manager_cost_s * 1e6 / run_events, 4) if run_events else 0.0,
            "overhead_frac": round(manager_cost_s / base_wall_s, 4)
            if base_wall_s else 0.0,
            "events": manager_stats.get("events", 0),
            "detections": manager_stats.get("detections", 0),
            "penalties_applied": manager_stats.get("penalties_applied", 0),
            "shards": scenario.manager.shard_count,
            "scans": scan_stats.get("scans", 0),
            "scanned": scan_stats.get("evaluated", 0),
            "budget_denied": budget.stats["denied"] if budget else 0,
        },
        "baseline_requests": base_scenario.total_requests(),
    }
    if telemetry:
        point["telemetry"] = collect_scale_telemetry(
            threads, seed=seed, event_budget=event_budget, sched=sched,
            families=families)
    return point


def run_scale_sweep(thread_counts=DEFAULT_THREAD_COUNTS, seed=1,
                    event_budget=250_000, rounds=2, progress=None,
                    telemetry=False, sched="cfs", families=None):
    """Sweep ``thread_counts`` and return the SCALE.json document."""
    points = []
    start = time.perf_counter()
    for threads in thread_counts:
        point = measure_scale_point(threads, seed=seed,
                                    event_budget=event_budget,
                                    rounds=rounds, telemetry=telemetry,
                                    sched=sched, families=families)
        points.append(point)
        if progress is not None:
            progress(point)
    # Record the family mix as actually applied (the spec default when
    # the caller passed None), so the document is self-describing.
    applied_families = list(families) if families else list(
        ScaleSpec(thread_counts[0], seed=seed).families)
    return {
        "schema": SCALE_SCHEMA,
        "seed": seed,
        "event_budget": event_budget,
        "telemetry": bool(telemetry),
        "sched": sched,
        "families": applied_families,
        "wall_s": round(time.perf_counter() - start, 2),
        "points": points,
    }


def write_scale_json(document, out_path="results/SCALE.json"):
    """Atomically write the sweep document.

    Points are one compact line each (no inner indentation): an
    indented dump would put every delta-encoded sketch integer on its
    own line, inflating a telemetry sweep ~3x past the repo-wide 64 KiB
    results cap the per-point budget was sized against.
    """
    out_dir = os.path.dirname(out_path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    tmp = out_path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write("{\n")
        keys = sorted(document)
        for position, key in enumerate(keys):
            comma = "," if position < len(keys) - 1 else ""
            if key == "points":
                handle.write(' "points": [\n')
                points = document["points"]
                for index, point in enumerate(points):
                    line = json.dumps(point, sort_keys=True,
                                      separators=(",", ":"))
                    tail = "," if index < len(points) - 1 else ""
                    handle.write("  %s%s\n" % (line, tail))
                handle.write(" ]%s\n" % comma)
            else:
                handle.write(' "%s": %s%s\n' % (
                    key, json.dumps(document[key], sort_keys=True,
                                    separators=(",", ":")), comma))
        handle.write("}\n")
    os.replace(tmp, out_path)
    return out_path
