"""Always-on telemetry overhead guard + the committed snapshot.

Two guards and one artifact:

- **attached**: the full telemetry pipeline -- per-tenant quantile
  sketches, 100ms windowed series, burn-rate SLO evaluation, and the
  ``slo.*`` derived tracepoints -- subscribed to the live bus and fed
  by every recorder.  "Always-on" only holds if that costs the modeled
  system under 5%, the same Figure 16 normalization the attribution
  profiler guard uses: the added wall time is charged against the
  modeled second, not against the compressed simulator wall time.
- **detached**: a constructed-but-unattached pipeline must cost
  nothing; the only residual at each firing site is the
  inactive-tracepoint guard, plus the ``sink is None`` check in each
  recorder.
- **snapshot**: ``results/BENCH_telemetry.json`` records the overhead
  ratios and the guarded case's telemetry totals (windows, requests,
  SLO events) so future PRs have a baseline to diff against.
"""

import json

from _common import once, subscriber_overhead, write_result

from repro.cases import get_case
from repro.obs import BurnRatePolicy, SLObjective, SLOEvaluator, TelemetryPipeline

#: c5 is the watch-CLI flagship (clear victim/noisy split, dense
#: request traffic) and carries the strict budget; c17 -- the
#: buffer-pool motivation case the attribution guard also tracks -- is
#: reported with a loose regression cap.
GUARDED_CASE = "c5"
OVERHEAD_CASES = ("c5", "c17")
TIMING_DURATION_S = 2
REPEATS = 5
ATTACHED_BUDGET = 0.05   # of the modeled (simulated) second
STRESS_CAP = 0.15        # regression backstop for the second case
DETACHED_BUDGET = 0.02   # measurement noise floor

_cache = {}


def _evaluator(case):
    """The watch-CLI SLO configuration for ``case`` (victim objective)."""
    objectives = {}
    if case.nominal_baseline_us:
        objectives["victim"] = SLObjective(
            latency_us=int(case.nominal_baseline_us * 3),
            slowdown=3.0, target=0.9)
    return SLOEvaluator(
        objectives=objectives,
        default=SLObjective(slowdown=5.0, target=0.9),
        policy=BurnRatePolicy(short_windows=3, long_windows=10,
                              threshold=2.0, clear_below=1.0),
    )


def _attach(pipeline, env):
    env.telemetry = pipeline
    pipeline.attach(env.kernel.trace, manager=env.runtime.manager)


def _measure_case(case_id):
    """Best-of interleaved plain / attached / detached wall times."""
    case = get_case(case_id)
    pipeline, timings = subscriber_overhead(
        case_id, TIMING_DURATION_S, REPEATS,
        lambda: TelemetryPipeline(evaluator=_evaluator(case)), _attach)
    snapshot = pipeline.snapshot()
    timings["windows"] = len(snapshot["rows"])
    timings["requests"] = sum(t["requests"] for t in snapshot["tenants"])
    timings["slo_events"] = len(snapshot["slo_events"])
    return timings


def overhead():
    if "overhead" not in _cache:
        _cache["overhead"] = {cid: _measure_case(cid)
                              for cid in OVERHEAD_CASES}
    return _cache["overhead"]


def test_telemetry_overhead_within_budget(benchmark):
    measured = once(benchmark, overhead)
    lines = [
        "# SLO telemetry pipeline overhead at %ds simulated (best of %d"
        % (TIMING_DURATION_S, REPEATS),
        "# interleaved runs).  attached%% / detached%% charge the added",
        "# wall time against the modeled second being monitored (the",
        "# same normalization as profile_overhead.txt); wall%% is the",
        "# raw slowdown of the compressed simulator run.  budget:",
        "# attached < %d%%, detached < %d%%."
        % (int(ATTACHED_BUDGET * 100), int(DETACHED_BUDGET * 100)),
        "case\twindows\trequests\tslo_events\tattached%\tdetached%\twall%",
    ]
    for case_id, m in measured.items():
        lines.append("%s\t%d\t%d\t%d\t%.2f%%\t%.2f%%\t%+.1f%%" % (
            case_id, m["windows"], m["requests"], m["slo_events"],
            m["attached_ratio"] * 100, m["detached_ratio"] * 100,
            m["attached_wall_ratio"] * 100,
        ))
    write_result("telemetry_overhead.txt", lines)

    for case_id, m in measured.items():
        budget = ATTACHED_BUDGET if case_id == GUARDED_CASE else STRESS_CAP
        assert m["attached_ratio"] < budget, (
            "%s: telemetry costs %.2f%% of the modeled second (budget %d%%)"
            % (case_id, m["attached_ratio"] * 100, budget * 100)
        )
        assert m["detached_ratio"] < DETACHED_BUDGET, (
            "%s: detached pipeline costs %.2f%% (should be ~0)"
            % (case_id, m["detached_ratio"] * 100)
        )
        # The pipeline really observed the run (the cost bought data).
        # c17's victim is a slow scan client, so its floor is lower.
        assert m["windows"] >= 10, case_id
        assert m["requests"] > (100 if case_id == GUARDED_CASE else 20), case_id


def test_telemetry_snapshot_persisted(benchmark):
    measured = once(benchmark, overhead)
    guarded = measured[GUARDED_CASE]
    snapshot = {
        "duration_s": TIMING_DURATION_S,
        "seed": 1,
        "overhead": {
            "case": GUARDED_CASE,
            "attached_ratio": guarded["attached_ratio"],
            "detached_ratio": guarded["detached_ratio"],
            "attached_wall_ratio": guarded["attached_wall_ratio"],
            "normalization": "added wall time / modeled second",
            "stress": {
                case_id: {"attached_ratio": m["attached_ratio"],
                          "windows": m["windows"]}
                for case_id, m in measured.items()
                if case_id != GUARDED_CASE
            },
        },
        "telemetry": {
            "windows": guarded["windows"],
            "requests": guarded["requests"],
            "slo_events": guarded["slo_events"],
        },
    }
    write_result("BENCH_telemetry.json",
                 [json.dumps(snapshot, indent=2, sort_keys=True)])
    assert guarded["windows"] >= 10
    assert guarded["requests"] > 100
