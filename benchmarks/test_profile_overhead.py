"""Attribution profiler overhead + the committed attribution snapshot.

Two guards and one artifact:

- **attached**: the profiler's whole fire-time cost is one flattened
  record append per tracepoint firing (analysis is replayed lazily at
  query time, like ``perf record`` / ``perf report``).  The budget is
  the paper's Figure 16 bar: instrumentation must cost the *modeled
  system* under 5%.  The simulator compresses each modeled second into
  a few tens of milliseconds of bookkeeping wall time, so the honest
  normalization charges the profiler's added wall time against the
  modeled second it profiles, not against the compressed wall time
  (against which even a no-op subscriber costs double digits).  The
  raw wall-clock ratio is reported alongside for transparency.
- **detached**: a constructed-but-unattached profiler must cost
  nothing; the only residual is the inactive-tracepoint guard at each
  firing site.
- **snapshot**: ``results/BENCH_attribution.json`` records the
  overhead ratios plus victim p95 / blame totals for two
  representative cases (c17, the buffer-pool motivation case, and c2,
  a Table 3 lock case) so future PRs have a baseline to diff against.
"""

import json

from _common import once, subscriber_overhead, write_result

from repro.cases import Solution, get_case, run_case
from repro.obs import AttributionProfiler, MetricsCollector

#: c17 is the attribution flagship and carries the strict budget; c2 is
#: the record-dense stress case (~7x the records of c17 in the same
#: modeled time), reported for trend-tracking with only a loose cap --
#: on shared hardware its per-record cost swings +-50% run to run.
GUARDED_CASE = "c17"
OVERHEAD_CASES = ("c17", "c2")
SNAPSHOT_CASES = ("c17", "c2")
TIMING_DURATION_S = 2
SNAPSHOT_DURATION_S = 4
REPEATS = 5
ATTACHED_BUDGET = 0.05   # of the modeled (simulated) second
STRESS_CAP = 0.15        # regression backstop for the stress case
DETACHED_BUDGET = 0.02   # measurement noise floor

_cache = {}


def _measure_case(case_id):
    """Best-of interleaved plain / attached / detached wall times."""
    profiler, timings = subscriber_overhead(
        case_id, TIMING_DURATION_S, REPEATS, AttributionProfiler,
        lambda profiler, env: profiler.attach(env.kernel.trace))
    records = len(profiler._pending)
    added_attached = timings["attached_s"] - timings["plain_s"]
    timings["records"] = records
    timings["ns_per_record"] = (added_attached / records * 1e9
                                if records else 0.0)
    return timings


def overhead():
    if "overhead" not in _cache:
        _cache["overhead"] = {cid: _measure_case(cid)
                              for cid in OVERHEAD_CASES}
    return _cache["overhead"]


def _case_snapshot(case_id):
    """Blame/latency snapshot of one case under pBox with the profiler."""
    profiler = AttributionProfiler()
    collector = MetricsCollector()

    def observer(env):
        profiler.attach(env.kernel.trace)
        collector.attach(env.kernel.trace)
        env.metrics = collector.registry

    run_case(get_case(case_id), Solution.PBOX,
             duration_s=SNAPSHOT_DURATION_S, seed=1, observer=observer)
    matrix = profiler.matrix
    assert matrix.rows(), "%s recorded no blamed wait time" % case_id
    # The manager's own detections name the (aggressor, victim) pair:
    # the cell that drew penalty actions is the case's headline story.
    # (Picking the most-blamed victim instead would select the noisy
    # pBox itself -- an aggressive scanner also waits the most.)
    acted = [cell for cell in matrix.rows() if cell.actions > 0]
    headline = max(acted or matrix.rows(),
                   key=lambda c: (c.actions, c.total_us))
    victim = headline.victim
    shares = matrix.aggressor_share(victim)
    top = max(shares, key=lambda psid: shares[psid])
    return {
        "victim_p95_us": collector.registry.histograms[
            "latency.victim_us"].percentile(95),
        "blamed_total_us": matrix.total_us(),
        "victim_blamed_us": matrix.victim_total_us(victim),
        "top_share": shares[top],
        "top_aggressor": profiler.label(top),
        "actions": sum(cell.actions for cell in matrix.rows()
                       if cell.aggressor == top),
        "penalty_us": sum(cell.penalty_us for cell in matrix.rows()
                          if cell.aggressor == top),
        "recovered_est_us": matrix.recovered_us(top),
        "unattributed_us": matrix.unknown_us,
    }


def snapshots():
    if "cases" not in _cache:
        _cache["cases"] = {cid: _case_snapshot(cid)
                           for cid in SNAPSHOT_CASES}
    return _cache["cases"]


def test_profiler_overhead_within_budget(benchmark):
    measured = once(benchmark, overhead)
    lines = [
        "# Attribution profiler overhead at %ds simulated (best of %d"
        % (TIMING_DURATION_S, REPEATS),
        "# interleaved runs).  attached%% / detached%% charge the added",
        "# wall time against the modeled second being profiled (the",
        "# Figure 16 normalization); wall%% is the raw slowdown of the",
        "# compressed simulator run.  budget: attached < %d%%, detached"
        % int(ATTACHED_BUDGET * 100),
        "# < %d%%." % int(DETACHED_BUDGET * 100),
        "case\trecords\tns/rec\tattached%\tdetached%\twall%",
    ]
    for case_id, m in measured.items():
        lines.append("%s\t%d\t%.0f\t%.2f%%\t%.2f%%\t%+.1f%%" % (
            case_id, m["records"], m["ns_per_record"],
            m["attached_ratio"] * 100, m["detached_ratio"] * 100,
            m["attached_wall_ratio"] * 100,
        ))
    write_result("profile_overhead.txt", lines)

    for case_id, m in measured.items():
        budget = ATTACHED_BUDGET if case_id == GUARDED_CASE else STRESS_CAP
        assert m["attached_ratio"] < budget, (
            "%s: profiler costs %.2f%% of the modeled second (budget %d%%)"
            % (case_id, m["attached_ratio"] * 100, budget * 100)
        )
        assert m["detached_ratio"] < DETACHED_BUDGET, (
            "%s: detached profiler costs %.2f%% (should be ~0)"
            % (case_id, m["detached_ratio"] * 100)
        )
        # The record log really was written (the cost bought something).
        assert m["records"] > 1_000, case_id


def test_attribution_snapshot_persisted(benchmark):
    def build():
        return {"overhead_cases": overhead(), "cases": snapshots()}

    built = once(benchmark, build)
    measured = built["overhead_cases"]
    guarded = measured[GUARDED_CASE]
    snapshot = {
        "duration_s": SNAPSHOT_DURATION_S,
        "seed": 1,
        "overhead": {
            "case": GUARDED_CASE,
            "attached_ratio": guarded["attached_ratio"],
            "detached_ratio": guarded["detached_ratio"],
            "attached_wall_ratio": guarded["attached_wall_ratio"],
            "ns_per_record": guarded["ns_per_record"],
            "normalization": "added wall time / modeled second",
            "stress": {
                case_id: {"attached_ratio": m["attached_ratio"],
                          "ns_per_record": m["ns_per_record"]}
                for case_id, m in measured.items()
                if case_id != GUARDED_CASE
            },
        },
        "cases": built["cases"],
    }
    write_result("BENCH_attribution.json",
                 [json.dumps(snapshot, indent=2, sort_keys=True)])

    # The snapshot itself must tell the paper's story: in the
    # buffer-pool motivation case the analytics pBox owns the majority
    # of the victim's blamed wait, and penalties recovered some of it.
    c17 = built["cases"]["c17"]
    assert c17["top_share"] > 0.5
    assert "analytics" in c17["top_aggressor"]
    assert c17["actions"] > 0
    for entry in built["cases"].values():
        assert entry["victim_p95_us"] > 0
        assert 0.0 < entry["top_share"] <= 1.0
