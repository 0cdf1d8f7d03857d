"""Tests for the SLO telemetry pipeline: windowing, burn-rate alerting,
derived tracepoints, budgeted serialization, dashboards, golden purity."""

import json
import os

import pytest

from repro.obs.dashboard import render_frame, render_html, write_html
from repro.obs.slo import BurnRatePolicy, SLObjective, SLOEvaluator
from repro.obs.telemetry import (
    SERIES_COLUMNS,
    TELEMETRY_SCHEMA,
    TelemetryPipeline,
    coalesce_rows,
    tenant_of,
)
from repro.obs.tracepoints import TracepointBus, is_derived

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _load_golden(case_id):
    with open(os.path.join(GOLDEN_DIR, "%s.json" % case_id)) as handle:
        return json.load(handle)


def _fast_policy():
    """One-window burn decisions: breach/recover on the next close."""
    return BurnRatePolicy(short_windows=1, long_windows=1,
                          threshold=2.0, clear_below=1.0)


# -- tenant attribution ----------------------------------------------------

def test_tenant_of_scale_and_role_names():
    assert tenant_of("t3-oltp") == "t3"
    assert tenant_of("t41-cv7") == "t41"
    assert tenant_of("victim") == "victim"
    assert tenant_of("noisy-purge") == "noisy"
    assert tenant_of("other-bg") == "other"
    assert tenant_of("mysqld-io") is None
    assert tenant_of(None) is None


# -- windowing -------------------------------------------------------------

def test_requests_land_in_their_virtual_time_window():
    pipeline = TelemetryPipeline(window_us=100_000)
    pipeline.record_request("t0", 500, 10_000)
    pipeline.record_request("t0", 700, 90_000)
    pipeline.record_request("t0", 900, 150_000)   # closes window 0
    pipeline.finalize(200_000)                    # closes window 1
    assert [row[0] for row in pipeline.rows] == [0, 1]
    assert [row[1] for row in pipeline.rows] == [2, 1]
    state = pipeline.tenants["t0"]
    assert state.requests == 3
    assert state.latency.count == 3


def test_window_percentiles_come_from_window_sketch():
    pipeline = TelemetryPipeline(window_us=100_000)
    for latency in (100, 200, 10_000):
        pipeline.record_request("t0", latency, 50_000)
    pipeline.finalize(100_000)
    row = pipeline.rows[0]
    columns = dict(zip(SERIES_COLUMNS, row))
    assert columns["requests"] == 3
    assert columns["p50_us"] >= 200
    assert columns["p99_us"] >= 10_000


def test_finalize_without_traffic_produces_no_rows():
    pipeline = TelemetryPipeline()
    pipeline.finalize()
    assert pipeline.rows == []


def test_slowdown_sketched_in_milli_units():
    pipeline = TelemetryPipeline()
    pipeline.record_request("victim", 3_000, 1_000, nominal_us=1_000)
    sketch = pipeline.tenants["victim"].slowdown
    assert sketch.count == 1
    assert sketch.min_value == 3_000   # 3.0x in milli-units


# -- bus handlers ----------------------------------------------------------

class _FakePBox:
    def __init__(self, psid):
        self.psid = psid


def test_wait_time_attributed_via_futex_and_enqueue():
    bus = TracepointBus()
    pipeline = TelemetryPipeline().attach(bus)
    bus.point("sched.enqueue").fire(0, tid=7, name="t2-oltp")
    bus.point("futex.wait").fire(1_000, tid=7, key="k", waiters=1)
    bus.point("sched.enqueue").fire(5_000, tid=7, name="t2-oltp")
    wait = pipeline.tenants["t2"].wait
    assert wait.count == 1
    assert wait.min_value == 4_000


def test_pbox_create_maps_tid_to_tenant():
    bus = TracepointBus()
    pipeline = TelemetryPipeline().attach(bus)
    bus.point("pbox.create").fire(0, tid=9, name="t5-batch",
                                  pbox=_FakePBox(3))
    bus.point("futex.wait").fire(100, tid=9, key="k", waiters=1)
    bus.point("sched.enqueue").fire(600, tid=9, name=None)
    assert pipeline.tenants["t5"].wait.count == 1


def test_penalty_event_and_active_columns():
    bus = TracepointBus()
    pipeline = TelemetryPipeline(window_us=100_000).attach(bus)
    bus.point("pbox.event").fire(10, pbox=_FakePBox(1), event="HOLD")
    bus.point("pbox.event").fire(20, pbox=_FakePBox(2), event="HOLD")
    bus.point("pbox.penalty").fire(30, pbox=_FakePBox(2), delay_us=750)
    pipeline.finalize(100_000)
    columns = dict(zip(SERIES_COLUMNS, pipeline.rows[0]))
    assert columns["events"] == 2
    assert columns["penalties"] == 1
    assert columns["penalty_us"] == 750
    assert columns["active"] == 2    # psids 1 and 2 seen this window


class _FakeManager:
    def __init__(self):
        self.active = {10, 11, 12}

    def drain_active(self):
        active, self.active = self.active, set()
        return active


def test_active_set_prefers_manager_dirty_set():
    bus = TracepointBus()
    manager = _FakeManager()
    pipeline = TelemetryPipeline(window_us=100_000).attach(
        bus, manager=manager)
    pipeline.record_request("t0", 100, 50_000)
    pipeline.finalize(100_000)
    columns = dict(zip(SERIES_COLUMNS, pipeline.rows[0]))
    assert columns["active"] == 3
    assert manager.active == set()    # drained, not just read


def test_active_window_boundary_no_double_count():
    """A pBox event at exactly a window boundary counts once.

    The manager fires ``pbox.event`` *before* marking the psid active:
    the subscriber rolls the outgoing window first, so a psid whose
    only event lands exactly on the boundary belongs to the window the
    event opens -- not to both.  (Regression: ``repro scale
    --telemetry`` double-counted such a pBox in the ``active`` series.)
    """
    from repro.core import IsolationRule, PBoxManager, StateEvent
    from repro.sim import Kernel
    from repro.sim.syscalls import Sleep

    kernel = Kernel(cores=1, seed=1)
    manager = PBoxManager(kernel)
    pipeline = TelemetryPipeline(window_us=100_000).attach(
        kernel.trace, manager=manager)

    def body():
        pbox = manager.create(IsolationRule())
        yield Sleep(us=100_000)        # wake exactly at the boundary
        manager.update(pbox, "res", StateEvent.HOLD)
        yield Sleep(us=50_000)

    kernel.spawn(body, name="t0-w")
    kernel.run(until_us=250_000)
    pipeline.finalize(kernel.now_us)
    active = [dict(zip(SERIES_COLUMNS, row))["active"]
              for row in pipeline.rows]
    # One event at t=100,000: window [0,100k) saw nothing, window
    # [100k,200k) saw psid 1 exactly once -- and only once in total
    # (the pre-fix subscriber counted it in both windows).
    assert active[:2] == [0, 1]
    assert sum(active) == 1


def test_detach_stops_accounting():
    bus = TracepointBus()
    pipeline = TelemetryPipeline().attach(bus)
    bus.point("pbox.penalty").fire(10, pbox=_FakePBox(1), delay_us=100)
    pipeline.detach()
    bus.point("pbox.penalty").fire(20, pbox=_FakePBox(1), delay_us=100)
    pipeline.finalize(100_000)
    columns = dict(zip(SERIES_COLUMNS, pipeline.rows[0]))
    assert columns["penalties"] == 1


# -- SLO objectives and burn-rate state machine ----------------------------

def test_objective_judges_latency_and_slowdown():
    objective = SLObjective(latency_us=1_000, slowdown=3.0, target=0.9)
    assert objective.is_good(500, 1.0)
    assert not objective.is_good(2_000, 1.0)      # latency bound
    assert not objective.is_good(500, 4.0)        # slowdown bound
    assert objective.is_good(500, None)           # unknown slowdown: pass
    assert objective.error_budget == pytest.approx(0.1)


def test_objective_and_policy_validation():
    with pytest.raises(ValueError):
        SLObjective()                              # no bound at all
    with pytest.raises(ValueError):
        SLObjective(latency_us=1, target=1.0)      # target out of range
    with pytest.raises(ValueError):
        BurnRatePolicy(short_windows=5, long_windows=2)
    with pytest.raises(ValueError):
        BurnRatePolicy(threshold=1.0, clear_below=2.0)


def test_breach_requires_both_windows_burning():
    evaluator = SLOEvaluator(
        {"a": SLObjective(latency_us=100, target=0.9)},
        policy=BurnRatePolicy(short_windows=1, long_windows=3,
                              threshold=2.0, clear_below=1.0))
    # One hot window: short burns, but the long window is still diluted
    # by nothing -- a single window IS the long window's only content,
    # so instead dilute it with two good windows first.
    assert evaluator.observe_window("a", 100, 0, 100_000) == []
    assert evaluator.observe_window("a", 100, 0, 200_000) == []
    # 10 bad / 210 total over the long window: burn 10/210/0.1 < 2.
    events = evaluator.observe_window("a", 0, 10, 300_000)
    assert events == []
    assert evaluator.breached_tenants() == []
    # Sustained burn: the long window is now mostly bad too.
    events = evaluator.observe_window("a", 0, 100, 400_000)
    assert [event["kind"] for event in events] == ["breach"]
    assert evaluator.breached_tenants() == ["a"]


def test_recover_clears_on_quiet_short_window():
    evaluator = SLOEvaluator(
        {"a": SLObjective(latency_us=100, target=0.9)},
        policy=_fast_policy())
    events = evaluator.observe_window("a", 0, 50, 100_000)
    assert [event["kind"] for event in events] == ["breach"]
    events = evaluator.observe_window("a", 0, 0, 200_000)
    assert [event["kind"] for event in events] == ["recover"]
    assert events[0]["breach_us"] == 100_000
    assert evaluator.breached_tenants() == []


def test_unmonitored_tenant_produces_no_events():
    evaluator = SLOEvaluator({}, default=None)
    assert evaluator.observe_window("x", 0, 1_000, 100_000) == []
    assert evaluator.burn_rates("x") == (0.0, 0.0)


# -- pipeline + evaluator + derived tracepoints ----------------------------

def _breaching_pipeline(bus=None, tenant="t0"):
    evaluator = SLOEvaluator(
        {tenant: SLObjective(latency_us=100, target=0.9)},
        policy=_fast_policy())
    pipeline = TelemetryPipeline(window_us=100_000, evaluator=evaluator)
    if bus is not None:
        pipeline.attach(bus)
    return pipeline


def test_pipeline_emits_breach_and_recover_events():
    pipeline = _breaching_pipeline()
    for _ in range(20):
        pipeline.record_request("t0", 5_000, 50_000)   # all bad
    # Rolling past two idle windows closes the hot one (breach) and a
    # quiet one (recover).
    pipeline.record_request("t0", 50, 250_000)
    pipeline.finalize(300_000)
    kinds = [event["kind"] for event in pipeline.slo_events]
    assert kinds[:2] == ["breach", "recover"]
    columns = dict(zip(SERIES_COLUMNS, pipeline.rows[0]))
    assert columns["bad"] == 20
    assert columns["breached"] == 1


def test_slo_tracepoints_fire_on_the_bus():
    bus = TracepointBus()
    fired = []
    bus.subscribe("slo.breach",
                  lambda name, t, fields: fired.append((name, t, fields)))
    bus.subscribe("slo.recover",
                  lambda name, t, fields: fired.append((name, t, fields)))
    pipeline = _breaching_pipeline(bus)
    for _ in range(20):
        pipeline.record_request("t0", 5_000, 50_000)
    pipeline.record_request("t0", 50, 250_000)
    pipeline.finalize(300_000)
    names = [name for name, _, _ in fired]
    assert names == ["slo.breach", "slo.recover"]
    name, time_us, fields = fired[0]
    assert time_us == 100_000
    assert fields["tenant"] == "t0"
    assert fields["burn_short"] >= 2.0
    assert "kind" not in fields and "time_us" not in fields
    assert all(is_derived(name) for name in names)


# -- budgeted serialization ------------------------------------------------

def test_coalesce_rows_sums_counts_and_maxes_percentiles():
    rows = [[i, 10, 1, 100, 200, 300, 1, 50, 5, 2, 0]
            for i in range(8)]
    rows[5][4] = 9_999
    merged = coalesce_rows(rows, 4)
    assert len(merged) == 4
    assert [row[0] for row in merged] == [0, 2, 4, 6]
    assert all(row[1] == 20 for row in merged)     # requests summed
    assert merged[2][4] == 9_999                   # p95 maxed
    assert coalesce_rows(rows, 100) == rows        # no-op when small


def test_json_document_shape_and_totals():
    pipeline = _breaching_pipeline()
    for _ in range(20):
        pipeline.record_request("t0", 5_000, 50_000)
    pipeline.finalize(100_000)
    doc = pipeline.to_json_dict()
    assert doc["schema"] == TELEMETRY_SCHEMA
    assert doc["windows"]["columns"] == list(SERIES_COLUMNS)
    assert doc["totals"] == {"requests": 20, "bad": 20,
                             "breaches": 1, "recovers": 0}
    assert doc["slo"]["objectives"]["t0"]["latency_us"] == 100
    assert doc["slo"]["policy"]["short_windows"] == 1
    assert doc["dropped"]["rows_kept"] == len(doc["windows"]["rows"])


def test_budget_folds_low_traffic_tenants_into_other():
    pipeline = TelemetryPipeline()
    for tenant in range(20):
        for _ in range(tenant + 1):
            pipeline.record_request("t%d" % tenant, 500, 50_000)
    pipeline.finalize(100_000)
    doc = pipeline.to_json_dict(max_tenants=4)
    detailed = [key for key in doc["tenants"] if key != "_other"]
    assert len(detailed) == 4
    # Highest-traffic tenants are the ones kept in detail.
    assert set(detailed) == {"t19", "t18", "t17", "t16"}
    other = doc["tenants"]["_other"]
    assert other["folded"] == 16
    assert other["requests"] == sum(range(1, 17))
    assert doc["dropped"]["tenants_detailed"] == 4


def test_budget_squeeze_is_deterministic_and_fits():
    def build():
        pipeline = TelemetryPipeline(window_us=10_000)
        for window in range(200):
            for tenant in range(16):
                pipeline.record_request("t%d" % tenant, 100 + window,
                                        window * 10_000 + 5_000)
        pipeline.finalize(2_000_000)
        return pipeline

    budget = 4 * 1024
    first = build().to_json_dict(budget_bytes=budget)
    second = build().to_json_dict(budget_bytes=budget)
    blob = json.dumps(first, separators=(",", ":"), sort_keys=True)
    assert blob == json.dumps(second, separators=(",", ":"),
                              sort_keys=True)
    assert len(blob) <= budget
    assert first["dropped"]["rows_kept"] < first["dropped"]["rows_recorded"]


def test_scale_telemetry_fits_per_point_budget():
    """Satellite: a 10-tenant scale point's telemetry stays in budget."""
    from repro.scale.sweep import (
        TELEMETRY_BUDGET_BYTES,
        collect_scale_telemetry,
    )

    doc = collect_scale_telemetry(200, seed=1, event_budget=60_000)
    size = len(json.dumps(doc, separators=(",", ":")))
    assert size <= TELEMETRY_BUDGET_BYTES
    assert doc["totals"]["requests"] > 100
    assert len(doc["windows"]["rows"]) >= 2
    # All ten tenants accounted for, detailed or folded.
    folded = doc["tenants"].get("_other", {}).get("folded", 0)
    detailed = len(doc["tenants"]) - (1 if folded else 0)
    assert detailed + folded == 10


# -- dashboards ------------------------------------------------------------

def _snapshot():
    pipeline = _breaching_pipeline()
    for _ in range(20):
        pipeline.record_request("t0", 5_000, 50_000)
    pipeline.record_request("t1", 50, 150_000)
    pipeline.finalize(200_000)
    return pipeline.snapshot()


def test_render_frame_shows_tenants_and_breaches():
    frame = render_frame(_snapshot())
    assert "t0" in frame and "t1" in frame
    assert "BREACH" in frame.upper()
    assert "p95" in frame


def test_render_html_is_self_contained(tmp_path):
    snapshot = _snapshot()
    html = render_html(snapshot, title="unit <test>")
    assert html.startswith("<!DOCTYPE html>")
    assert "unit &lt;test&gt;" in html        # escaped title
    assert "<svg" in html and "<style>" in html
    assert "http://" not in html and "https://" not in html
    path = str(tmp_path / "dash.html")
    write_html(snapshot, path, title="t")
    assert os.path.getsize(path) > 1_000


# -- watch CLI -------------------------------------------------------------

def test_watch_case_once_smoke(tmp_path, capsys):
    from repro.cli import main

    html = str(tmp_path / "watch.html")
    assert main(["watch", "c5", "--once", "--duration", "2",
                 "--html", html]) == 0
    out = capsys.readouterr().out
    assert "final: t=2.00s" in out
    assert os.path.exists(html)


def test_watch_scale_once_smoke(capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_SMOKE", "1")
    assert main(["watch", "scale", "--once", "--threads", "100"]) == 0
    out = capsys.readouterr().out
    assert "final:" in out
    assert "slo event" in out


# -- golden purity ---------------------------------------------------------

def _assert_golden_unchanged_with_telemetry(case_id):
    from repro.obs.golden import first_divergence, run_golden_case

    golden = _load_golden(case_id)
    # Every corpus case has a ``victim`` tenant, and a 100 us objective
    # breaches in each, so the purity claim covers the slo.* emitting
    # path, not just attachment.
    pipeline = _breaching_pipeline(tenant="victim")

    def observer(env):
        env.telemetry = pipeline
        pipeline.attach(env.kernel.trace, manager=env.runtime.manager)

    actual = run_golden_case(case_id, golden["duration_s"],
                             golden["seed"], observer=observer)
    assert first_divergence(golden, actual) is None, (
        "telemetry attachment changed the canonical stream of %s"
        % case_id)
    assert pipeline.slo_events, case_id


def test_telemetry_is_pure_subscriber_on_golden_case():
    """Attached telemetry (with slo.* firing) must not move one event."""
    _assert_golden_unchanged_with_telemetry("c1")


@pytest.mark.slow
@pytest.mark.parametrize("case_id", ["c%d" % n for n in range(1, 18)])
def test_telemetry_is_pure_subscriber_everywhere(case_id):
    _assert_golden_unchanged_with_telemetry(case_id)
