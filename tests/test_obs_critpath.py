"""Per-request causal tracing: sum identity, blame, purity, CLI.

The load-bearing claim is structural: the tracer shifts a per-thread
state at every bus event and charges ``now - state_since`` to the
outgoing state's bucket, so the segment buckets telescope to exactly
``end - begin`` -- bit-exact against the latency the recorder sampled,
for *any* event interleaving.  The hypothesis test drives the replay
machine with arbitrary synthetic streams; the e2e tests check the same
identity on real kernel runs; the purity tests pin that attaching the
tracer (and the ``why.explain`` emitter) never moves a canonical event.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cases import Solution, get_case, run_case
from repro.obs import BreachExplainer, CritPathTracer, TelemetryPipeline
from repro.obs.critpath import SEGMENTS, UNKNOWN
from repro.obs.golden import canonical_names, first_divergence, run_golden_case
from repro.obs.tracepoints import DERIVED_PREFIXES, TracepointBus, is_derived

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

TID = 7
RID = 1


def _load_golden(case_id):
    with open(os.path.join(GOLDEN_DIR, "%s.json" % case_id)) as handle:
        return json.load(handle)


def _drive(steps, tail_gap=0):
    """Feed one synthetic request through an attached tracer.

    ``steps`` is ``[(gap_us, op), ...]`` where ``op`` is an
    ``(event, *payload)`` tuple; the request begins at t=0 and ends
    ``tail_gap`` after the last step.  Returns the finalized trace.
    """
    bus = TracepointBus()
    tracer = CritPathTracer()
    tracer.attach(bus)
    bus.point("req.begin").fire(0, rid=RID, tid=TID, tenant="t0")
    now = 0
    for gap, op in steps:
        now += gap
        kind = op[0]
        if kind == "enqueue":
            bus.point("sched.enqueue").fire(now, tid=TID, name="c")
        elif kind == "switch":
            bus.point("sched.switch").fire(now, tid=TID, name="c", core=0,
                                           slice_us=100)
        elif kind == "switchout":
            bus.point("sched.switchout").fire(now, tid=TID, core=0,
                                              ran_us=gap, done=op[1])
        elif kind == "sleep":
            bus.point("sched.sleep").fire(now, tid=TID, us=100)
        elif kind == "futex":
            bus.point("futex.wait").fire(now, tid=TID, key="mutex",
                                         waiters=1, holders=len(op[1]),
                                         holder_psids=list(op[1]))
        elif kind == "throttle":
            bus.point("cgroup.throttle").fire(now, group="g", tid=TID)
        elif kind == "unthrottle":
            bus.point("cgroup.unthrottle").fire(now, group="g", tids=[TID])
        elif kind == "penalty":
            bus.point("penalty.inject").fire(now, tid=TID, psid=op[1],
                                             delay_us=gap)
        elif kind == "serve":
            bus.point("req.serve").fire(now, rid=RID, tid=99, pool="p",
                                        queued_us=op[1])
    now += tail_gap
    bus.point("req.end").fire(now, rid=RID, tid=TID, latency_us=now)
    traces = tracer.slowest("t0")
    assert len(traces) == 1
    return traces[0]


# -- the exact-sum identity (property) --------------------------------------

_OPS = st.one_of(
    st.just(("enqueue",)),
    st.just(("switch",)),
    st.tuples(st.just("switchout"), st.booleans()),
    st.just(("sleep",)),
    st.tuples(st.just("futex"),
              st.lists(st.integers(1, 3), max_size=2).map(tuple)),
    st.just(("throttle",)),
    st.just(("unthrottle",)),
    st.tuples(st.just("penalty"), st.integers(1, 4)),
    st.tuples(st.just("serve"), st.integers(0, 400)),
)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 500), _OPS), max_size=30),
       tail_gap=st.integers(0, 500))
def test_segments_sum_exactly_for_any_interleaving(steps, tail_gap):
    """sum(buckets) == end - begin, bit-exact, for arbitrary streams."""
    trace = _drive(steps, tail_gap)
    assert sum(trace.buckets.values()) == trace.latency_us
    assert all(us >= 0 for us in trace.buckets.values())
    # Lock blame is conserved: it covers the lock bucket, plus at most
    # the pool carve-out (which deducts unknown-holder blame only).
    blamed = sum(trace.lock_blame.values())
    assert trace.buckets["lock"] <= blamed
    assert blamed <= trace.buckets["lock"] + trace.buckets["pool_queue"]
    # Penalty blame re-walks retained segments; no stream here is long
    # enough to drop any, so the per-psid split is exact too.
    assert sum(trace.penalty_psids.values()) == trace.buckets["penalty"]


# -- targeted replay semantics ----------------------------------------------

def test_lock_wait_blamed_on_holders_with_integer_split():
    trace = _drive([(10, ("futex", (4, 5))), (101, ("enqueue",)),
                    (20, ("switch",))])
    assert trace.buckets["lock"] == 101
    assert trace.buckets["runnable"] == 20
    # 101 // 2 = 50 each, remainder to the first holder.
    assert trace.lock_blame[(4, "mutex")] == 51
    assert trace.lock_blame[(5, "mutex")] == 50


def test_holderless_wait_blames_unknown():
    trace = _drive([(0, ("futex", ())), (80, ("enqueue",))])
    assert trace.lock_blame == {(UNKNOWN, "mutex"): 80}


def test_pool_queue_carved_out_of_lock_sum_preserving():
    """The worker's queued_us report subdivides the client's task wait."""
    trace = _drive([(0, ("futex", ())), (50, ("serve", 300)),
                    (250, ("enqueue",)), (10, ("switch",))])
    # 300 us lock wait total, 300 queued reported -> all of it is queue.
    assert trace.buckets["pool_queue"] == 300
    assert trace.buckets["lock"] == 0
    # The matching unknown-holder blame was consumed by the carve-out.
    assert trace.lock_blame == {}
    assert sum(trace.buckets.values()) == trace.latency_us


def test_pool_queue_carveout_is_capped_by_lock_time():
    trace = _drive([(0, ("futex", ())), (40, ("serve", 10_000)),
                    (60, ("enqueue",))])
    assert trace.buckets["pool_queue"] == 100
    assert trace.buckets["lock"] == 0
    assert sum(trace.buckets.values()) == trace.latency_us


def test_penalty_segments_split_per_psid():
    trace = _drive([(5, ("penalty", 2)), (300, ("enqueue",)),
                    (10, ("switch",)), (0, ("penalty", 3)),
                    (200, ("enqueue",))])
    assert trace.buckets["penalty"] == 500
    assert trace.penalty_psids == {2: 300, 3: 200}


def test_requeue_without_enqueue_counts_as_runnable():
    """switchout(done=False) re-queues with no sched.enqueue event."""
    trace = _drive([(50, ("switchout", False)), (70, ("switch",)),
                    (30, ("switchout", True))])
    assert trace.buckets["oncpu"] == 80
    assert trace.buckets["runnable"] == 70


# -- e2e on real runs -------------------------------------------------------

def _traced_run(case_id, duration_s=1.5, seed=1):
    tracer = CritPathTracer()
    run_case(get_case(case_id), Solution.PBOX, duration_s=duration_s,
             seed=seed, observer=lambda env: tracer.attach(env.kernel.trace))
    return tracer


def test_e2e_identity_on_real_run():
    tracer = _traced_run("c5")
    assert tracer.completed_count() > 0
    for tenant in tracer.tenants():
        for trace in tracer.slowest(tenant):
            assert sum(trace.buckets.values()) == trace.latency_us, trace
    table = tracer.format_table(slowest=5)
    assert "[sum ok]" in table
    assert "MISMATCH" not in table
    # c5's noisy tenant is the backup: one dump request longer than the
    # whole run, so only the victim ever *completes* requests here.
    totals = tracer.tenant_totals()
    assert set(totals) == {"victim"}
    for row in totals.values():
        assert row["requests"] > 0


def test_e2e_groups_by_tenant():
    """c1 completes requests on both sides of the interference pair."""
    tracer = _traced_run("c1")
    totals = tracer.tenant_totals()
    assert set(totals) == {"victim", "noisy"}
    for row in totals.values():
        assert row["requests"] > 0


def test_e2e_pool_requests_join_worker_side():
    """c16 (event-driven pools): rid flows client -> pool worker."""
    tracer = _traced_run("c16")
    assert tracer.completed_count() > 0
    # Lock-heavy case: the slowest victims show blamed lock time.
    slow = tracer.slowest("victim", k=5)
    assert any(t.lock_blame for t in slow)


def test_explain_reports_dominant_segments():
    tracer = _traced_run("c5")
    tenant = tracer.tenants()[0]
    top = tracer.explain(tenant, top=3)
    assert 0 < len(top) <= 3
    for rid, latency_us, kind, us in top:
        assert kind in SEGMENTS
        assert 0 <= us <= latency_us


def test_to_json_dict_squeezes_deterministically():
    tracer = _traced_run("c5")
    doc = tracer.to_json_dict(budget_bytes=4_096)
    payload = json.dumps(doc, sort_keys=True)
    assert doc["squeezed_to"] >= 3
    # Floor reached or under budget; either way the doc stays small
    # enough for the results/ byte ceiling with room to spare.
    if doc["squeezed_to"] > 3:
        assert len(payload) <= 4_096 + 64   # + the squeezed_to key
    for entry in doc["tenants"].values():
        assert len(entry["slowest"]) <= doc["squeezed_to"]


# -- breach explainer -------------------------------------------------------

def test_breach_explainer_fires_derived_why_point():
    bus = TracepointBus()
    tracer = CritPathTracer()
    tracer.attach(bus)
    bus.point("req.begin").fire(0, rid=1, tid=TID, tenant="t0")
    bus.point("req.end").fire(9_000, rid=1, tid=TID, latency_us=9_000)
    explainer = BreachExplainer(tracer, window_us=50_000).attach(bus)
    fired = []
    bus.subscribe("why.explain",
                  lambda name, t, fields: fired.append((name, t, fields)))
    bus.point("slo.breach").fire(10_000, tenant="t0", burn_short=3.0,
                                 burn_long=2.5)
    assert len(explainer.explanations) == 1
    record = explainer.explanations[0]
    assert record["tenant"] == "t0"
    assert record["top"][0][:2] == [1, 9_000]
    assert fired and fired[0][2]["tenant"] == "t0"
    explainer.detach()
    bus.point("slo.breach").fire(20_000, tenant="t0", burn_short=3.0,
                                 burn_long=2.5)
    assert len(explainer.explanations) == 1


def test_breach_explainer_handles_empty_window():
    bus = TracepointBus()
    explainer = BreachExplainer(CritPathTracer()).attach(bus)
    bus.point("slo.breach").fire(10_000, tenant="t9", burn_short=3.0,
                                 burn_long=2.5)
    assert explainer.explanations == [
        {"tenant": "t9", "at_us": 10_000, "top": []}]


# -- derived namespaces stay out of the canonical stream --------------------

def test_derived_prefixes_cover_slo_and_why():
    assert set(DERIVED_PREFIXES) == {"slo.", "why."}
    assert is_derived("slo.breach")
    assert is_derived("why.explain")
    assert not is_derived("req.begin")


def test_derived_points_never_enter_canonical_names():
    """No derived point -- registered or lazily created -- is canonical."""
    bus = TracepointBus()
    # Lazily-created derived points must stay excluded too.
    bus.point("why.custom")
    bus.point("slo.custom")
    names = canonical_names(bus)
    assert not any(is_derived(name) for name in names)
    for required in ("req.begin", "req.end", "req.serve", "req.done"):
        assert required in names
    for derived in ("slo.breach", "slo.recover", "why.explain",
                    "why.custom", "slo.custom"):
        assert derived in bus.names()
        assert derived not in names


# -- golden purity: tracing is a pure observer ------------------------------

def _assert_golden_unchanged_with_tracing(case_id):
    from repro.obs.slo import BurnRatePolicy, SLObjective, SLOEvaluator

    golden = _load_golden(case_id)
    evaluator = SLOEvaluator(
        {"victim": SLObjective(latency_us=100, target=0.9)},
        policy=BurnRatePolicy(short_windows=1, long_windows=2,
                              threshold=0.5, clear_below=0.1))
    pipeline = TelemetryPipeline(evaluator=evaluator)
    tracer = CritPathTracer()
    explainer = BreachExplainer(tracer)

    def observer(env):
        env.telemetry = pipeline
        pipeline.attach(env.kernel.trace, manager=env.runtime.manager)
        tracer.attach(env.kernel.trace)
        explainer.attach(env.kernel.trace)

    actual = run_golden_case(case_id, golden["duration_s"],
                             golden["seed"], observer=observer)
    assert first_divergence(golden, actual) is None, (
        "request tracing changed the canonical stream of %s" % case_id)
    # The harsh objective guarantees slo.* and why.* actually fired, so
    # the purity claim covers the emitting paths, not just attachment.
    assert tracer.completed_count() > 0, case_id
    assert explainer.explanations, case_id


def test_tracer_is_pure_subscriber_on_golden_case():
    """Attached tracer + explainer (why.* firing) moves no event."""
    _assert_golden_unchanged_with_tracing("c1")


@pytest.mark.slow
@pytest.mark.parametrize("case_id", ["c%d" % n for n in range(1, 21)])
def test_tracer_is_pure_subscriber_everywhere(case_id):
    """Telemetry (slo.* firing), tracer and explainer (why.* firing),
    attached together, move no event in any corpus case."""
    _assert_golden_unchanged_with_tracing(case_id)


# -- CLI ---------------------------------------------------------------------

def test_cli_why_prints_table_and_writes_json(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "WHY.json"
    html = tmp_path / "why.html"
    assert main(["why", "c5", "--slowest", "3", "--duration", "1.5",
                 "--json", str(out), "--html", str(html)]) == 0
    printed = capsys.readouterr().out
    assert "per-request critical paths" in printed
    assert "[sum ok]" in printed
    assert "MISMATCH" not in printed
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["target"] == "c5"
    assert doc["completed"] > 0
    assert html.read_text().startswith("<!DOCTYPE html>")


def test_cli_why_scale_smoke(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "WHY.json"
    assert main(["why", "scale", "--threads", "100", "--slowest", "2",
                 "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "per-request critical paths" in printed
    doc = json.loads(out.read_text())
    assert any(t.startswith("t") for t in doc["tenants"])
