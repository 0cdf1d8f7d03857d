"""Observability overhead: tracing disabled must be within noise.

The tracepoint bus is designed so that an unsubscribed tracepoint costs
one attribute load and truth test at each firing site.  This benchmark
quantifies that in two ways:

- wall-clock: run case c5 under pBox with no subscribers (the default
  for every production run) versus fully instrumented (tracer + span
  recorder + metrics collector), timing the identical simulation;
- microbench: measure the per-check cost of the disabled guard and,
  from the kernel's own statistics, bound the fraction of the disabled
  run spent on guards.

The acceptance bar is that disabled-tracing guard overhead stays under
5% of the run -- the reproduction's analogue of Figure 16's "overhead
when idle" property.
"""

import time

from _common import once, write_result

from repro.cases import Solution, get_case, run_case
from repro.core.trace import PBoxTracer
from repro.obs import MetricsCollector, SpanRecorder, Tracepoint

CASE_ID = "c5"
DURATION_S = 2
REPEATS = 3
GUARD_BUDGET_FRACTION = 0.05


def _best_wall_clock(fn):
    best = None
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _run_disabled():
    return run_case(get_case(CASE_ID), Solution.PBOX,
                    duration_s=DURATION_S)


def _run_instrumented():
    tracer = PBoxTracer()
    recorder = SpanRecorder()
    collector = MetricsCollector()

    def observer(env):
        tracer.attach(env.kernel.trace)
        recorder.attach(env.kernel.trace)
        collector.attach(env.kernel.trace)
        env.metrics = collector.registry

    return run_case(get_case(CASE_ID), Solution.PBOX,
                    duration_s=DURATION_S, observer=observer)


def _guard_cost_ns(loops=2_000_000):
    """Per-iteration cost of the disabled-tracepoint guard pattern."""
    tp = Tracepoint("bench.disabled")
    rng = range(loops)
    start = time.perf_counter()
    for _ in rng:
        if tp.active:
            tp.fire(0)
    guarded = time.perf_counter() - start
    start = time.perf_counter()
    for _ in rng:
        pass
    empty = time.perf_counter() - start
    # Unclamped: noise can make it negative, and it is reported so.
    return (guarded - empty) / loops * 1e9


def test_tracing_disabled_overhead_within_budget(benchmark):
    def run():
        disabled_s, disabled_run = _best_wall_clock(_run_disabled)
        instrumented_s, _ = _best_wall_clock(_run_instrumented)
        guard_ns = _guard_cost_ns()

        # Bound the number of guard evaluations in the disabled run from
        # the kernel's own accounting: each syscall passes a handful of
        # firing sites (enqueue/switch/switchout/sleep/futex), each
        # context switch two, plus the manager's per-event checks.
        stats = disabled_run.env.kernel.stats
        manager_events = disabled_run.manager.stats["events"]
        guard_checks = (3 * stats["syscalls"]
                        + 2 * stats["context_switches"]
                        + 2 * manager_events)
        guard_total_s = guard_checks * guard_ns / 1e9
        guard_fraction = guard_total_s / disabled_s if disabled_s else 0.0
        return (disabled_s, instrumented_s, guard_ns, guard_checks,
                guard_fraction)

    disabled_s, instrumented_s, guard_ns, guard_checks, guard_fraction = \
        once(benchmark, run)

    slowdown = instrumented_s / disabled_s if disabled_s else 1.0
    lines = [
        "# Tracing overhead, case %s at %ds simulated (best of %d runs)."
        % (CASE_ID, DURATION_S, REPEATS),
        "# 'disabled' is the default path: tracepoints wired but no",
        "# subscribers; 'instrumented' attaches tracer + span recorder",
        "# + metrics collector.  guard% bounds the disabled-run time",
        "# spent on tracepoint guards (budget: <%d%%)."
        % int(GUARD_BUDGET_FRACTION * 100),
        "config\twall_s\tvs_disabled\tguard_ns\tguard_checks\tguard%",
        "disabled\t%.3f\t1.00x\t%.1f\t%d\t%.2f%%"
        % (disabled_s, guard_ns, guard_checks, guard_fraction * 100),
        "instrumented\t%.3f\t%.2fx\t\t\t"
        % (instrumented_s, slowdown),
    ]
    write_result("obs_overhead.txt", lines)

    # The disabled path must stay within noise of the uninstrumented
    # seed: its only added work is the guard checks, whose estimated
    # total must be a small fraction of the run.
    assert guard_fraction < GUARD_BUDGET_FRACTION, (
        "disabled-tracing guards cost %.1f%% of the run (budget %d%%)"
        % (guard_fraction * 100, GUARD_BUDGET_FRACTION * 100)
    )
    # Fully instrumented tracing is allowed to cost, but not absurdly.
    assert slowdown < 10, "instrumented run %.1fx slower" % slowdown
