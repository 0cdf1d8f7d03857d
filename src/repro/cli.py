"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list-cases``                      the 16 Table 3 cases
- ``run-case c5 [--solution pbox]``   measure To/Ti/Ts for one case
- ``table3``                          interference levels for all cases
- ``analyze file.c``                  run Algorithm 2 over mini-C source
- ``trace c5 [--export t.json]``      run a case under pBox and print
                                      the Section 7 trace report; with
                                      --export, also write a Perfetto-
                                      compatible trace-event JSON file
- ``metrics c5``                      run a case under pBox with the
                                      metrics registry attached and
                                      print counters + latency
                                      histograms
- ``profile c17 [--folded out.txt]``  run a case under pBox with the
                                      attribution profiler attached and
                                      print the blame matrix; optional
                                      flags write folded stacks
                                      (flamegraph.pl), speedscope JSON,
                                      an HTML summary, and the raw
                                      attribution JSON
- ``sweep [--jobs N]``                evaluate the case registry through
                                      the parallel experiment runner
                                      with content-addressed result
                                      caching; writes
                                      results/SWEEP.json
- ``scale [--threads 100,10000]``     sweep the multi-tenant scenario
                                      (T tenants x W workers over the
                                      app models) across thread counts,
                                      recording kernel event throughput
                                      and manager detection cost per
                                      point; writes results/SCALE.json
                                      (--telemetry adds the per-tenant
                                      SLO telemetry section, schema 2)
- ``watch c5 | watch scale``          run a case (or one scale point)
                                      with the always-on telemetry
                                      pipeline attached and render a
                                      live terminal dashboard (per-
                                      tenant sketches, windowed time-
                                      series, burn-rate SLO alerts);
                                      --once prints a single final
                                      frame, --html exports a self-
                                      contained dashboard
- ``why c5 [--slowest K]``            run a case (or one scale point)
                                      with the per-request causal tracer
                                      attached and print the slowest
                                      requests' critical-path latency
                                      decomposition (on-CPU, runnable,
                                      lock -- blamed on holder pBoxes --
                                      pool queue, throttle, penalty);
                                      writes results/WHY.json, --html
                                      exports a standalone report
- ``chaos [--faults k1,k2]``          sweep cases x fault kinds x seeds
                                      through the deterministic fault-
                                      injection harness; exits non-zero
                                      on any invariant violation and
                                      writes results/CHAOS.json
- ``report [--results-dir results]``  stitch benchmark outputs into
                                      results/REPORT.md

Setting the ``REPRO_SMOKE`` environment variable (any non-empty value)
clamps every command's ``--duration`` to 1.5 simulated seconds and
restricts a filter-less ``sweep`` to two cases — the mode the docs CI
job uses to execute every quoted command quickly.
"""

import argparse
import json
import os
import sys

from repro.analyzer import (
    Analyzer,
    DEFAULT_WAIT_FUNCS,
    PY_WAIT_FUNCS,
    parse_module,
    parse_python,
)
from repro.atomic import write_atomic
from repro.cases import ALL_CASES, Solution, evaluate_case, get_case, run_case
from repro.core.trace import PBoxTracer
from repro.obs import (
    AttributionProfiler,
    FoldedProfile,
    MetricsCollector,
    MetricsRegistry,
    SpanRecorder,
    write_chrome_trace,
)
from repro.report import write_report


def _case_order(case_id):
    return int(case_id[1:])


def cmd_list_cases(_args):
    """Print the registry of interference cases."""
    print("%-5s %-12s %-22s %s" % ("case", "app", "resource", "description"))
    for case_id in sorted(ALL_CASES, key=_case_order):
        case = get_case(case_id)
        print("%-5s %-12s %-22s %s" % (case.case_id, case.app_name,
                                       case.virtual_resource,
                                       case.description))
    return 0


def cmd_run_case(args):
    """Evaluate one case under one solution."""
    case = get_case(args.case)
    solution = Solution(args.solution)
    evaluation = evaluate_case(case, solutions=[solution],
                               duration_s=args.duration, seed=args.seed)
    print("case %s (%s): %s" % (case.case_id, case.app_name,
                                case.description))
    print("To (interference-free): %8.2f ms" % (evaluation.to_us / 1_000))
    print("Ti (vanilla)          : %8.2f ms   p = %.2f"
          % (evaluation.ti_us / 1_000, evaluation.interference_level))
    print("Ts (%s)%s: %8.2f ms   r = %+.2f"
          % (solution.value, " " * max(0, 15 - len(solution.value)),
             evaluation.ts_us(solution) / 1_000,
             evaluation.reduction_ratio(solution)))
    return 0


def cmd_table3(args):
    """Interference levels for every case."""
    print("%-5s %-12s %10s %10s %10s" % ("case", "app", "To(ms)", "Ti(ms)",
                                         "p"))
    for case_id in sorted(ALL_CASES, key=_case_order):
        case = get_case(case_id)
        evaluation = evaluate_case(case, solutions=(),
                                   duration_s=args.duration, seed=args.seed)
        print("%-5s %-12s %10.2f %10.2f %10.2f" % (
            case.case_id, case.app_name, evaluation.to_us / 1_000,
            evaluation.ti_us / 1_000, evaluation.interference_level))
    return 0


def cmd_analyze(args):
    """Run the static analyzer over a source file.

    ``.py`` files go through the Python frontend with Python waiting
    functions; everything else is parsed as mini-C.
    """
    with open(args.file) as handle:
        source = handle.read()
    if args.file.endswith(".py"):
        module = parse_python(source, name=args.file)
        analyzer = Analyzer(wait_funcs=PY_WAIT_FUNCS)
    else:
        module = parse_module(source, name=args.file)
        analyzer = Analyzer(wait_funcs=DEFAULT_WAIT_FUNCS)
    wrappers = analyzer.find_wrappers(module)
    if wrappers:
        print("wrappers:")
        for wrapper, wait_func in sorted(wrappers.items()):
            print("  %s -> %s" % (wrapper, wait_func))
    locations = analyzer.analyze(module)
    if not locations:
        print("no candidate state-event locations found")
        return 1
    print("candidate update_pbox locations:")
    for location in locations:
        print("  %s:%d call %s (waits via %s), shared: %s" % (
            location.function, location.line, location.callee,
            location.wait_func, ", ".join(location.shared_vars)))
    return 0


#: Duration ceiling (simulated seconds) applied when REPRO_SMOKE is set.
#: Must exceed the cases' 1 s warmup or victim recorders stay empty.
SMOKE_DURATION_S = 1.5


def _smoke_mode():
    """True when the docs-CI smoke mode is requested via environment."""
    return bool(os.environ.get("REPRO_SMOKE"))


def _event_budget(args):
    """``--event-budget``, clamped to 40,000 events in smoke mode."""
    if _smoke_mode():
        return min(args.event_budget, 40_000)
    return args.event_budget


def _case_evaluator(case):
    """Default SLO evaluator for watching/explaining one case run."""
    from repro.obs.slo import BurnRatePolicy, SLObjective, SLOEvaluator

    nominal = case.nominal_baseline_us
    objectives = {}
    if nominal:
        # Monitor the victim against its known uncontended baseline:
        # bad = slower than 3x nominal, with a 90% target.
        objectives["victim"] = SLObjective(latency_us=int(nominal * 3),
                                           slowdown=3.0, target=0.9)
    return SLOEvaluator(
        objectives, policy=BurnRatePolicy(short_windows=3, long_windows=10,
                                          threshold=2.0, clear_below=1.0))


def _observe(args, target, attach, solution=Solution.PBOX, pipeline=None,
             frame=None):
    """Run an observe command's target; returns the final virtual time.

    ``target`` is a case id, run through :func:`run_case` under
    ``solution``, or ``"scale"``: one point of the scenario ``repro
    scale`` ships (eevdf, every app family, ``--threads`` threads).
    ``pipeline``, a telemetry pipeline (the scale target needs one),
    gets the target's SLO evaluator and subscribes first; ``attach(env)``
    then subscribes the command's own subscribers to ``env.kernel``.  A
    case's subscribers attach before it builds; a scale point's
    pipeline attaches during the build and the command's subscribers
    after it.  ``frame()`` is called between five-window steps of the
    kernel; without it the kernel runs to the horizon in one call.

    A case run shorter than its warmup records no victim samples:
    instead of the harness's error, print a warning and return, so the
    command still shows what its subscribers collected.
    """

    def advance(kernel, until_us):
        if frame is not None:
            step_us = pipeline.window_us * 5
            until = step_us
            while until < until_us:
                kernel.run(until_us=until)
                frame()
                until += step_us
        kernel.run(until_us=until_us)

    if target == "scale":
        from repro.scale.scenario import (
            EXTENDED_APP_KINDS,
            ScaleSpec,
            build_scale_scenario,
        )
        from repro.scale.sweep import default_scale_evaluator

        spec = ScaleSpec(args.threads, seed=args.seed,
                         event_budget=_event_budget(args), sched="eevdf",
                         families=EXTENDED_APP_KINDS)
        pipeline.evaluator = default_scale_evaluator()
        scenario = build_scale_scenario(spec, telemetry=pipeline)
        attach(scenario)
        advance(scenario.kernel, spec.duration_us)
        pipeline.finalize(scenario.kernel.now_us)
        return scenario.kernel.now_us

    case = get_case(target)
    if pipeline is not None:
        pipeline.evaluator = _case_evaluator(case)
    envs = []

    def observer(env):
        envs.append(env)
        if pipeline is not None:
            env.telemetry = pipeline
            pipeline.attach(env.kernel.trace, manager=env.runtime.manager)
        attach(env)

    try:
        run_case(case, solution, duration_s=args.duration, seed=args.seed,
                 observer=observer,
                 driver=lambda env: advance(env.kernel, env.duration_us))
    except RuntimeError as exc:
        # run_case finalized the telemetry before it raised.
        if "no victim samples" not in str(exc):
            raise
        print("warning: %s -- showing telemetry collected so far" % exc)
    return envs[0].kernel.now_us


def _title(args):
    """Report title of a ``watch`` or ``why`` run."""
    if args.target == "scale":
        return "repro %s scale (%d threads)" % (args.command, args.threads)
    return "repro %s %s" % (args.command, args.target)


def cmd_trace(args):
    """Run a case under pBox and print the trace report.

    With ``--export PATH`` the run is also recorded as spans and written
    out as Chrome trace-event JSON (open it in ui.perfetto.dev).
    """
    tracer = PBoxTracer(record_events=args.record_events)
    recorder = SpanRecorder() if args.export else None

    def attach(env):
        tracer.attach(env.kernel.trace)
        if recorder is not None:
            recorder.attach(env.kernel.trace)

    _observe(args, args.case, attach)
    print(tracer.format_report())
    if recorder is not None:
        path = write_chrome_trace(recorder, args.export, case_id=args.case)
        print("wrote %s (%d spans, %d flow pairs)"
              % (path, len(recorder.spans), len(recorder.paired_flows())))
    return 0


def cmd_metrics(args):
    """Run a case under pBox and print the unified metrics registry."""
    registry = MetricsRegistry()
    collector = MetricsCollector(registry)

    def attach(env):
        env.metrics = registry
        collector.attach(env.kernel.trace)

    _observe(args, args.case, attach)
    print(registry.format_report())
    if args.json:
        registry.save_json(args.json)
        print("wrote %s" % args.json)
    return 0


def cmd_profile(args):
    """Run a case under pBox with the attribution profiler attached.

    Prints the blame matrix and wait-for cycle warnings; optional flags
    write flamegraph.pl folded stacks (``--folded``), speedscope JSON
    (``--json``), a self-contained HTML summary (``--html``) and the raw
    attribution snapshot (``--blame``).
    """
    profiler = AttributionProfiler()
    recorder = SpanRecorder(record_slices=not args.no_slices)

    def attach(env):
        profiler.attach(env.kernel.trace)
        recorder.attach(env.kernel.trace)

    _observe(args, args.case, attach, Solution(args.solution))
    print(profiler.format_report(top=args.top))
    profile = FoldedProfile.from_recorder(
        recorder, name="repro %s (%s)" % (args.case, args.solution))
    print("profile: %d folded stacks, %.2f ms of virtual time"
          % (len(profile.weights), profile.total_us() / 1_000))
    if args.folded:
        profile.write_folded(args.folded)
        print("wrote %s" % args.folded)
    if args.json:
        profile.write_speedscope(args.json)
        print("wrote %s" % args.json)
    if args.html:
        profile.write_html(args.html, attribution=profiler.to_dict(),
                           top=args.top)
        print("wrote %s" % args.html)
    if args.blame:
        write_atomic(args.blame,
                     json.dumps(profiler.to_dict(), indent=1) + "\n")
        print("wrote %s" % args.blame)
    return 0


def cmd_watch(args):
    """Run a case or a scale point with a live telemetry dashboard.

    The simulation is stepped in five-window increments; between steps
    the current snapshot is rendered as a terminal frame (cleared in
    place on a TTY, appended otherwise).  ``--once`` runs straight to
    the end and prints only the final state -- the mode CI smokes.
    ``--html PATH`` additionally writes the self-contained HTML
    dashboard at the end of the run.
    """
    from repro.obs import TelemetryPipeline, render_frame, write_html

    pipeline = TelemetryPipeline()
    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""

    def frame():
        if clear:
            print(clear, end="")
        print(render_frame(pipeline.snapshot()))
        if not clear:
            print("-" * 78)

    now_us = _observe(args, args.target, lambda env: None,
                      pipeline=pipeline, frame=None if args.once else frame)
    snapshot = pipeline.snapshot()
    if clear and not args.once:
        print(clear, end="")
    print(render_frame(snapshot))
    breached = ([entry["tenant"] for entry in snapshot["tenants"]
                 if entry["breached"]])
    print()
    print("final: t=%.2fs, %d slo event(s), in breach: %s"
          % (now_us / 1e6, len(snapshot["slo_events"]),
             ", ".join(breached) if breached else "none"))
    if args.html:
        write_html(snapshot, args.html, title=_title(args))
        print("wrote %s" % args.html)
    return 0


#: Byte budget for the tracer portion of results/WHY.json; leaves
#: headroom for breach explanations under the repo-wide 64 KiB
#: per-artifact ceiling enforced by tools/check_results_size.py.
WHY_TRACER_BUDGET = 56 * 1024


def _explanation(entry):
    """One SLO breach explanation: tenant, time and its top requests."""
    tops = ", ".join(
        "req %d: %s %.2f ms" % (rid, kind, us / 1_000)
        for rid, _lat, kind, us in entry["top"]
    ) or "no traced requests in window"
    return "%s @ %.2fs: %s" % (entry["tenant"], entry["at_us"] / 1e6, tops)


def _why_render_html(path, title, table, explanations):
    """Write a minimal self-contained HTML view of a ``why`` run."""
    import html as _html

    lines = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'><title>%s</title>"
        % _html.escape(title),
        "<style>body{font-family:sans-serif;margin:2em;}"
        "pre{background:#f6f6f6;padding:1em;overflow-x:auto;}</style>",
        "</head><body>",
        "<h1>%s</h1>" % _html.escape(title),
        "<pre>%s</pre>" % _html.escape(table),
    ]
    if explanations:
        lines.append("<h2>SLO breach explanations</h2><ul>")
        for entry in explanations:
            lines.append("<li>%s</li>" % _html.escape(_explanation(entry)))
        lines.append("</ul>")
    lines.append("</body></html>")
    write_atomic(path, "\n".join(lines) + "\n")


def cmd_why(args):
    """Explain where request latency went in a case (or scale) run.

    Attaches the per-request causal tracer plus the telemetry pipeline
    and breach explainer, runs the target under pBox, and prints the
    slowest requests' critical-path decomposition: on-CPU, runnable
    wait, lock wait (blamed on the holder's pBox), pool queueing,
    sleep, cgroup throttle, and injected penalty segments that sum
    exactly to each request's recorded latency.  Writes the machine-
    readable summary to ``--json`` (default ``results/WHY.json``).
    """
    from repro.obs import BreachExplainer, CritPathTracer, TelemetryPipeline

    tracer = CritPathTracer(slowest=max(args.slowest, 8))
    pipeline = TelemetryPipeline()
    explainer = BreachExplainer(tracer)

    def attach(env):
        tracer.attach(env.kernel.trace)
        explainer.attach(env.kernel.trace)

    _observe(args, args.target, attach, pipeline=pipeline)
    table = tracer.format_table(slowest=args.slowest, tenant=args.tenant)
    print(table)
    explanations = explainer.explanations
    if explanations:
        print("slo breach explanations (last %d of %d):"
              % (min(5, len(explanations)), len(explanations)))
        for entry in explanations[-5:]:
            print("  %s" % _explanation(entry))

    doc = tracer.to_json_dict(budget_bytes=WHY_TRACER_BUDGET,
                              slowest=args.slowest)
    doc["target"] = args.target
    doc["explanations"] = explanations[-20:]
    if args.json:
        write_atomic(args.json,
                     json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print("wrote %s" % args.json)
    if args.html:
        _why_render_html(args.html, _title(args), table, explanations[-20:])
        print("wrote %s" % args.html)
    return 0


def _runner_prelude(args, label_width):
    """What ``sweep`` and ``chaos`` set up before their jobs run.

    Returns ``(case_ids, seeds, cache, progress)``: the cases
    ``--filter`` selects (the first two in smoke mode when no filter is
    given), the seed list, the result cache (None under ``--no-cache``)
    and a progress printer.  Returns None, after saying so, when no
    case matches.
    """
    from repro.runner import ResultCache, sweep_case_ids

    case_ids = sweep_case_ids(args.filter)
    if not case_ids:
        print("no cases match filter %r" % args.filter)
        return None
    if _smoke_mode() and not args.filter:
        case_ids = case_ids[:2]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    def progress(done, total, spec, cached, wall_s):
        if not args.quiet:
            print("[%3d/%3d] %-*s %s" % (
                done, total, label_width, spec.label(),
                "hit " if cached else "%5.2fs" % wall_s))

    return case_ids, seeds, cache, progress


def cmd_sweep(args):
    """Evaluate the registry through the parallel experiment runner.

    Jobs are content-addressed by (spec, code fingerprint): a re-run
    with unchanged code replays results from the on-disk cache in
    milliseconds.  ``--jobs N`` fans uncached jobs out over N worker
    processes; results are bit-identical to ``--jobs 1`` because every
    job re-seeds its own kernel (see docs/RUNNING_EXPERIMENTS.md).
    """
    from repro.runner import SweepInterrupted, run_sweep

    prelude = _runner_prelude(args, 28)
    if prelude is None:
        return 1
    case_ids, seeds, cache, progress = prelude
    solutions = []
    for name in args.solutions.split(","):
        name = name.strip()
        if not name:
            continue
        solution = Solution(name)
        if solution in (Solution.NONE, Solution.NO_INTERFERENCE):
            print("solution %r is implicit (every sweep measures To and "
                  "Ti); pick from the mitigating solutions" % name)
            return 1
        solutions.append(solution)

    try:
        result = run_sweep(case_ids=case_ids, solutions=solutions,
                           seeds=seeds, duration_s=args.duration,
                           jobs=args.jobs, cache=cache,
                           use_cache=not args.no_cache, progress=progress)
    except SweepInterrupted as stop:
        # Ctrl-C: persist the completed evaluations atomically instead
        # of losing the sweep (or truncating a previous SWEEP.json).
        partial = stop.partial
        path = partial.write_json(args.out)
        print()
        print("interrupted: wrote %d complete evaluation(s) to %s"
              % (len(partial.evaluations), path))
        return 130

    solution_names = [s.value for s in solutions]
    print()
    print("%-5s %10s %10s %8s  %s" % (
        "case", "To(ms)", "Ti(ms)", "p",
        "  ".join("r(%s)" % n for n in solution_names)))
    for seed in seeds:
        for case_id, ev in result.by_case(seed).items():
            ratios = "  ".join(
                "%+6.2f" % ev.reduction_ratio(s) for s in solutions)
            print("%-5s %10.2f %10.2f %8.2f  %s%s" % (
                case_id, ev.to_us / 1_000, ev.ti_us / 1_000,
                ev.interference_level, ratios,
                ("   [seed %d]" % seed) if len(seeds) > 1 else ""))
    stats = result.stats
    print()
    print("%d jobs: %d executed, %d cache hits; %d worker(s), %.2fs wall"
          % (stats["total"], stats["executed"], stats["cache_hits"],
             stats["workers"], stats["wall_s"]))
    path = result.write_json(args.out)
    print("wrote %s" % path)
    return 0


def cmd_chaos(args):
    """Sweep cases x fault kinds x seeds through the chaos harness.

    Every (case, fault, seed) combination runs the pBox solution with
    the fault cocktail injected at deterministic virtual times, the
    idle watchdog armed, and the invariant suite auditing the run.
    Writes ``results/CHAOS.json`` (atomically; byte-identical across
    re-runs) and exits non-zero if any invariant was violated, printing
    each violation's minimized repro spec.
    """
    from repro.faults import ChaosInterrupted, run_chaos

    prelude = _runner_prelude(args, 40)
    if prelude is None:
        return 1
    case_ids, seeds, cache, progress = prelude
    kinds = [k.strip() for k in args.faults.split(",") if k.strip()]
    run_stats = {}
    try:
        result = run_chaos(case_ids=case_ids, kinds=kinds, seeds=seeds,
                           duration_s=args.duration, jobs=args.jobs,
                           cache=cache, use_cache=not args.no_cache,
                           progress=progress, timeout_s=args.timeout,
                           run_stats=run_stats)
    except ChaosInterrupted as stop:
        partial = stop.partial
        path = partial.write_json(args.out)
        print()
        print("interrupted: wrote %d/%d completed runs to %s"
              % (partial.stats["completed"], partial.stats["total"], path))
        return 130
    except ValueError as exc:
        print("chaos: %s" % exc)
        return 2

    summary = result.to_json_dict()["summary"]
    stats = result.stats
    print()
    print("%d runs: %d faults fired, %d crashes contained, "
          "%d watchdog recoveries, %d stale repairs"
          % (summary["runs"], summary["faults_fired"],
             summary["crashes_contained"], summary["watchdog_recoveries"],
             summary["stale_repairs"]))
    print("%d jobs: %d cache hits; %d worker(s), %.2fs wall"
          % (stats["total"], stats["cache_hits"], stats["workers"],
             stats["wall_s"]))
    if run_stats.get("retries") or run_stats.get("degraded"):
        print("runner healing: %d retries, %d worker errors, degraded=%s"
              % (run_stats.get("retries", 0),
                 run_stats.get("worker_errors", 0),
                 run_stats.get("degraded", False)))
    path = result.write_json(args.out)
    print("wrote %s" % path)

    violations = result.violations()
    if violations:
        print()
        print("%d invariant violation(s):" % len(violations))
        for violation in violations[:20]:
            repro = violation.get("repro") or {}
            print("  [%s] %s (t=%dus)" % (
                violation.get("invariant", "?"),
                violation.get("detail", ""),
                violation.get("time_us", 0)))
            print("    repro: python -m repro chaos --filter %s "
                  "--faults %s --seeds %s --duration %s"
                  % (repro.get("case"), repro.get("faults"),
                     repro.get("seed"), args.duration))
        return 1
    print("all invariants held")
    return 0


def cmd_scale(args):
    """Sweep the multi-tenant scale scenario across thread counts.

    Each point composes the application models into one kernel with
    ``threads // 20`` tenants (two connection pBoxes each, so the pBox
    population scales with the thread count) and runs it twice --
    manager enabled and disabled -- so the manager's detection cost is
    the wall-clock delta on an identical event stream.
    """
    from repro.scale import (
        DEFAULT_THREAD_COUNTS,
        EXTENDED_APP_KINDS,
        SMOKE_THREAD_COUNTS,
        run_scale_sweep,
    )
    from repro.scale.sweep import write_scale_json

    if args.threads:
        thread_counts = tuple(
            int(t) for t in args.threads.split(",") if t.strip())
    elif _smoke_mode():
        thread_counts = SMOKE_THREAD_COUNTS
    else:
        thread_counts = DEFAULT_THREAD_COUNTS

    print("%7s %7s %7s %6s %10s %10s %9s" % (
        "threads", "tenants", "pboxes", "cores",
        "events/s", "requests", "mgr cost"))

    def progress(point):
        print("%7d %7d %7d %6d %10d %10d %8.1f%%" % (
            point["threads"], point["tenants"], point["pboxes"],
            point["cores"], point["events_per_sec"], point["requests"],
            100.0 * point["manager"]["overhead_frac"]))

    # The CLI ships eevdf with the full six-family mix; the benchmark
    # A/B guard keeps exercising the library defaults (cfs, three
    # families) via ScaleSpec directly.
    document = run_scale_sweep(thread_counts=thread_counts,
                               seed=args.seed,
                               event_budget=_event_budget(args),
                               progress=progress, telemetry=args.telemetry,
                               sched=args.sched,
                               families=EXTENDED_APP_KINDS)
    path = write_scale_json(document, args.out)
    print()
    if args.telemetry:
        for point in document["points"]:
            totals = point["telemetry"]["totals"]
            print("telemetry @%d threads: %d requests, %d bad, "
                  "%d breach(es), %d recover(s)"
                  % (point["threads"], totals["requests"], totals["bad"],
                     totals["breaches"], totals["recovers"]))
    print("%d point(s) in %.1fs wall; wrote %s"
          % (len(document["points"]), document["wall_s"], path))
    return 0


def cmd_ckpt(args):
    """Run a case under the checkpointing supervisor.

    Steps the simulation with checkpoints every ``--cadence-ms`` of
    virtual time, persisting content-addressed artifacts under
    ``--dir``.  ``--kill-at`` injects a worker crash at that virtual
    second; the supervisor resumes from the last good checkpoint and
    the completed stream is still byte-identical to an uninterrupted
    run.  ``--verify`` additionally restores the latest checkpoint
    after the run and checks the resumed digest matches.
    """
    from repro.ckpt import CheckpointStore, RunSupervisor, resume_case

    store = CheckpointStore(args.dir)
    supervisor = RunSupervisor(store,
                               cadence_us=int(args.cadence_ms * 1_000))
    kill_at_us = None if args.kill_at is None else int(args.kill_at * 1e6)
    outcome = supervisor.run(args.case, duration_s=args.duration,
                             seed=args.seed, kill_at_us=kill_at_us,
                             faults=args.faults)
    document = outcome["document"]
    print("case %s: %d events, digest %s"
          % (args.case, document["events"], document["digest"][:16]))
    print("checkpoints: %d stored under %s, resumes: %d"
          % (len(store.ids()), args.dir, outcome["resumes"]))
    if outcome["violations"]:
        for violation in outcome["violations"]:
            print("invariant violation: %s" % violation)
        return 1
    if args.verify:
        checkpoint = store.latest(args.case)
        resumed = resume_case(checkpoint)
        matches = resumed["document"]["digest"] == document["digest"]
        print("verify: resume from t=%.2fs %s"
              % (checkpoint.cut_us / 1e6,
                 "reproduces the run bit-for-bit" if matches
                 else "DIVERGED"))
        if not matches:
            return 1
    return 0


def _golden_corpus_path(case_id):
    """Locate the committed golden document for ``case_id``.

    Tries the current directory first (a repo checkout), then the
    checkout the installed package came from, so the command works from
    any working directory.
    """
    rel = os.path.join("tests", "golden", case_id + ".json")
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    for candidate in (rel, os.path.join(repo_root, rel)):
        if os.path.exists(candidate):
            return candidate
    return None


def cmd_bisect(args):
    """Localize the first divergent event window of a golden case.

    Replays ``case`` and compares it against an expected golden
    document (``--against PATH``, default: the committed corpus
    document).  On a match, exits 0.  On divergence, prints the first
    divergent 4096-event window -- index, event range, and the actual
    event lines from a scoped second replay -- and exits 1.
    """
    from repro.ckpt import bisect_case

    expected_path = args.against or _golden_corpus_path(args.case)
    if expected_path is None:
        print("no golden document for %s: pass --against PATH" % args.case)
        return 2
    with open(expected_path) as handle:
        expected = json.load(handle)
    report = bisect_case(args.case,
                         expected,
                         duration_s=args.duration,
                         seed=args.seed)
    if not report["divergent"]:
        print("case %s matches %s: %d events, digest %s"
              % (args.case, expected_path, report["events"],
                 report["digest"][:16]))
        return 0
    print("case %s DIVERGED from %s" % (args.case, expected_path))
    print("  expected: %d events, digest %s"
          % (report["expected_events"], report["expected_digest"][:16]))
    print("  actual:   %d events, digest %s"
          % (report["actual_events"], report["actual_digest"][:16]))
    print("  first divergent window: #%d (events %d..%d)"
          % (report["window_index"], report["start_event"],
             report["start_event"] + report["window_events"] - 1))
    shown = report["lines"][:args.lines]
    for line in shown:
        print("  %s" % line)
    if len(report["lines"]) > len(shown):
        print("  ... %d more line(s) in this window"
              % (len(report["lines"]) - len(shown)))
    return 1


def cmd_report(args):
    """Aggregate benchmark outputs into a markdown report."""
    path = write_report(args.results_dir)
    print("wrote %s" % path)
    return 0


def build_parser():
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="pBox reproduction (SOSP 2023) command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    case_ids = sorted(ALL_CASES, key=_case_order)

    def command(name, summary, positional=None, duration=None, seed=True):
        """Add subcommand ``name`` with the arguments several share.

        ``positional`` is ``"case"`` (a case id) or ``"target"`` (a case
        id or ``scale``, plus the scale point's ``--threads`` and
        ``--event-budget``); ``duration`` is ``--duration``'s default
        (None: no such flag); ``seed`` adds ``--seed``.
        """
        cmd = sub.add_parser(name, help=summary)
        if positional == "case":
            cmd.add_argument("case", choices=case_ids, help="case id")
        elif positional == "target":
            cmd.add_argument("target", choices=case_ids + ["scale"],
                             help="a case id (runs under pBox) or 'scale'")
            cmd.add_argument("--threads", type=int, default=200,
                             help="thread count for the scale target "
                                  "(default: %(default)s)")
            cmd.add_argument("--event-budget", type=int, default=120_000,
                             help="kernel event budget for the scale "
                                  "target (default: %(default)s)")
        if duration is not None:
            cmd.add_argument("--duration", type=float, default=duration,
                             help="simulated seconds (default: "
                                  "%(default)s)")
        if seed:
            cmd.add_argument("--seed", type=int, default=1,
                             help="kernel RNG seed (default: %(default)s)")
        return cmd

    def runner_command(name, summary, seeds, duration, out):
        """A subcommand that fans its jobs over the experiment runner."""
        cmd = command(name, summary, duration=duration, seed=False)
        cmd.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                         help="worker processes (default: CPU count); "
                              "1 = serial in-process")
        cmd.add_argument("--filter", default=None,
                         help="comma-separated case ids or app/resource "
                              "substrings ('c1,c3', 'mysql'; zero-padded "
                              "ids like c01 are accepted)")
        cmd.add_argument("--seeds", default=seeds,
                         help="comma-separated RNG seeds "
                              "(default: %(default)s)")
        cmd.add_argument("--no-cache", action="store_true",
                         help="skip cache reads and writes")
        cmd.add_argument("--cache-dir", default=None,
                         help="cache root (default: $REPRO_CACHE_DIR "
                              "or .repro-cache)")
        cmd.add_argument("--out", default=out,
                         help="machine-readable summary path "
                              "(default: %(default)s)")
        cmd.add_argument("--quiet", action="store_true",
                         help="suppress per-job progress lines")
        return cmd

    sub.add_parser("list-cases", help="list the 16 interference cases")

    run_parser = command("run-case", "evaluate one case", "case", 6)
    run_parser.add_argument("--solution", default="pbox",
                            choices=[s.value for s in Solution
                                     if s not in (Solution.NONE,
                                                  Solution.NO_INTERFERENCE)])

    command("table3", "interference levels", duration=6)

    analyze_parser = sub.add_parser("analyze",
                                    help="run Algorithm 2 on mini-C source")
    analyze_parser.add_argument("file")

    trace_parser = command("trace", "trace a pBox run", "case", 6)
    trace_parser.add_argument("--export", metavar="PATH", default=None,
                              help="write Chrome trace-event JSON "
                                   "(Perfetto-compatible) to PATH")
    trace_parser.add_argument("--record-events", action="store_true",
                              help="keep per-event records in the tracer "
                                   "ring buffer")

    metrics_parser = command(
        "metrics", "run a case and print the metrics registry", "case", 6)
    metrics_parser.add_argument("--json", metavar="PATH", default=None,
                                help="also dump the registry as JSON")

    profile_parser = command(
        "profile", "run a case with the contention attribution profiler "
                   "and flame-profile the run", "case", 6)
    profile_parser.add_argument("--solution", default="pbox",
                                choices=[s.value for s in Solution])
    profile_parser.add_argument("--top", type=int, default=20,
                                help="rows to show per report section")
    profile_parser.add_argument("--no-slices", action="store_true",
                                help="skip per-CPU-slice spans (smaller "
                                     "profiles on long runs)")
    profile_parser.add_argument("--folded", metavar="PATH", default=None,
                                help="write flamegraph.pl folded stacks")
    profile_parser.add_argument("--json", metavar="PATH", default=None,
                                help="write speedscope JSON")
    profile_parser.add_argument("--html", metavar="PATH", default=None,
                                help="write a self-contained HTML summary")
    profile_parser.add_argument("--blame", metavar="PATH", default=None,
                                help="write the attribution snapshot as "
                                     "JSON")

    sweep_parser = runner_command(
        "sweep", "evaluate the case registry through the parallel "
                 "experiment runner (content-addressed cache)",
        "1", 6, "results/SWEEP.json")
    sweep_parser.add_argument("--solutions", default="pbox",
                              help="comma-separated solutions to measure "
                                   "(default: pbox; e.g. "
                                   "pbox,cgroup,parties,retro,darc)")

    chaos_parser = runner_command(
        "chaos", "fault-injection sweep: cases x fault kinds x seeds with "
                 "invariant checking (exits non-zero on violations)",
        "1,2,3", 3, "results/CHAOS.json")
    chaos_parser.add_argument("--faults", default="stall,lost_wakeup,crash",
                              help="comma-separated fault kinds (from: "
                                   "stall, holder_stall, lost_wakeup, "
                                   "crash, penalty_misfire, "
                                   "tracepoint_drop)")
    chaos_parser.add_argument("--timeout", type=float, default=None,
                              help="wall-clock budget per job in seconds "
                                   "(over-budget jobs fail and retry)")

    scale_parser = command(
        "scale", "multi-tenant scalability sweep (results/SCALE.json)")
    scale_parser.add_argument("--threads", default=None,
                              help="comma-separated thread counts "
                                   "(default: 100,...,10000)")
    scale_parser.add_argument("--event-budget", type=int, default=120_000,
                              help="target kernel events per point; the "
                                   "virtual horizon shrinks as the core "
                                   "count grows (default: 120000)")
    scale_parser.add_argument("--out", default="results/SCALE.json",
                              help="output path (default: "
                                   "results/SCALE.json)")
    scale_parser.add_argument("--sched", choices=("cfs", "eevdf"),
                              default="eevdf",
                              help="scheduler policy for every kernel "
                                   "of the sweep (default: eevdf)")
    scale_parser.add_argument("--telemetry", action="store_true",
                              help="collect per-tenant SLO telemetry "
                                   "(sketches, windowed series, breach "
                                   "events) in an extra untimed run per "
                                   "point and embed it in SCALE.json")

    watch_parser = command(
        "watch", "live per-tenant SLO telemetry dashboard over a case run "
                 "or a scale point", "target", 6)
    watch_parser.add_argument("--once", action="store_true",
                              help="print only the final frame (CI smoke)")
    watch_parser.add_argument("--html", metavar="PATH", default=None,
                              help="write a self-contained HTML dashboard")

    why_parser = command(
        "why", "per-request critical-path latency decomposition for a "
               "case run or a scale point", "target", 6)
    why_parser.add_argument("--slowest", type=int, default=5,
                            help="requests to show per tenant (default: 5)")
    why_parser.add_argument("--tenant", default=None,
                            help="only show this tenant's requests")
    why_parser.add_argument("--json", metavar="PATH",
                            default="results/WHY.json",
                            help="machine-readable summary path (default: "
                                 "results/WHY.json; empty string skips)")
    why_parser.add_argument("--html", metavar="PATH", default=None,
                            help="write a self-contained HTML report")

    ckpt_parser = command(
        "ckpt", "checkpointed (and optionally crash-resumed) case run "
                "under the supervisor", "case", 1.5)
    ckpt_parser.add_argument("--cadence-ms", type=float, default=250,
                             help="checkpoint cadence in virtual "
                                  "milliseconds (default: 250)")
    ckpt_parser.add_argument("--kill-at", type=float, default=None,
                             metavar="S",
                             help="inject a worker crash at this virtual "
                                  "second; the supervisor resumes from "
                                  "the last good checkpoint")
    ckpt_parser.add_argument("--faults", default=None,
                             help="chaos cocktail to attach (same syntax "
                                  "as 'repro chaos --faults')")
    ckpt_parser.add_argument("--dir", default=".repro-ckpt",
                             help="checkpoint store directory (default: "
                                  ".repro-ckpt)")
    ckpt_parser.add_argument("--verify", action="store_true",
                             help="after the run, restore the latest "
                                  "checkpoint and require the resumed "
                                  "digest to match")

    bisect_parser = command(
        "bisect", "localize the first divergent golden event window of a "
                  "case", "case", 1.5)
    bisect_parser.add_argument("--against", default=None, metavar="PATH",
                               help="expected golden document (default: "
                                    "the committed tests/golden corpus)")
    bisect_parser.add_argument("--lines", type=int, default=20,
                               help="divergent-window event lines to "
                                    "print (default: 20)")

    report_parser = sub.add_parser("report",
                                   help="aggregate results/ into a report")
    report_parser.add_argument("--results-dir", default="results")
    return parser


COMMANDS = {
    "list-cases": cmd_list_cases,
    "run-case": cmd_run_case,
    "table3": cmd_table3,
    "analyze": cmd_analyze,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "profile": cmd_profile,
    "sweep": cmd_sweep,
    "chaos": cmd_chaos,
    "scale": cmd_scale,
    "watch": cmd_watch,
    "why": cmd_why,
    "ckpt": cmd_ckpt,
    "bisect": cmd_bisect,
    "report": cmd_report,
}


def main(argv=None):
    """CLI entry point; returns a process exit code.

    With ``REPRO_SMOKE`` set in the environment, any ``--duration`` is
    clamped to :data:`SMOKE_DURATION_S` so every documented command can
    be executed cheaply by the docs CI job.
    """
    args = build_parser().parse_args(argv)
    if _smoke_mode() and getattr(args, "duration", None) is not None:
        args.duration = min(args.duration, SMOKE_DURATION_S)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
