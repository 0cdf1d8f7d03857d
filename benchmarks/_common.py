"""Shared helpers for the per-figure/table benchmarks.

Every benchmark regenerates one table or figure of the paper: it runs
the relevant scenarios, prints the same rows/series the paper reports,
writes them under ``results/``, and asserts the qualitative shape (who
wins, direction of each baseline, approximate factors).

Absolute latencies are not expected to match the paper -- the substrate
is a virtual-time simulator, not the authors' Xeon testbed -- but the
shapes are (see EXPERIMENTS.md for the side-by-side record).
"""

import gc
import os
import sys
import time

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

#: Simulated duration for full-evaluation benchmarks.  The cases were
#: tuned at their default durations; 6 s keeps the full Figure 11 sweep
#: (16 cases x 7 runs) to a few minutes of wall clock.
EVAL_DURATION_S = 6


def default_jobs():
    """Worker count for benchmark sweeps: ``$REPRO_JOBS`` or the CPU count."""
    return int(os.environ.get("REPRO_JOBS") or os.cpu_count() or 1)


def sweep_evaluations(case_ids, solutions, duration_s=EVAL_DURATION_S,
                      seed=1):
    """Evaluate ``case_ids`` under ``solutions`` via the parallel runner.

    Returns ``{case_id: CaseEvaluation}`` in ``case_ids`` order — the
    class per-case ``repro.cases.evaluate_case`` returns, here over job
    results fanned over :func:`repro.runner.run_sweep`'s worker pool and
    backed by the content-addressed cache, so unchanged figure
    benchmarks are instant replays (``--no-cache`` equivalent: delete
    ``.repro-cache`` or set ``REPRO_CACHE_DIR`` to a fresh directory).
    """
    from repro.runner import run_sweep

    result = run_sweep(case_ids=list(case_ids), solutions=list(solutions),
                       seeds=(seed,), duration_s=duration_s,
                       jobs=default_jobs())
    return result.by_case(seed)


def _timed(fn):
    gc.collect()    # start every run from the same allocator state
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def subscriber_overhead(case_id, duration_s, repeats, make, attach):
    """What one bus subscriber costs a pBox run of ``case_id``.

    ``make()`` builds a fresh subscriber and ``attach(subscriber, env)``
    subscribes it to a run.  Times three variants, interleaved
    ``repeats`` times so clock-speed drift hits each equally, and keeps
    each one's best: *plain* (no subscriber), *attached*, and
    *detached* (built, never attached).  Returns the subscriber of one
    untimed attached run, for the caller's data checks, and the timings:
    the best wall times plus the added time charged against the modeled
    seconds (``*_ratio``, the Figure 16 normalization, unclamped: noise
    can make it negative) and as a raw wall-clock slowdown
    (``*_wall_ratio``).
    """
    from repro.cases import Solution, get_case, run_case

    case = get_case(case_id)

    def plain():
        run_case(case, Solution.PBOX, duration_s=duration_s, seed=1)

    def attached():
        subscriber = make()
        run_case(case, Solution.PBOX, duration_s=duration_s, seed=1,
                 observer=lambda env: attach(subscriber, env))
        return subscriber

    def detached():
        make()
        plain()

    plain()                     # warm caches before timing
    observed = attached()
    best = {}
    for _ in range(repeats):
        for name, fn in (("plain", plain), ("attached", attached),
                         ("detached", detached)):
            elapsed = _timed(fn)
            if name not in best or elapsed < best[name]:
                best[name] = elapsed
    timings = {"%s_s" % name: best[name] for name in best}
    for name in ("attached", "detached"):
        timings["%s_ratio" % name] = (best[name] - best["plain"]) / duration_s
        timings["%s_wall_ratio" % name] = best[name] / best["plain"] - 1.0
    return observed, timings


def write_result(name, lines):
    """Write (and echo) a benchmark's output rows."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    text = "\n".join(lines) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    print()
    print(text)
    return path


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark accounting."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def count_bytecodes(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)``; return ``(bytecodes, result)``.

    Counts every bytecode executed inside ``fn`` and everything it
    calls, under ``sys.settrace`` with ``f_trace_opcodes`` set (as
    ``tools/bytecode_cost.py`` does).  The count repeats exactly for a
    deterministic simulation, so an overhead guard built on it
    resolves a few bytecodes per event where host time on a shared
    2-vCPU host moves by tens of percent between runs of identical
    code.
    """
    count = 0

    def local(_frame, event, _arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def on_call(frame, _event, _arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.settrace(None)
    return count, result
