#!/usr/bin/env python3
"""Bytecodes per kernel event on one short scale point, by function.

Host time on a shared 2-vCPU host moves by +-25% between runs, so a
small kernel change is hard to size with a stopwatch.  This counts
instead: it runs one scale point under ``sys.settrace`` with
``f_trace_opcodes`` set on every frame and counts the bytecodes each
function executes inside ``kernel.run``.  The count repeats exactly on
one interpreter version, so a parent/change pair of counts shows what a
change removed from the hot path with no noise at all.

It misses what happens inside C calls (heap pushes, big-int bit scans,
tuple comparisons), so a saving there is larger in host time than in
bytecodes.  Use it next to ``bench/run.py``, not in place of it::

    python3 tools/bytecode_cost.py                  # 10k threads, cfs, 3 ms
    python3 tools/bytecode_cost.py --sched eevdf --threads 1000 \\
        --duration-us 20000

Prints the total and the top ``--top`` functions, each as bytecodes per
kernel event (timer arms during the run, the unit of ``events_per_sec``
in ``bench/run.py``).  docs/PERFORMANCE.md ("The context switch path")
holds the table for both points.  The default point takes ~1 min.
"""

import argparse
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.scale.scenario import (  # noqa: E402
    EXTENDED_APP_KINDS,
    ScaleSpec,
    build_scale_scenario,
)


def _timer_arms(kernel):
    # repr(itertools.count(n)) is "count(n)"; next() would consume a
    # sequence number and shift every later tie-break.
    return int(repr(kernel._seq)[6:-1])


def count_bytecodes(threads=10_000, sched="cfs", duration_us=3_000, seed=1):
    """Run one point traced; returns ``(events, {function: bytecodes})``."""
    spec = ScaleSpec(threads, sched=sched, families=EXTENDED_APP_KINDS,
                     duration_us=duration_us, seed=seed)
    scenario = build_scale_scenario(spec)
    kernel = scenario.kernel
    counts = Counter()

    def local(frame, event, _arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def on_call(frame, _event, _arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    before = _timer_arms(kernel)
    sys.settrace(on_call)
    try:
        kernel.run(until_us=spec.duration_us)
    finally:
        sys.settrace(None)
    by_function = Counter()
    for code, n in counts.items():
        by_function[_label(code)] += n
    return _timer_arms(kernel) - before, by_function


def _label(code):
    path = code.co_filename.replace(os.sep, "/")
    marker = "/repro/"
    where = path.rsplit(marker, 1)[-1] if marker in path else \
        os.path.basename(path)
    return "%s:%s" % (where, getattr(code, "co_qualname", code.co_name))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Count bytecodes per kernel event on one scale point.")
    parser.add_argument("--threads", type=int, default=10_000)
    parser.add_argument("--sched", choices=("cfs", "eevdf"), default="cfs")
    parser.add_argument("--duration-us", type=int, default=3_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=15,
                        help="functions to list (default 15)")
    args = parser.parse_args(argv)
    events, by_function = count_bytecodes(args.threads, args.sched,
                                          args.duration_us, args.seed)
    total = sum(by_function.values())
    print("%d threads, %s, %d us, seed %d: %d events, Python %s"
          % (args.threads, args.sched, args.duration_us, args.seed, events,
             sys.version.split()[0]))
    print("%9.1f  bytecodes per event, total" % (total / events))
    for label, n in by_function.most_common(args.top):
        print("%9.1f  %s" % (n / events, label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
