"""Compare two benchmark runs, metric by metric, against their bounds.

    python bench/compare.py PARENT.json CHANGE.json
    python bench/compare.py bench/results/seed.json

Each file is a ``run.py --out`` document, or ``{"sets": [doc, ...]}``;
the files together must hold exactly two runs, the parent first.  One
row per (workload, end-to-end metric) gives each side's median and
quartiles over its rounds and a verdict against the metric's bound in
BENCHMARK.json:

- ``unresolved``: the parent's interquartile spread exceeds the bound,
  unless there are ``MIN_PAIRS`` round pairs and every change round
  beats every parent round (``better``);
- ``worse``: the change's median is worse by more than the bound;
- ``better``: over at least ``MIN_PAIRS`` round pairs, the change wins
  at least nine in ten and its median beats the parent's by more than
  the parent's spread;
- ``same``: otherwise.

Two runs made one after the other can differ by more than either's
spread, because the host drifts: two sets of five rounds of the same
code, run back to back, read 4.5% apart on ``scale-cfs`` with spreads
under 2%.  Hence the floor on pairs, and for a claim, runs of parent
and change that take turns.

A last row per workload compares ``failed_frac``, failed checks over
checks attempted; any increase is ``worse``.  Exits 1 when a verdict
is ``worse``.
"""

import json
import os
import sys

from run import END_TO_END, summarize

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")

#: Round pairs a ``better`` verdict needs.
MIN_PAIRS = 10


def verdict(parent, change, bound, better):
    """Verdict for one metric from the two sides' per-round values."""
    sign = 1.0 if better == "lower" else -1.0
    base = summarize(parent)
    median = base["median"]
    spread = base["q3"] - base["q1"]
    pairs = list(zip(parent, change))
    enough = len(pairs) >= MIN_PAIRS
    if spread > bound * abs(median):
        beats_all = all(sign * new < sign * old
                        for new in change for old in parent)
        return "better" if enough and beats_all else "unresolved"
    gain = sign * (median - summarize(change)["median"])
    if -gain > bound * abs(median):
        return "worse"
    wins = sum(1 for old, new in pairs if sign * new < sign * old)
    if enough and gain > spread and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as handle:
            doc = json.load(handle)
        runs.extend(doc["sets"] if "sets" in doc else [doc])
    if len(runs) != 2:
        raise SystemExit("compare: need exactly two runs, found %d"
                         % len(runs))
    return runs


def _side(stats):
    return "%.5g [%.5g, %.5g]" % (stats["median"], stats["q1"], stats["q3"])


def compare(parent, change, bounds):
    """``(workload, metric, parent, change, verdict)`` rows."""
    rows = []
    for workload, old in parent["workloads"].items():
        new = change["workloads"].get(workload)
        if new is None:
            continue
        for metric in END_TO_END:
            before = old["samples"].get(metric)
            after = new["samples"].get(metric)
            if not before or not after:
                rows.append((workload, metric, "-", "-", "unresolved"))
                continue
            bound, better = bounds[metric]
            rows.append((workload, metric, _side(summarize(before)),
                         _side(summarize(after)),
                         verdict(before, after, bound, better)))
        was, now = old["checks"], new["checks"]
        rows.append((workload, "failed_frac",
                     "%d/%d" % (was["failed"], was["attempted"]),
                     "%d/%d" % (now["failed"], now["attempted"]),
                     "worse" if now["failed_frac"] > was["failed_frac"]
                     else "same"))
    return rows


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if not 1 <= len(paths) <= 2:
        raise SystemExit(__doc__)
    parent, change = load_runs(paths)
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: (metric["bound"], metric["better"])
              for metric in spec["end_to_end"]}
    rows = compare(parent, change, bounds)
    print("%-14s %-15s %-32s %-32s %s"
          % ("workload", "metric", "parent median [q1, q3]",
             "change median [q1, q3]", "verdict"))
    for row in rows:
        print("%-14s %-15s %-32s %-32s %s" % row)
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
