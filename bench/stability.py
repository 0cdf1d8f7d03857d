"""Spread of every end-to-end metric over runs at distinct seeds.

    python bench/stability.py --out FILE

One run is the call ``command`` in BENCHMARK.json gets:
``--workload W --seed S --seconds <run_seconds> --trace 0``, from the
repo root.  A pass runs each of ``SEEDS`` once per workload, one run
at a time, and there are ``PASSES`` passes.  For each (workload,
metric) and pass it records the runs' values, their median and their
spread, the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median, and for
later passes the move of the median against the first pass.
``run_s`` holds how long each run took.  ``ok`` says whether every
spread but set-up time's and every move stayed within the metric's
bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import git_commit

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: Seeds of one pass, none of them the default or the held-back one.
SEEDS = tuple(range(101, 111))
PASSES = 2


def run_once(spec, workload, seed):
    """One benchmark run; returns its result line."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("stability: %s seed %d failed: %s"
                         % (workload, seed, proc.stderr.strip()[-400:]))
    return json.loads(lines[-1])


def spread(values):
    """Median and interquartile distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    passes, ok = [], True
    for index in range(PASSES):
        table = {}
        for workload in [entry["name"] for entry in spec["workloads"]]:
            values = {name: [] for name in bounds}
            run_s = []
            for seed in SEEDS:
                began = time.monotonic()
                line = run_once(spec, workload, seed)
                run_s.append(time.monotonic() - began)
                if not line["correct"]:
                    raise SystemExit("stability: %s seed %d: %d of %d checks "
                                     "failed" % (workload, seed,
                                                 line["failed"],
                                                 line["attempted"]))
                for name in bounds:
                    values[name].append(line["metrics"][name]["value"])
            table[workload] = {"metrics": {}, "run_s": run_s}
            for name, bound in bounds.items():
                median, iqr = spread(values[name])
                row = {"values": values[name], "median": median,
                       "spread": iqr, "bound": bound}
                if name != "setup_s":
                    ok = ok and iqr <= bound
                if passes:
                    first = passes[0][workload]["metrics"][name]["median"]
                    row["move"] = median / first - 1.0
                    ok = ok and abs(row["move"]) <= bound
                table[workload]["metrics"][name] = row
                print("pass %d %-14s %-15s median %-12.6g spread %.4f%s"
                      % (index + 1, workload, name, median, iqr,
                         "  move %+.4f" % row["move"] if "move" in row
                         else ""), flush=True)
        passes.append(table)
    doc = {"meta": {"commit": git_commit(),
                    "python": platform.python_version(),
                    "nproc": os.cpu_count(), "seeds": list(SEEDS),
                    "run_seconds": spec["run_seconds"]},
           "ok": ok, "passes": passes}
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
