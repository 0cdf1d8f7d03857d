"""Run the repo benchmark: end-to-end host time plus a per-layer trace.

    python bench/run.py [--workload NAME]... [--rounds 5] [--seconds S]
                        [--seed 1] [--trace 0|1] [--smoke] [--out FILE]

Each round runs one workload in a fresh interpreter (``workloads.py``),
one round at a time.  The end-to-end metrics are medians over the
untraced rounds; with ``--trace 1`` (the default) one more, traced
round times every layer from outside (``layers.py``).  The command
prints every metric with its unit, the share of failed checks and one
PASS/FAIL line per correctness check, and, when it ran a single
workload, ends with one JSON line::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

holding the end-to-end metrics under ``--trace 0`` and the per-layer
metrics under ``--trace 1``.  That single-workload form, with
``--seconds`` in place of ``--rounds``, is how the ``command`` in
BENCHMARK.json is called: ``--workload W --seed N --seconds S --trace
0|1``.  It exits non-zero when a check failed or when ``src/`` is
missing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics: name -> (unit, better).  Their regression bounds
#: live in BENCHMARK.json.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "events_per_sec": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: A round still running after this long is killed and counts as crashed.
ROUND_TIMEOUT_S = 170

#: Set-up times per workload the median of ``setup_s`` is taken over,
#: at least.
SETUP_SAMPLES = 5

#: Round fields kept in the ``--out`` document.
ROUND_FIELDS = ("wall_s", "host_wall_s", "events", "events_per_sec",
                "setup_s", "host_setup_s", "peak_rss_mb", "fingerprint")


def run_round(workload, seed, smoke, traced, setup_only=False):
    """Run one round in a fresh interpreter; returns its record.

    ``host_wall_s`` and ``host_setup_s`` are host time as measured.  An
    untraced round's ``wall_s`` and ``setup_s`` scale them to the
    reference speed: ``wall_s`` slice by slice (``workloads.Timing``),
    ``setup_s`` by ``REFERENCE_LOOP_S`` over the mean of two median
    ``reference_loop`` times, one taken here just before the launch and
    one where the set-up ended.  A traced round's ``wall_s`` is host
    time.  A round that fails, times out or prints no record returns
    ``{"crashed": reason}``.  A set-up-only round's record holds only
    the set-up times.
    """
    from workloads import REFERENCE_LOOP_S, START_LOOPS, reference_loop

    command = [sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
               "--workload", workload, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    if traced:
        command.append("--traced")
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, env.get("PYTHONPATH")) if path)
    if not traced:
        before_loop_s = statistics.median(
            reference_loop() for _ in range(START_LOOPS))
    launched = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": "timed out after %d s" % ROUND_TIMEOUT_S}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        errors = proc.stderr.strip().splitlines()
        return {"crashed": errors[-1] if errors
                else "exit status %d" % proc.returncode}
    try:
        record = json.loads(lines[-1])
    except ValueError:
        return {"crashed": "unreadable record: %.80s" % lines[-1]}
    # CLOCK_MONOTONIC is system-wide, so the child's timestamp and ours
    # share an origin.
    record["setup_s"] = record.pop("start") - launched
    if "start_loop_s" in record:
        record["host_setup_s"] = record["setup_s"]
        record["setup_s"] *= REFERENCE_LOOP_S / (
            (before_loop_s + record.pop("start_loop_s")) / 2)
    if not setup_only:
        record["events_per_sec"] = record["events"] / record["wall_s"]
    return record


def summarize(values):
    """Median and quartiles, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def collect_checks(records):
    """``(name, passed, detail)`` for every check of every round.

    Each round also checks that its simulated-stats fingerprint equals
    the first good round's.  A crashed round fails every check a good
    round made.
    """
    good = [record for record in records if "crashed" not in record]
    names = [check[0] for check in good[0]["checks"]] if good else []
    reference = good[0]["fingerprint"] if good else None
    checks = []
    for record in records:
        if "crashed" in record:
            reason = "crashed: " + record["crashed"]
            checks.extend((name, False, reason)
                          for name in names + ["fingerprint"])
            continue
        checks.extend(tuple(check) for check in record["checks"])
        same = record["fingerprint"] == reference
        checks.append(("fingerprint", same,
                       "" if same else "differs from the first round"))
    return checks


def measure_workload(workload, args):
    """Untraced rounds, then the traced one; returns the workload result.

    Where the rounds leave fewer than ``SETUP_SAMPLES`` set-up times,
    set-up-only rounds add the rest.
    """
    from layers import overhead_frac

    rounds = []
    began = time.monotonic()
    while True:
        rounds.append(run_round(workload, args.seed, args.smoke, False))
        if args.seconds is None:
            if len(rounds) >= args.rounds:
                break
        else:
            # Start another round only if it should end in time.
            elapsed = time.monotonic() - began
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
    good = [record for record in rounds if "crashed" not in record]
    samples = {}
    if good:
        samples = {name: [record[name] for record in good]
                   for name in END_TO_END}
        while len(samples["setup_s"]) < SETUP_SAMPLES:
            record = run_round(workload, args.seed, args.smoke, False,
                               setup_only=True)
            if "crashed" in record:
                rounds.append(record)
                break
            samples["setup_s"].append(record["setup_s"])
    traced = (run_round(workload, args.seed, args.smoke, True)
              if args.trace else None)
    summary = {name: summarize(values) for name, values in samples.items()}
    layers = None
    if traced is not None and "crashed" not in traced and good:
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = overhead_frac(
            traced["wall_s"],
            statistics.median(record["host_wall_s"] for record in good))
    checks = collect_checks(rounds + ([traced] if traced else []))
    return {"rounds": rounds, "traced": traced, "samples": samples,
            "summary": summary, "layers": layers, "checks": checks}


def failed_frac(checks):
    """Failed checks over checks attempted."""
    return sum(1 for check in checks if not check[1]) / len(checks)


def print_workload(workload, result):
    from layers import PER_LAYER

    rounds = result["rounds"]
    print("== %s: %d rounds%s ==" % (workload, len(rounds),
                                     " + traced" if result["traced"] else ""))
    for name, (unit, _better) in END_TO_END.items():
        stats = result["summary"].get(name)
        if stats:
            print("  %-16s %14.6g %-4s q1 %.6g  q3 %.6g  n=%d"
                  % (name, stats["median"], unit, stats["q1"], stats["q3"],
                     stats["n"]))
    host = [record["host_wall_s"] for record in rounds
            if "host_wall_s" in record]
    if host:
        print("  %-16s %14.6g %-4s median host time, before scaling"
              % ("host_wall_s", statistics.median(host), "s"))
    checks = result["checks"]
    print("  %-16s %14.6g %-4s %d of %d checks failed"
          % ("failed_frac", failed_frac(checks), "frac",
             sum(1 for check in checks if not check[1]), len(checks)))
    outcomes = {}
    for name, passed, detail in result["checks"]:
        entry = outcomes.setdefault(name, [0, 0, ""])
        entry[0] += passed
        entry[1] += 1
        if not passed and not entry[2]:
            entry[2] = detail
    for name, (passed, total, detail) in outcomes.items():
        print("  %s  %-20s %d/%d %s" % ("PASS" if passed == total else "FAIL",
                                        name, passed, total, detail))
    labelled = [("round %d" % (index + 1), record)
                for index, record in enumerate(rounds)]
    labelled.append(("traced round", result["traced"] or {}))
    for label, record in labelled:
        if "crashed" in record:
            print("  %s crashed: %s" % (label, record["crashed"]))
    if result["layers"]:
        print("  per-layer (traced round, wall %.4f s, %d ns per span taken "
              "out of its caller):" % (result["traced"]["wall_s"],
                                      result["traced"]["wrapper_ns"]))
        for name, (unit, _better) in PER_LAYER.items():
            print("    %-40s %14.6g %s" % (name, result["layers"][name], unit))


def git_commit():
    """The checkout's commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def document(results, args):
    """The ``--out`` JSON document of one benchmark run."""
    workloads = {}
    for workload, result in results.items():
        checks = result["checks"]
        failures = sorted({"%s: %s" % (name, detail)
                           for name, passed, detail in checks if not passed})
        workloads[workload] = {
            "rounds": [record if "crashed" in record else
                       {field: record[field] for field in ROUND_FIELDS}
                       for record in result["rounds"]],
            "samples": result["samples"],
            "summary": result["summary"],
            "traced_wall_s": (result["traced"] or {}).get("wall_s"),
            "wrapper_ns": (result["traced"] or {}).get("wrapper_ns"),
            "layers": result["layers"],
            "checks": {"attempted": len(checks),
                       "failed": sum(1 for check in checks if not check[1]),
                       "failed_frac": failed_frac(checks),
                       "failures": failures},
        }
    return {
        "meta": {
            "commit": git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "seed": args.seed,
            "smoke": args.smoke,
            "rounds": args.rounds if args.seconds is None else None,
            "seconds": args.seconds,
        },
        "workloads": workloads,
    }


def result_line(result, trace):
    """The closing JSON line of a single-workload run, or None."""
    from layers import PER_LAYER

    metrics = {}
    if trace:
        if not result["layers"]:
            return None
        for name, (unit, _better) in PER_LAYER.items():
            metrics[name] = {"value": result["layers"][name], "unit": unit}
    else:
        if not result["summary"]:
            return None
        for name, (unit, _better) in END_TO_END.items():
            metrics[name] = {"value": result["summary"][name]["median"],
                             "unit": unit}
    failed = sum(1 for check in result["checks"] if not check[1])
    return {"correct": failed == 0, "attempted": len(result["checks"]),
            "failed": failed, "metrics": metrics}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="untraced rounds per workload (default 5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="instead of --rounds, start rounds while they "
                             "should end within this many seconds")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1, the corpus seed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="add the traced round (default 1)")
    parser.add_argument("--smoke", action="store_true",
                        help="each workload 5-20x smaller")
    parser.add_argument("--out", help="write the run as a JSON document")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    return args


def main(argv=None):
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("bench: no repro package under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))
    results = {}
    for workload in args.workload or list(WORKLOADS):
        results[workload] = measure_workload(workload, args)
        print_workload(workload, results[workload])
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document(results, args), handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out)
    failed = sum(1 for result in results.values()
                 for check in result["checks"] if not check[1])
    if len(results) == 1:
        line = result_line(next(iter(results.values())), args.trace)
        if line is None:
            sys.stderr.write("bench: no measurement survived\n")
            return 1
        print(json.dumps(line, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
