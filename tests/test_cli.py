"""Tests for the command-line interface."""

import argparse
import json
import os

import pytest

from repro.cli import build_parser, main
from repro.obs import MetricsRegistry, validate_chrome_trace

CASES = tuple("c%d" % n for n in range(1, 21))

#: Every subcommand's arguments: (option strings or positional name,
#: dest, default, type, choices, action class, metavar), sorted.  Help
#: wording may change; nothing here may.  ``--jobs`` defaults to the
#: CPU count, recorded as ``"cpu_count"``.
PARSER_SURFACE = {
    "analyze": [
        ("file", "file", None, None, None, "_StoreAction", None),
    ],
    "bisect": [
        ("--against", "against", None, None, None, "_StoreAction", "PATH"),
        ("--duration", "duration", 1.5, "float", None, "_StoreAction", None),
        ("--lines", "lines", 20, "int", None, "_StoreAction", None),
        ("--seed", "seed", 1, "int", None, "_StoreAction", None),
        ("case", "case", None, None, CASES, "_StoreAction", None),
    ],
    "chaos": [
        ("--cache-dir", "cache_dir", None, None, None, "_StoreAction", None),
        ("--duration", "duration", 3, "float", None, "_StoreAction", None),
        ("--faults", "faults", "stall,lost_wakeup,crash",
         None, None, "_StoreAction", None),
        ("--filter", "filter", None, None, None, "_StoreAction", None),
        ("--jobs", "jobs", "cpu_count", "int", None, "_StoreAction", None),
        ("--no-cache", "no_cache", False,
         None, None, "_StoreTrueAction", None),
        ("--out", "out", "results/CHAOS.json",
         None, None, "_StoreAction", None),
        ("--quiet", "quiet", False, None, None, "_StoreTrueAction", None),
        ("--seeds", "seeds", "1,2,3", None, None, "_StoreAction", None),
        ("--timeout", "timeout", None, "float", None, "_StoreAction", None),
    ],
    "ckpt": [
        ("--cadence-ms", "cadence_ms", 250,
         "float", None, "_StoreAction", None),
        ("--dir", "dir", ".repro-ckpt", None, None, "_StoreAction", None),
        ("--duration", "duration", 1.5, "float", None, "_StoreAction", None),
        ("--faults", "faults", None, None, None, "_StoreAction", None),
        ("--kill-at", "kill_at", None, "float", None, "_StoreAction", "S"),
        ("--seed", "seed", 1, "int", None, "_StoreAction", None),
        ("--verify", "verify", False, None, None, "_StoreTrueAction", None),
        ("case", "case", None, None, CASES, "_StoreAction", None),
    ],
    "list-cases": [],
    "metrics": [
        ("--duration", "duration", 6, "float", None, "_StoreAction", None),
        ("--json", "json", None, None, None, "_StoreAction", "PATH"),
        ("--seed", "seed", 1, "int", None, "_StoreAction", None),
        ("case", "case", None, None, CASES, "_StoreAction", None),
    ],
    "profile": [
        ("--blame", "blame", None, None, None, "_StoreAction", "PATH"),
        ("--duration", "duration", 6, "float", None, "_StoreAction", None),
        ("--folded", "folded", None, None, None, "_StoreAction", "PATH"),
        ("--html", "html", None, None, None, "_StoreAction", "PATH"),
        ("--json", "json", None, None, None, "_StoreAction", "PATH"),
        ("--no-slices", "no_slices", False,
         None, None, "_StoreTrueAction", None),
        ("--seed", "seed", 1, "int", None, "_StoreAction", None),
        ("--solution", "solution", "pbox", None,
         ("no_interference", "none", "pbox", "cgroup", "parties", "retro",
          "darc"), "_StoreAction", None),
        ("--top", "top", 20, "int", None, "_StoreAction", None),
        ("case", "case", None, None, CASES, "_StoreAction", None),
    ],
    "report": [
        ("--results-dir", "results_dir", "results",
         None, None, "_StoreAction", None),
    ],
    "run-case": [
        ("--duration", "duration", 6, "float", None, "_StoreAction", None),
        ("--seed", "seed", 1, "int", None, "_StoreAction", None),
        ("--solution", "solution", "pbox", None,
         ("pbox", "cgroup", "parties", "retro", "darc"), "_StoreAction", None),
        ("case", "case", None, None, CASES, "_StoreAction", None),
    ],
    "scale": [
        ("--event-budget", "event_budget", 120000,
         "int", None, "_StoreAction", None),
        ("--out", "out", "results/SCALE.json",
         None, None, "_StoreAction", None),
        ("--sched", "sched", "eevdf",
         None, ("cfs", "eevdf"), "_StoreAction", None),
        ("--seed", "seed", 1, "int", None, "_StoreAction", None),
        ("--telemetry", "telemetry", False,
         None, None, "_StoreTrueAction", None),
        ("--threads", "threads", None, None, None, "_StoreAction", None),
    ],
    "sweep": [
        ("--cache-dir", "cache_dir", None, None, None, "_StoreAction", None),
        ("--duration", "duration", 6, "float", None, "_StoreAction", None),
        ("--filter", "filter", None, None, None, "_StoreAction", None),
        ("--jobs", "jobs", "cpu_count", "int", None, "_StoreAction", None),
        ("--no-cache", "no_cache", False,
         None, None, "_StoreTrueAction", None),
        ("--out", "out", "results/SWEEP.json",
         None, None, "_StoreAction", None),
        ("--quiet", "quiet", False, None, None, "_StoreTrueAction", None),
        ("--seeds", "seeds", "1", None, None, "_StoreAction", None),
        ("--solutions", "solutions", "pbox", None, None, "_StoreAction", None),
    ],
    "table3": [
        ("--duration", "duration", 6, "float", None, "_StoreAction", None),
        ("--seed", "seed", 1, "int", None, "_StoreAction", None),
    ],
    "trace": [
        ("--duration", "duration", 6, "float", None, "_StoreAction", None),
        ("--export", "export", None, None, None, "_StoreAction", "PATH"),
        ("--record-events", "record_events", False,
         None, None, "_StoreTrueAction", None),
        ("--seed", "seed", 1, "int", None, "_StoreAction", None),
        ("case", "case", None, None, CASES, "_StoreAction", None),
    ],
    "watch": [
        ("--duration", "duration", 6, "float", None, "_StoreAction", None),
        ("--event-budget", "event_budget", 120000,
         "int", None, "_StoreAction", None),
        ("--html", "html", None, None, None, "_StoreAction", "PATH"),
        ("--once", "once", False, None, None, "_StoreTrueAction", None),
        ("--seed", "seed", 1, "int", None, "_StoreAction", None),
        ("--threads", "threads", 200, "int", None, "_StoreAction", None),
        ("target", "target", None,
         None, CASES + ("scale",), "_StoreAction", None),
    ],
    "why": [
        ("--duration", "duration", 6, "float", None, "_StoreAction", None),
        ("--event-budget", "event_budget", 120000,
         "int", None, "_StoreAction", None),
        ("--html", "html", None, None, None, "_StoreAction", "PATH"),
        ("--json", "json", "results/WHY.json",
         None, None, "_StoreAction", "PATH"),
        ("--seed", "seed", 1, "int", None, "_StoreAction", None),
        ("--slowest", "slowest", 5, "int", None, "_StoreAction", None),
        ("--tenant", "tenant", None, None, None, "_StoreAction", None),
        ("--threads", "threads", 200, "int", None, "_StoreAction", None),
        ("target", "target", None,
         None, CASES + ("scale",), "_StoreAction", None),
    ],
}


def _surface(parser):
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    surface = {}
    for name, command in sub.choices.items():
        rows = []
        for action in command._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            default = action.default
            if action.dest == "jobs" and default == (os.cpu_count() or 1):
                default = "cpu_count"
            rows.append((
                " ".join(action.option_strings) or action.dest,
                action.dest, default, getattr(action.type, "__name__", None),
                None if action.choices is None else tuple(action.choices),
                type(action).__name__, action.metavar))
        surface[name] = sorted(rows, key=repr)
    return surface


def test_parser_surface_is_pinned():
    assert _surface(build_parser()) == PARSER_SURFACE


#: A line each observe command prints whatever its run collected.
OBSERVE_HEADERS = {
    "trace": "pBox trace report",
    "metrics": "metrics registry",
    "profile": "contention attribution",
    "watch": "final: t=0.50s",
    "why": "per-request critical paths",
}


@pytest.mark.parametrize("command", list(OBSERVE_HEADERS))
def test_observe_command_degrades_gracefully_with_zero_requests(
        command, tmp_path, capsys):
    """A run shorter than the warmup records zero requests; each observe
    command must still print what its subscribers collected instead of
    crashing on the harness's no-victim-samples error."""
    argv = [command, "c5", "--duration", "0.5"]
    if command == "watch":
        argv.append("--once")
    if command == "why":
        argv += ["--json", str(tmp_path / "WHY.json")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "warning:" in out and "no victim samples" in out
    assert OBSERVE_HEADERS[command] in out
    if command == "watch":
        assert "in breach: none" in out


def test_list_cases(capsys):
    assert main(["list-cases"]) == 0
    out = capsys.readouterr().out
    for case_id in ("c1", "c8", "c16"):
        assert case_id in out
    assert "UNDO log" in out


def test_run_case(capsys):
    assert main(["run-case", "c3", "--duration", "3"]) == 0
    out = capsys.readouterr().out
    assert "To (interference-free)" in out
    assert "p =" in out
    assert "r =" in out


def test_run_case_with_baseline_solution(capsys):
    assert main(["run-case", "c3", "--duration", "2",
                 "--solution", "cgroup"]) == 0
    out = capsys.readouterr().out
    assert "Ts (cgroup)" in out


def test_trace_command(capsys):
    assert main(["trace", "c1", "--duration", "3"]) == 0
    out = capsys.readouterr().out
    assert "pBox trace report" in out
    assert "state events" in out


def test_trace_command_exports_chrome_trace(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main(["trace", "c1", "--duration", "3",
                 "--export", str(path)]) == 0
    out = capsys.readouterr().out
    assert "wrote %s" % path in out
    with open(path) as handle:
        trace = json.load(handle)
    summary = validate_chrome_trace(trace)
    assert summary["events"] > 0
    assert summary["by_phase"]["X"] > 0
    assert trace["otherData"]["case"] == "c1"
    # Per-thread tracks and pBox lanes both exist as named processes.
    names = {event["args"]["name"] for event in trace["traceEvents"]
             if event["ph"] == "M" and event["name"] == "process_name"}
    assert names == {"threads", "pBoxes"}


def test_trace_command_record_events(capsys):
    assert main(["trace", "c1", "--duration", "2", "--record-events"]) == 0
    out = capsys.readouterr().out
    assert "pBox trace report" in out


def test_metrics_command(capsys):
    assert main(["metrics", "c1", "--duration", "3"]) == 0
    out = capsys.readouterr().out
    assert "metrics registry" in out
    assert "sched.context_switches" in out
    assert "latency.victim_us" in out
    assert "p50" in out and "p95" in out and "p99" in out


def test_metrics_command_json_feeds_report(tmp_path, capsys):
    path = tmp_path / "obs_metrics.json"
    assert main(["metrics", "c1", "--duration", "2",
                 "--json", str(path)]) == 0
    registry = MetricsRegistry.load_json(str(path))
    assert registry.counters["sched.context_switches"].value > 0
    assert registry.histograms["latency.victim_us"].count > 0
    # report.py consumes the same snapshot.
    assert main(["report", "--results-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "REPORT.md") as handle:
        report = handle.read()
    assert "unified metrics registry" in report
    assert "latency.victim_us" in report


def test_profile_command(capsys):
    assert main(["profile", "c17", "--duration", "2"]) == 0
    out = capsys.readouterr().out
    assert "contention attribution" in out
    assert "blame matrix" in out
    assert "buf_pool.free_blocks" in out
    assert "folded stacks" in out


def test_profile_command_writes_all_outputs(tmp_path, capsys):
    folded = tmp_path / "out.folded"
    speedscope = tmp_path / "out.speedscope.json"
    html = tmp_path / "out.html"
    blame = tmp_path / "blame.json"
    assert main(["profile", "c17", "--duration", "2",
                 "--folded", str(folded), "--json", str(speedscope),
                 "--html", str(html), "--blame", str(blame)]) == 0
    out = capsys.readouterr().out
    for path in (folded, speedscope, html, blame):
        assert "wrote %s" % path in out
    # Folded: "frame;frame weight" lines.
    for line in folded.read_text().splitlines():
        stack, weight = line.rsplit(" ", 1)
        assert ";" in stack and int(weight) > 0
    # Speedscope: valid sampled profile.
    with open(speedscope) as handle:
        doc = json.load(handle)
    assert doc["profiles"][0]["type"] == "sampled"
    # HTML: self-contained summary including attribution.
    page = html.read_text()
    assert page.startswith("<!DOCTYPE html>")
    assert "Contention attribution" in page
    # Blame snapshot: the profiler's to_dict schema.
    with open(blame) as handle:
        snapshot = json.load(handle)
    assert snapshot["cells"]
    assert snapshot["stats"]["events"] > 0


def test_profile_command_vanilla_solution(capsys):
    assert main(["profile", "c17", "--duration", "2",
                 "--solution", "none", "--no-slices"]) == 0
    out = capsys.readouterr().out
    assert "contention attribution" in out


def test_analyze_command(tmp_path, capsys):
    source = tmp_path / "demo.c"
    source.write_text("""
        int shared_counter;
        void producer(int n) { shared_counter = shared_counter + n; }
        void consumer(int n) {
            while (shared_counter < n) {
                usleep(10);
            }
        }
    """)
    assert main(["analyze", str(source)]) == 0
    out = capsys.readouterr().out
    assert "consumer" in out
    assert "shared_counter" in out


def test_analyze_command_no_findings(tmp_path, capsys):
    source = tmp_path / "clean.c"
    source.write_text("void f(int x) { work(x); }")
    assert main(["analyze", str(source)]) == 1
    assert "no candidate" in capsys.readouterr().out


def test_parser_rejects_unknown_case():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run-case", "c99"])


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_report_command(tmp_path, capsys):
    (tmp_path / "tab05_analyzer.txt").write_text("a\tb\n1\t2\n")
    assert main(["report", "--results-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "REPORT.md" in out


def test_analyze_command_python_file(tmp_path, capsys):
    source = tmp_path / "service.py"
    source.write_text(
        "import time\n"
        "pending = 0\n"
        "def add(n):\n"
        "    global pending\n"
        "    pending = pending + n\n"
        "def drain(n):\n"
        "    while pending > n:\n"
        "        time.sleep(0.01)\n"
    )
    assert main(["analyze", str(source)]) == 0
    out = capsys.readouterr().out
    assert "drain" in out
    assert "pending" in out
