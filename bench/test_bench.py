"""Self-test of the benchmark.

    PYTHONPATH=src python -m pytest bench/
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
import layers
import run
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]})


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py")]
                          + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = _bench("--smoke", "--rounds", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as handle:
        return json.load(handle)


def test_traced_round_keeps_the_fingerprint():
    plain = run.run_round("scale-cfs", 1, smoke=True, traced=False)
    traced = run.run_round("scale-cfs", 1, smoke=True, traced=True)
    assert "crashed" not in plain and "crashed" not in traced
    assert traced["fingerprint"] == plain["fingerprint"]
    assert traced["layers"]["sim.kernel.run.calls"] == 1
    assert traced["wrapper_ns"] > 0
    shares = sum(value for name, value in traced["layers"].items()
                 if name.endswith(".share"))
    assert shares == pytest.approx(1.0, abs=0.01)


def test_every_metric_is_declared(smoke_doc):
    end_to_end, per_layer = _declared()
    assert end_to_end == run.END_TO_END
    assert per_layer == layers.PER_LAYER
    for name in list(end_to_end) + list(per_layer):
        assert NAME.fullmatch(name), name
    assert set(smoke_doc["workloads"]) == set(workloads.WORKLOADS)
    for result in smoke_doc["workloads"].values():
        assert set(result["summary"]) == set(end_to_end)
        assert len(result["samples"]["setup_s"]) >= run.SETUP_SAMPLES
        assert set(result["layers"]) == set(per_layer)
        assert result["checks"]["failed"] == 0, result["checks"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = _bench("--workload", "observed-c5", "--smoke", "--seed", "2",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = _declared()[int(trace)]
    assert {name: (metric["unit"],) for name, metric in line["metrics"].items()} \
        == {name: (unit,) for name, (unit, _better) in expected.items()}


def test_corrupted_golden_digest_fails_a_check(tmp_path):
    for case_id, doc in workloads.golden_cases(workloads.GOLDEN_DIR,
                                               smoke=True)[:2]:
        with open(tmp_path / ("%s.json" % case_id), "w") as handle:
            json.dump(doc, handle)

    def failed(seed=1):
        _fingerprint, checks = workloads.golden_corpus(
            seed, True, workloads.Timing(), golden_dir=str(tmp_path))
        return [name for name, passed, _detail in checks if not passed]

    assert failed() == []
    with open(tmp_path / "c1.json") as handle:
        doc = json.load(handle)
    doc["digest"] = "0" * 64
    with open(tmp_path / "c1.json", "w") as handle:
        json.dump(doc, handle)
    assert failed() == ["c1.digest"]
    # Off the corpus seed the committed digests are not the reference.
    assert failed(seed=2) == []


def test_golden_corpus_follows_the_seed(tmp_path):
    for name in ("c1.json", "c20.json"):
        shutil.copy(os.path.join(workloads.GOLDEN_DIR, name), tmp_path)

    def replay(seed):
        return workloads.golden_corpus(seed, False, workloads.Timing(),
                                       golden_dir=str(tmp_path))

    corpus, corpus_checks = replay(1)
    other, other_checks = replay(2)
    assert [name for name, _passed, _detail in corpus_checks] \
        == ["c1.digest", "c20.digest"]
    assert other_checks == [("c20.digest", True, "")]
    assert other["c1"]["digest"] != corpus["c1"]["digest"]
    assert other["c20"] == corpus["c20"]


def test_derived_differences_are_not_clamped():
    assert layers.overhead_frac(0.9, 1.0) == pytest.approx(-0.1)
    counters = {"events": 1, "context_switches": 10, "scans": 0,
                "scanned": 0, "detections": 0}
    counts = layers.derived_counts({"RunQueue.pick_for_core": 12}, {},
                                   counters)
    assert counts["sim.scheduler.fast_path_frac"] == pytest.approx(-0.2)
    clamp = re.compile(r"max\(\s*0(\.0*)?\s*,")
    for name in os.listdir(BENCH_DIR):
        if name.endswith(".py"):
            with open(os.path.join(BENCH_DIR, name)) as handle:
                assert not clamp.search(handle.read()), name


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02] * 2
    assert compare.verdict(parent, parent, 0.1, "lower") == "same"
    assert compare.verdict(parent, [v * 1.2 for v in parent], 0.1,
                           "lower") == "worse"
    assert compare.verdict(parent, [v * 0.8 for v in parent], 0.1,
                           "lower") == "better"
    assert compare.verdict(parent, [v * 0.8 for v in parent], 0.1,
                           "higher") == "worse"
    # Fewer pairs than MIN_PAIRS never read better.
    assert compare.verdict(parent[:5], [v * 0.8 for v in parent[:5]], 0.1,
                           "lower") == "same"
    noisy = [1.0, 1.5, 0.7, 1.2, 0.9] * 2
    assert compare.verdict(noisy, noisy, 0.1, "lower") == "unresolved"
    assert compare.verdict(noisy, [v * 0.3 for v in noisy], 0.1,
                           "lower") == "better"


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "scale-cfs", "--seconds", "1", "--trace",
                  "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
