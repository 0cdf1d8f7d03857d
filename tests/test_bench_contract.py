"""The repo benchmark still runs against this tree.

``bench/`` drives the simulator from outside.  ``bench/layers.py``
imports ``repro.core.shards.ShardedPBoxManager`` (a method-less
placeholder kept for that import), wraps the manager's, the runtime's
and ``Tracepoint.fire``'s entry points and each subscriber's ``attach``
from their class dicts, and rewrites every ``Tracepoint._subs`` list in
place.  A change under ``src/`` that deletes or reshapes one of these
breaks the benchmark, and no unit test would notice.  These run smoke
rounds the way ``bench/run.py`` does, each in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _smoke_round(workload, *args):
    """One smoke round of ``workload``; returns its record."""
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "workloads.py"),
         "--workload", workload, "--smoke"] + list(args),
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    failed = [check for check in record["checks"] if not check[1]]
    assert record["checks"] and not failed, failed
    return record


def test_traced_golden_round_times_the_digest():
    """The layer table sees the bus and the digest ``attach`` subscribed.

    An ``attach`` that bypasses ``Tracepoint._subs`` would leave the
    digest's row at zero calls.
    """
    layers = _smoke_round("golden-corpus", "--traced")["layers"]
    assert layers["obs.sub.TraceDigest.calls"] > 0
    assert layers["obs.tracepoints.calls"] > 0


def test_scale_eevdf_round_passes():
    _smoke_round("scale-eevdf")


def test_traced_scale_round_times_the_manager():
    """The layer table sees the scale harness's runtime and manager.

    A scale scenario whose manager the class-level wrappers cannot see
    would leave both rows at zero calls.
    """
    layers = _smoke_round("scale-eevdf", "--traced")["layers"]
    assert layers["core.runtime.calls"] > 0
    assert layers["core.manager.detect.calls"] > 0
