"""Every bus subscriber's output, pinned by digest on two case runs.

The golden corpus pins the tracepoint stream; these pin what the
subscribers make of it.  c5 (2 s) and c18 (1.5 s, event-driven pools,
FaaS and ``req.serve``) run under pBox with all seven subscribers
attached in the order ``bench/workloads.py`` attaches them, and each
output is hashed over canonical JSON: keys in insertion order (the
registry's creation order is part of what is pinned), no memory
addresses.  A fire-time handler that drops, reorders or relabels a
single record moves its subscriber's digest.  Under pBox neither run
breaches its SLO, so the explainer's digest pins an empty list.

The digests are literals.  Changing a subscriber's output on purpose
means updating its digest here and saying why in the change log.
"""

import functools
import hashlib
import json

import pytest

from repro.cases import Solution, get_case, run_case
from repro.cli import _case_evaluator
from repro.core.trace import PBoxTracer
from repro.obs import (
    AttributionProfiler,
    BreachExplainer,
    CritPathTracer,
    MetricsCollector,
    MetricsRegistry,
    SpanRecorder,
    TelemetryPipeline,
    chrome_trace,
)
from repro.sim.thread import reset_thread_ids

#: case -> virtual seconds run.
RUNS = {"c5": 2.0, "c18": 1.5}

#: (case, output) -> SHA-256 of the output's canonical JSON.
DIGESTS = {
    ("c5", "spans"):
        "f9d92cbc2efbe5503ee6657162069af11787c642fbd5f6e69838672628e752c8",
    ("c5", "metrics"):
        "996f0c021e834c4e61d8188c4b39abeb0bf96b50b99cdae1295339ad3b6ef599",
    ("c5", "tracer"):
        "1c36a1de4a292b8b15449a6cc54f7a7c2f08f96d48b36343f191d71b5ed95373",
    ("c5", "attribution"):
        "8a4fda525f796594dcda5cd0adb551f145b077238ef37350844ce8084a116eb9",
    ("c5", "critpath"):
        "4d4d2be92c24ff2c67827c77c299e67de300fcc963b783b95db66a92185eafa8",
    ("c5", "telemetry"):
        "14f2c5ce379d201907547c5b404cedc3e451f15939d049e2ce62c2def27aa09f",
    ("c5", "explainer"):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ("c18", "spans"):
        "8660626631f963e7c518f1b90a68b5f6bd09327c0a4a52e4dde426eb4b0f7032",
    ("c18", "metrics"):
        "aefd9badd77b6736fc5a3f9463d749831f5ba97ee63f35c5e18eadcaed215e0b",
    ("c18", "tracer"):
        "713ca6d01cc3538d9a005fbb940d9b868ecd6d2fa413123d928d01caaee6845a",
    ("c18", "attribution"):
        "3429b0a2eb592611a5196f1de5e2f36eb89f8ae1de0d226e8d8ca56d8fa5f945",
    ("c18", "critpath"):
        "614489aa3c8168c281cb9fd486837381ff9dcfcad330cf991bde8f2f3209e357",
    ("c18", "telemetry"):
        "e7ac051bfedd8aa4d0375192bca59fab6327b940719d2f441773a0e2e1d6ce78",
    ("c18", "explainer"):
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
}


def _canonical(value):
    """Reject anything JSON cannot render itself (no repr fallback)."""
    raise TypeError("unrenderable %s in a subscriber output"
                    % type(value).__name__)


@functools.lru_cache(maxsize=None)
def observed_digests(case_id):
    """Run ``case_id`` with every subscriber; returns name -> SHA-256."""
    reset_thread_ids()
    case = get_case(case_id)
    subs = {}

    def observer(env):
        bus = env.kernel.trace
        env.metrics = subs["registry"] = MetricsRegistry()
        env.telemetry = subs["telemetry"] = TelemetryPipeline(
            evaluator=_case_evaluator(case))
        env.telemetry.attach(bus, manager=env.runtime.manager)
        subs["critpath"] = CritPathTracer().attach(bus)
        subs["explainer"] = BreachExplainer(subs["critpath"]).attach(bus)
        subs["attribution"] = AttributionProfiler().attach(bus)
        subs["spans"] = SpanRecorder().attach(bus)
        subs["tracer"] = PBoxTracer().attach(bus)
        MetricsCollector(env.metrics).attach(bus)

    run_case(case, Solution.PBOX, seed=1, duration_s=RUNS[case_id],
             observer=observer)
    outputs = {
        "spans": chrome_trace(subs["spans"], case_id=case_id),
        "metrics": subs["registry"].to_dict(),
        "tracer": [subs["tracer"].summary(),
                   subs["tracer"].format_report()],
        "attribution": subs["attribution"].to_dict(),
        "critpath": subs["critpath"].to_json_dict(),
        "telemetry": subs["telemetry"].to_json_dict(),
        "explainer": subs["explainer"].explanations,
    }
    return {name: hashlib.sha256(json.dumps(
        output, separators=(",", ":"), default=_canonical).encode()).hexdigest()
            for name, output in outputs.items()}


@pytest.mark.parametrize("case_id", sorted(RUNS))
@pytest.mark.parametrize("output", ["spans", "metrics", "tracer",
                                    "attribution", "critpath", "telemetry",
                                    "explainer"])
def test_subscriber_output_digest(case_id, output):
    assert observed_digests(case_id)[output] == DIGESTS[(case_id, output)], (
        "%s output of %s moved" % (output, case_id))
