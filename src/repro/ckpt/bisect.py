"""Golden-digest bisection: localize the first divergent event window.

When a golden digest breaks, the raw failure is two hashes that do not
match over tens of thousands of events.  The rolling checkpoint chain
inside every golden document (one digest per
:data:`~repro.obs.golden.CHECKPOINT_EVERY` events) already localizes
the break to one window; :func:`bisect_case` turns that into an
actionable report by replaying the case once to compare chains and --
when they diverge -- once more with a
:class:`~repro.obs.golden.WindowRecorder` scoped to the first divergent
window, so the output is the actual event lines around the divergence
instead of "reread 10k events".
"""

from repro.obs.golden import (
    CHECKPOINT_EVERY,
    WindowRecorder,
    first_divergence,
    run_golden_case,
)


def bisect_case(case_id, expected_doc, duration_s, seed):
    """Compare a fresh run of ``case_id`` against ``expected_doc``.

    Returns a JSON-safe report.  ``divergent`` False means the run
    still matches the expected document (digest, event count, stats).
    When True, the report carries the 0-based ``window_index`` of the
    first divergent checkpoint window, its event range, and the actual
    event lines of that window from a second replay.
    """
    actual = run_golden_case(case_id, duration_s, seed)
    window = first_divergence(expected_doc, actual)
    if window is None:
        return {
            "case_id": case_id,
            "divergent": False,
            "digest": actual["digest"],
            "events": actual["events"],
        }
    every = expected_doc.get("checkpoint_every", CHECKPOINT_EVERY)
    start_event = window * every
    recorder = WindowRecorder(start_event, every)
    run_golden_case(
        case_id, duration_s, seed,
        observer=lambda env: recorder.attach(env.kernel.trace))
    return {
        "case_id": case_id,
        "divergent": True,
        "window_index": window,
        "start_event": start_event,
        "window_events": every,
        "expected_digest": expected_doc["digest"],
        "actual_digest": actual["digest"],
        "expected_events": expected_doc["events"],
        "actual_events": actual["events"],
        "lines": list(recorder.lines),
    }
