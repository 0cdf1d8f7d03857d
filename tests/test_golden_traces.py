"""Golden-trace replay: every registry case must be bit-identical.

Each committed document under ``tests/golden/`` pins the SHA-256 of a
case's canonical tracepoint stream plus its final kernel/manager stats
at the corpus parameters (solution=pbox, seed, duration).  A kernel or
app-model change that moves *any* scheduling decision flips a digest
and fails here; the failure message includes a unified diff of the
golden documents and -- via the checkpoint chain -- the actual event
lines of the first divergent window, so the divergence is debuggable
without bisecting millions of events.

Intentional behavior changes are blessed with ``make regen-golden``
(review the corpus diff before committing it).

The digest renders each event with a renderer compiled for its shape;
a differential property test holds those renderers, and the digest and
window recorder built on them, to the reference ``event_line``.
"""

import difflib
import enum
import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cases import ALL_CASES
from repro.core.events import StateEvent
from repro.obs.golden import (
    CHECKPOINT_EVERY,
    TraceDigest,
    WindowRecorder,
    event_line,
    first_divergence,
    line_renderer,
    run_golden_case,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: The 17 digests of the corpus as committed *before* the scheduler
#: seam (pluggable run-queue policies) and the FaaS/scale extensions
#: landed.  They are frozen here, independent of the files on disk, to
#: prove the default (cfs) path stayed byte-identical without anyone
#: regenerating the corpus: if a seam change flips one of these, both
#: the replay test and this table fail, and a sneaky `make
#: regen-golden` that rewrites the files still trips this table.
PRE_SEAM_DIGESTS = {
    "c1": "2f2739f8122db8edbb84754732bedac7c2e590d5bba5b386d62eaceadc4134f1",
    "c2": "fb94e952da95c4e0cf2ec634d817e8b0c18d94000dcde00ebce8bceef711d6ea",
    "c3": "e923658f2073e304f2a921b3531674fe80a954e57b02f0dfd294c9879d2f5354",
    "c4": "c655c14d9226a08c1d91bf69d61e0c264b705e8ea7ac63fa412b3c30d0be0d75",
    "c5": "6d26321ebbd799c5c22ed4b18b1699c4a6b19c15ad3725bf94de8a3dafc1aece",
    "c6": "afa36b4c5e4c59522757290ebc5e5ad6652cd6674a86adb06cd8518f78638c08",
    "c7": "838a93f51bc97aec0b640f5dff18eecebc9672750f778b259599e6f1fa9cf791",
    "c8": "d1798f7a5f15851a018e47d408aa7d135f009fefe26e83f5ac6d77852bed27d2",
    "c9": "89eb12fa8addb823a94034a668eed200ea9cc5fd26910b99847c4fc98dda807b",
    "c10": "0560f87555803d73977221469e07c8f06a5d3b674a095d856f82a00bda0918c0",
    "c11": "ee07ca24e40b0739c72cdb702856646119095be06e31769c4371582771ef8e3f",
    "c12": "ac07bb461b4878e1dd8858aa185720d57928afc7b56ba8ee1f6d4710b7794256",
    "c13": "e106b50f031ab748fd3643ce6d48585a38aa4c94b001011c83ad5c89fb79fa2a",
    "c14": "31eb3736e2794b0295d7cf3a14df79053b38304139a4c02478d1dd0dc809d926",
    "c15": "9571dbc0a48537a388f3a78216fad585f727568d6483e72e1252d3254e735a23",
    "c16": "967cf6aed36e4fab0cf48ffb3d836ee76ef319188a3f0b8f5b09cf38d7b112ca",
    "c17": "8e712959a4585e5752d125ec143957b989e52ac8d8d7f902205db52a3cfd2d20",
}


def _corpus_case_ids():
    return sorted(
        (name[:-5] for name in os.listdir(GOLDEN_DIR)
         if name.endswith(".json")),
        key=lambda cid: int(cid[1:]),
    )


def _load_golden(case_id):
    with open(os.path.join(GOLDEN_DIR, "%s.json" % case_id)) as handle:
        return json.load(handle)


def _document_diff(expected, actual):
    """Unified diff of the two golden documents (JSON, sorted keys)."""
    want = json.dumps(expected, indent=1, sort_keys=True).splitlines()
    have = json.dumps(actual, indent=1, sort_keys=True).splitlines()
    return "\n".join(difflib.unified_diff(
        want, have, fromfile="tests/golden/%s.json" % expected["case_id"],
        tofile="replay", lineterm=""))


def _divergent_window_lines(case_id, golden, window_index):
    """Re-run the case recording the first divergent event window."""
    recorder = WindowRecorder(window_index * CHECKPOINT_EVERY,
                              count=CHECKPOINT_EVERY)
    run_golden_case(
        case_id, golden["duration_s"], golden["seed"],
        observer=lambda env: recorder.attach(env.kernel.trace))
    return recorder.lines


def test_corpus_covers_registry():
    """Every registry case has a committed golden, and nothing extra."""
    assert _corpus_case_ids() == sorted(
        ALL_CASES, key=lambda cid: int(cid[1:]))


def test_pre_seam_corpus_unchanged():
    """The 17 pre-seam golden files still carry their frozen digests.

    The scheduler seam landed with the claim that the default cfs path
    is byte-identical to the pre-seam kernel.  The replay test proves
    the *code* reproduces the *files*; this table proves the files
    themselves were never regenerated, so the two together pin the
    claim with no trust in the working tree's history.
    """
    for case_id, digest in PRE_SEAM_DIGESTS.items():
        assert _load_golden(case_id)["digest"] == digest, (
            "committed golden for %s no longer matches the pre-seam "
            "corpus; the 17 original cases must not be regenerated"
            % case_id)


@pytest.mark.parametrize("case_id", _corpus_case_ids())
def test_case_replays_bit_identical(case_id):
    golden = _load_golden(case_id)
    actual = run_golden_case(case_id, golden["duration_s"], golden["seed"])
    actual["case_id"] = case_id
    actual["seed"] = golden["seed"]
    actual["duration_s"] = golden["duration_s"]

    window = first_divergence(golden, actual)
    if window is None:
        return

    # Divergence: build the debuggable failure message.  The event
    # lines are from the *replay* (the committed corpus only stores
    # digests); the checkpoint chain localizes the first divergent
    # window, so these are the events to compare against the blessed
    # behavior when deciding whether to `make regen-golden`.
    start = window * CHECKPOINT_EVERY
    lines = _divergent_window_lines(case_id, golden, window)
    preview = "\n".join(lines[:60])
    pytest.fail(
        "golden trace diverged for %s (seed=%s, duration=%ss)\n\n"
        "document diff:\n%s\n\n"
        "first divergent window: events %d..%d (replay's events shown; "
        "%d recorded)\n%s\n\n"
        "If this change is intentional, regenerate with "
        "`make regen-golden` and review the corpus diff."
        % (case_id, golden["seed"], golden["duration_s"],
           _document_diff(golden, actual),
           start, start + CHECKPOINT_EVERY - 1, len(lines), preview),
        pytrace=False)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Label(str):
    """A str subclass: not a plain str to the compiled renderers."""


class _Owned:
    """A value carrying a psid attribute, which may be None."""

    def __init__(self, psid):
        self.psid = psid


class _Named:
    """A resource key carrying a name: a str, an empty str or not a str."""

    def __init__(self, name):
        self.name = name


class _Plain:
    """A default-repr object: it renders by class name only."""


class _Printable:
    """A key with its own ``__str__``, which its label uses."""

    def __str__(self):
        return "printable 100%"


_TEXT = st.text(alphabet="ab %=sd.", max_size=6)

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(1 << 70), 1 << 70),
    st.sampled_from(list(_Level)),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    _TEXT,
    _TEXT.map(_Label),
    st.sampled_from(list(StateEvent)),
    st.integers(0, 99).map(_Owned),
    st.just(_Owned(None)),
    st.one_of(_TEXT, st.integers()).map(_Named),
    st.builds(_Plain),
    st.builds(_Printable),
)

_VALUES = st.recursive(
    _SCALARS,
    lambda parts: st.one_of(st.lists(parts, max_size=3),
                            st.lists(parts, max_size=3).map(tuple)),
    max_leaves=6)

#: A few names and keys, so shapes repeat across a stream and compiled
#: renderers are reused; ``%`` in either must come out literally.
_NAMES = st.sampled_from(["sched.switch", "pbox.event", "odd%name", "%s%d"])
_KEYS = st.sampled_from(["tid", "key", "psid", "%", "a%sb", "100%d", "x=y"])

_EVENTS = st.tuples(_NAMES, st.integers(-5, 1 << 40),
                    st.dictionaries(_KEYS, _VALUES, max_size=5))


# A bad template fails in many ways at once (wrong text, TypeError,
# ValueError); shrinking each of them separately takes minutes.
@settings(report_multiple_bugs=False)
@given(st.lists(_EVENTS, max_size=12))
def test_compiled_renderers_match_reference(stream):
    """Compiled lines, the digest and the window equal ``event_line``'s.

    Every event is also fired with its keys in reverse insertion order:
    a second shape with its own renderer and the same line.  The
    digest's checkpoints every 3 events must equal the SHA-256 of the
    joined reference lines up to each checkpoint.
    """
    events = []
    for name, time_us, fields in stream:
        events.append((name, time_us, fields))
        events.append((name, time_us, dict(reversed(list(fields.items())))))
    lines = [event_line(name, time_us, fields) + "\n"
             for name, time_us, fields in events]
    for (name, time_us, fields), line in zip(events, lines):
        assert line_renderer(name, fields)(time_us, fields) == line

    digest = TraceDigest(checkpoint_every=3)
    recorder = WindowRecorder(1, count=4)
    for event in events:
        digest(*event)
        recorder(*event)

    def sha(count):
        return hashlib.sha256("".join(lines[:count]).encode()).hexdigest()

    assert digest.events == len(events)
    assert digest.digest_so_far() == sha(len(events))
    assert digest.checkpoints == [
        sha(count) for count in range(3, len(events) + 1, 3)]
    assert recorder.lines == ["%7d  %s" % (index, lines[index][:-1])
                              for index in range(1, min(5, len(events)))]
