"""Golden-trace digests: the bit-for-bit determinism regression net.

A golden trace is a compact, committed fingerprint of one case run: the
SHA-256 of the canonically-serialized tracepoint stream, a chain of
rolling checkpoint digests (one every :data:`CHECKPOINT_EVERY` events)
that localizes *where* two runs first diverge, and the run's final
kernel/manager statistics.  The kernel's determinism contract says two
runs of the same (case, solution, seed, duration) produce the same
stream; a kernel change that breaks the contract -- or silently changes
scheduling -- flips the digest, and the checkpoint chain narrows the
divergence to a window of events that a re-run can print.

Canonical serialization rules (``event_line``): field names are sorted,
values are rendered without memory addresses (pBoxes by psid, resource
keys through :func:`~repro.obs.tracepoints.key_label`, enums by name),
so the digest is stable across processes, platforms and Python
versions.  ``event_line`` is the reference; the digest renders each
event with the line renderer compiled for its shape
(:func:`line_renderer`), which produces the same text.
"""

import hashlib
from operator import attrgetter

from repro.core.events import StateEvent
from repro.obs.tracepoints import is_derived, key_label

#: Events per rolling checkpoint in a golden document.
CHECKPOINT_EVERY = 4096

#: Schema version of golden documents (bump when the serialization or
#: the document layout changes; regenerating the corpus is then
#: mandatory).
GOLDEN_SCHEMA = 1


def canonical_names(bus):
    """The bus's tracepoint names minus the derived namespaces."""
    return [name for name in bus.names() if not is_derived(name)]


def canonical_value(value):
    """Render one tracepoint field value deterministically."""
    if value is None:
        return "~"
    if value is True:
        return "T"
    if value is False:
        return "F"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # Floats never feed scheduling, but a few fields carry derived
        # measures; repr is exact for IEEE doubles on every platform.
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_value(part) for part in value) + "]"
    return _object_label(value)


def _object_label(value):
    """:func:`canonical_value` of a value that is no primitive."""
    psid = getattr(value, "psid", None)
    if psid is not None:
        return "pbox:%s" % psid
    name = getattr(value, "name", None)
    if name is not None and value.__class__.__module__.startswith("repro.core"):
        # StateEvent and friends: enum members render by name.
        return str(name)
    return key_label(value)


def event_line(name, time_us, fields):
    """One canonical text line for a fired tracepoint."""
    if fields:
        rendered = " ".join(
            "%s=%s" % (key, canonical_value(fields[key]))
            for key in sorted(fields)
        )
        return "%s %d %s" % (name, time_us, rendered)
    return "%s %d" % (name, time_us)


class _ValueLabels(dict):
    """Exact class -> the function that renders its values.

    Plain ``int`` and ``str`` never get here: a compiled renderer hands
    them to ``%s`` itself.  Each entry gives what :func:`canonical_value`
    gives, and a class is classified the first time one of its values
    is rendered.  Labels are never cached per object: an object's psid
    or name may change while it lives.
    """

    def __missing__(self, cls):
        if issubclass(cls, (int, float, str, list, tuple)):
            label = canonical_value
        else:
            label = _object_label
        self[cls] = label
        return label


_LABELS = _ValueLabels({
    type(None): lambda _value: "~",
    bool: lambda value: "T" if value else "F",
    float: repr,
    # What _object_label gives a state event, without its psid probe,
    # name property and module test: ~1 value in every pbox.event line.
    StateEvent: attrgetter("_name_"),
})

#: ``(name, *field names in firing order)`` -> compiled line renderer.
_RENDERERS = {}


def line_renderer(name, fields):
    """The renderer for events shaped like ``name`` firing ``fields``.

    ``render(time_us, fields)`` returns ``event_line(name, time_us,
    fields) + "\\n"`` for every event of that shape.  The first event of
    a shape compiles its renderer: one ``%`` over a format string that
    holds the name and the sorted field names, with ``%`` escaped.
    """
    shape = (name, *fields)
    render = _RENDERERS.get(shape)
    if render is None:
        render = _RENDERERS[shape] = _compile_renderer(name, sorted(fields))
    return render


def _compile_renderer(name, keys):
    # For "pbox.event" firing pbox, key and event this compiles:
    #   def render(time_us, fields):
    #       v0 = fields['event']
    #       cls = type(v0)
    #       if cls is not int and cls is not str:
    #           v0 = labels[cls](v0)
    #       ... v1 = fields['key'], v2 = fields['pbox'] likewise ...
    #       return 'pbox.event %d event=%s key=%s pbox=%s\n' % (
    #           time_us, v0, v1, v2,)
    template = " ".join([name.replace("%", "%%"), "%d"] + [
        key.replace("%", "%%") + "=%s" for key in keys]) + "\n"
    source = ["def render(time_us, fields):"]
    for index, key in enumerate(keys):
        source += ["    v%d = fields[%r]" % (index, key),
                   "    cls = type(v%d)" % index,
                   "    if cls is not int and cls is not str:",
                   "        v%d = labels[cls](v%d)" % (index, index)]
    source.append("    return %r %% (%s,)" % (template, ", ".join(
        ["time_us"] + ["v%d" % index for index in range(len(keys))])))
    namespace = {"labels": _LABELS}
    exec("\n".join(source), namespace)
    return namespace["render"]


class TraceDigest:
    """Tracepoint subscriber computing a rolling SHA-256 of the stream.

    Subscribe with ``bus.subscribe_all(digest)``; afterwards
    :meth:`document` returns the JSON-safe golden payload.  The
    ``checkpoints`` list holds the running digest after every
    :data:`CHECKPOINT_EVERY` events, so two documents can be compared
    block by block to find the first divergent window.
    """

    def __init__(self, checkpoint_every=CHECKPOINT_EVERY):
        self.checkpoint_every = checkpoint_every
        self.events = 0
        self.checkpoints = []
        self._sha = hashlib.sha256()

    def __call__(self, name, time_us, fields):
        # line_renderer's cache lookup, inlined: this runs per event.
        render = _RENDERERS.get((name, *fields))
        if render is None:
            render = line_renderer(name, fields)
        self._sha.update(render(time_us, fields).encode())
        self.events += 1
        if self.events % self.checkpoint_every == 0:
            self.checkpoints.append(self._sha.hexdigest())

    def attach(self, bus):
        """Subscribe to every *canonical* tracepoint of ``bus``.

        Derived points (``slo.*`` -- fired by observability subscribers,
        not the simulation) are excluded: the canonical stream must be
        identical whether or not telemetry is attached.
        """
        bus.subscribe_all(self, names=canonical_names(bus))
        return self

    def detach(self, bus):
        """Unsubscribe from every tracepoint of ``bus``."""
        bus.unsubscribe_all(self)

    def digest_so_far(self):
        """Current rolling digest without finalizing the stream.

        ``hashlib`` digests are non-consuming, so the checkpoint layer
        can fingerprint the stream at a barrier and keep feeding the
        same digest afterwards.
        """
        return self._sha.hexdigest()

    def document(self, stats=None):
        """JSON-safe golden payload for this stream."""
        return {
            "schema": GOLDEN_SCHEMA,
            "events": self.events,
            "digest": self._sha.hexdigest(),
            "checkpoint_every": self.checkpoint_every,
            "checkpoints": list(self.checkpoints),
            "stats": stats if stats is not None else {},
        }


class WindowRecorder:
    """Record the raw event lines of one checkpoint window.

    Used when a golden comparison fails: re-running the case with a
    recorder scoped to the first divergent window turns an opaque
    digest mismatch into the actual events around the divergence.
    Lines come from the renderers :class:`TraceDigest` hashes, so each
    is what the digest saw, less the newline.
    """

    def __init__(self, start_event, count=CHECKPOINT_EVERY):
        self.start_event = start_event
        self.count = count
        self.lines = []
        self._seen = 0

    def __call__(self, name, time_us, fields):
        index = self._seen
        self._seen += 1
        if self.start_event <= index < self.start_event + self.count:
            line = line_renderer(name, fields)(time_us, fields)
            self.lines.append("%7d  %s" % (index, line[:-1]))

    def attach(self, bus):
        bus.subscribe_all(self, names=canonical_names(bus))
        return self


def first_divergence(expected, actual):
    """Index of the first divergent checkpoint window, or None.

    Compares two golden documents' checkpoint chains; returns the
    0-based window index where they first differ (so events
    ``[index * checkpoint_every, (index + 1) * checkpoint_every)`` are
    the first window containing a divergent event).  ``None`` means the
    documents match.
    """
    if expected["digest"] == actual["digest"] \
            and expected["events"] == actual["events"] \
            and expected.get("stats") == actual.get("stats"):
        return None
    exp = expected.get("checkpoints", [])
    act = actual.get("checkpoints", [])
    for index, (have, want) in enumerate(zip(act, exp)):
        if have != want:
            return index
    # All shared checkpoints match: the divergence is in the tail
    # window after the last common checkpoint.
    return min(len(exp), len(act))


def run_golden_case(case_id, duration_s, seed, observer=None, driver=None):
    """Run ``case_id`` under pBox with a digest attached; returns a doc.

    The canonical golden parameters live with the corpus
    (``tests/golden``); this helper only fixes the solution (pBox, the
    full pipeline) and the digest wiring so the regeneration tool and
    the test suite produce identical documents.  ``driver`` passes
    through to :func:`~repro.cases.base.run_case` -- the checkpoint
    layer replaces the single ``kernel.run`` call with a stepped loop
    that pauses at barriers, and asserts the digests do not move.
    """
    from repro.cases import Solution, get_case, run_case
    from repro.sim.thread import reset_thread_ids

    # Thread ids are allocated from a process-global counter; without a
    # reset, a golden run's tids (and thus its digest) would depend on
    # which runs preceded it in the same process.
    reset_thread_ids()
    digest = TraceDigest()

    def _observer(env):
        digest.attach(env.kernel.trace)
        if observer is not None:
            observer(env)

    run = run_case(get_case(case_id), Solution.PBOX, seed=seed,
                   duration_s=duration_s, observer=_observer,
                   driver=driver)
    return digest.document(stats=golden_stats(run))


def golden_stats(run):
    """The final-state slice of a :class:`CaseRun` a golden doc pins."""
    kernel = run.env.kernel
    return {
        "kernel": dict(kernel.stats),
        "manager": dict(run.manager.stats),
        "victim_mean_us": round(run.victim_mean_us, 6),
        "victim_p95_us": run.victim_p95_us,
        "final_time_us": kernel.now_us,
        "threads": len(kernel.threads),
    }
