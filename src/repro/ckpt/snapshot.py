"""Checkpoint artifacts: versioned, content-addressed, compressed.

A :class:`Checkpoint` captures one quiescent barrier of one run: the
replay spec (everything needed to re-execute the run from t=0), the cut
point in virtual time and event count, the rolling trace digest at the
cut, and the full canonical state walk with its own digest.  The
artifact's identity is the SHA-256 of its canonical JSON, so two runs
that reach the same barrier in the same state produce the *same*
checkpoint id -- storing is idempotent and equality is an id
comparison.

:class:`CheckpointStore` persists artifacts zlib-compressed under a
directory, named by content address, with a per-label ``latest``
pointer for the supervisor's "resume from the last good checkpoint"
path.  Writes go through :func:`repro.atomic.write_atomic`: atomic, and
the temp file is unlinked on failure.
"""

import hashlib
import json
import os
import zlib

from repro.atomic import write_atomic
from repro.ckpt.state import canonical_json, state_digest, walk_state

#: Schema version of checkpoint artifacts.
CKPT_SCHEMA = 1


class Checkpoint:
    """One quiescent-barrier snapshot of a run.

    Attributes
    ----------
    spec:
        Replay spec dict: ``case_id``, ``duration_s``, ``seed``,
        ``cadence_us`` (plus optional ``faults`` for chaos runs).
    cut_us / events:
        Virtual time and canonical-event count at the barrier.
    cut_digest:
        The rolling trace digest at the barrier.
    trace_checkpoints:
        The golden checkpoint chain accumulated so far (window digests
        every ``CHECKPOINT_EVERY`` events) -- lets bisection replay
        from the artifact without a full golden document.
    state / state_dig:
        The canonical state walk and its digest.
    """

    def __init__(self, spec, cut_us, events, cut_digest, trace_checkpoints,
                 state, state_dig):
        self.spec = dict(spec)
        self.cut_us = cut_us
        self.events = events
        self.cut_digest = cut_digest
        self.trace_checkpoints = list(trace_checkpoints)
        self.state = state
        self.state_dig = state_dig

    def to_json_dict(self):
        """JSON-safe artifact payload (schema-versioned)."""
        return {
            "schema": CKPT_SCHEMA,
            "spec": self.spec,
            "cut_us": self.cut_us,
            "events": self.events,
            "cut_digest": self.cut_digest,
            "trace_checkpoints": self.trace_checkpoints,
            "state": self.state,
            "state_digest": self.state_dig,
        }

    @classmethod
    def from_json_dict(cls, data):
        """Rebuild a checkpoint from :meth:`to_json_dict` output."""
        if data.get("schema") != CKPT_SCHEMA:
            raise ValueError("unsupported checkpoint schema %r (want %d)"
                             % (data.get("schema"), CKPT_SCHEMA))
        return cls(
            spec=data["spec"],
            cut_us=data["cut_us"],
            events=data["events"],
            cut_digest=data["cut_digest"],
            trace_checkpoints=data["trace_checkpoints"],
            state=data["state"],
            state_dig=data["state_digest"],
        )

    @property
    def checkpoint_id(self):
        """Content address: SHA-256 of the canonical artifact JSON."""
        return hashlib.sha256(
            canonical_json(self.to_json_dict()).encode()).hexdigest()

    def __repr__(self):
        return "Checkpoint(case=%s, cut_us=%d, events=%d, id=%s)" % (
            self.spec.get("case_id"), self.cut_us, self.events,
            self.checkpoint_id[:12])


def take_checkpoint(env, spec, digest):
    """Snapshot ``env`` at the current (quiescent) virtual time.

    ``digest`` is the run's attached
    :class:`~repro.obs.golden.TraceDigest`; its rolling hash at the cut
    is what restore verifies replay against.  Refuses to snapshot a
    non-quiescent kernel -- a checkpoint taken mid-dispatch could never
    be replayed to, because no ``run(until_us)`` boundary reproduces
    that interior state.
    """
    kernel = env.kernel
    if not kernel.quiescent:
        raise RuntimeError(
            "checkpoint requires a quiescent kernel (no in-flight "
            "dispatch, nothing due at t=%d)" % kernel.now_us)
    manager = None if env.runtime is None else env.runtime.manager
    walk = walk_state(kernel, manager)
    return Checkpoint(
        spec=spec,
        cut_us=kernel.now_us,
        events=digest.events,
        cut_digest=digest.digest_so_far(),
        trace_checkpoints=list(digest.checkpoints),
        state=walk,
        state_dig=state_digest(walk),
    )


class CheckpointStore:
    """Directory of compressed, content-addressed checkpoint artifacts.

    Layout: ``<root>/<checkpoint_id>.ckpt.z`` (zlib-compressed
    canonical JSON) plus ``<root>/<label>.latest`` pointer files
    holding the id of the most recent checkpoint saved under that
    label (typically the case id).
    """

    def __init__(self, root):
        self.root = root

    def _path(self, checkpoint_id):
        return os.path.join(self.root, checkpoint_id + ".ckpt.z")

    def _latest_path(self, label):
        return os.path.join(self.root, label + ".latest")

    def save(self, checkpoint, label=None):
        """Persist ``checkpoint``; returns its content address.

        Idempotent: an artifact that already exists is not rewritten
        (equal ids imply byte-equal payloads).  The ``label`` pointer,
        when given, always moves to this checkpoint.
        """
        checkpoint_id = checkpoint.checkpoint_id
        path = self._path(checkpoint_id)
        if not os.path.exists(path):
            write_atomic(path, zlib.compress(
                canonical_json(checkpoint.to_json_dict()).encode(), 6))
        if label is not None:
            write_atomic(self._latest_path(label), checkpoint_id.encode())
        return checkpoint_id

    def load(self, checkpoint_id):
        """Load one artifact by content address."""
        with open(self._path(checkpoint_id), "rb") as handle:
            payload = zlib.decompress(handle.read())
        return Checkpoint.from_json_dict(json.loads(payload.decode()))

    def latest(self, label):
        """The most recent checkpoint saved under ``label``, or None."""
        try:
            with open(self._latest_path(label), "r") as handle:
                checkpoint_id = handle.read().strip()
        except FileNotFoundError:
            return None
        if not checkpoint_id:
            return None
        return self.load(checkpoint_id)

    def ids(self):
        """All stored checkpoint ids (sorted)."""
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        return sorted(name[:-len(".ckpt.z")] for name in names
                      if name.endswith(".ckpt.z"))
