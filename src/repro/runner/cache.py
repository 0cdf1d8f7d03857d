"""Content-addressed on-disk result cache.

Layout (sharded like git's object store so directories stay small)::

    <root>/
      objects/
        ab/
          ab3f...e9.json     # {"spec": ..., "code": ..., "result": ...}

The key is ``JobSpec.key(code_fingerprint())``: a sha256 over the
canonical job spec *and* a fingerprint of every ``.py`` file in the
``repro`` package.  Invalidation is therefore automatic and
conservative — touch any source file and every prior entry simply stops
being addressed (the files stay on disk; delete the cache root to
reclaim space).

Only the parent runner process writes entries (workers hand results
back over the pool), and each write lands through
:func:`repro.atomic.write_atomic`, so a crashed or interrupted sweep can
never leave a truncated JSON behind a valid key.
"""

import contextlib
import json
import os

from repro.atomic import write_atomic

try:
    import fcntl
except ImportError:  # non-POSIX: atomic rename is the only guard
    fcntl = None

#: Default cache directory (relative to the working directory) when
#: neither the ``REPRO_CACHE_DIR`` environment variable nor an explicit
#: root is given.
DEFAULT_CACHE_DIR = ".repro-cache"

_fingerprints = {}


def code_fingerprint(root=None):
    """Hash the ``repro`` source tree; memoized per root path.

    Returns a sha256 hexdigest over the sorted (relative path, content
    hash) pairs of every ``.py`` file under ``root`` (default: the
    installed ``repro`` package directory).  This is the *code* half of
    every cache key: any source change — even a comment — produces a
    new fingerprint and thus invalidates all cached results.  That is
    deliberate: re-running is cheap and always correct, while tracking
    the true dependency slice of a result is not.
    """
    import hashlib

    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    root = os.path.abspath(root)
    cached = _fingerprints.get(root)
    if cached is not None:
        return cached
    entries = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            entries.append((os.path.relpath(path, root), digest))
    body = json.dumps(entries, separators=(",", ":"))
    fingerprint = hashlib.sha256(body.encode("utf-8")).hexdigest()
    _fingerprints[root] = fingerprint
    return fingerprint


def clear_fingerprint_memo():
    """Drop memoized fingerprints (tests that mutate source trees)."""
    _fingerprints.clear()


class ResultCache:
    """Content-addressed store of job results.

    Parameters
    ----------
    root:
        Cache directory.  Defaults to ``$REPRO_CACHE_DIR`` or
        ``.repro-cache`` under the current working directory.

    ``hits``/``misses``/``writes`` count this instance's traffic; the
    sweep summary and ``results/SWEEP.json`` report them.
    """

    def __init__(self, root=None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        self.root = os.path.abspath(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0

    def path_for(self, key):
        """On-disk path of ``key`` (two-character shard, git-style)."""
        return os.path.join(self.root, "objects", key[:2], key + ".json")

    def get(self, key):
        """Return the cached result payload for ``key``, or ``None``.

        A missing file is a plain miss.  A *corrupt* entry (interrupted
        write from a pre-atomic-rename version, disk trouble, manual
        tampering) is quarantined: renamed to ``<entry>.bad`` so it is
        never re-read (and re-failed) on every subsequent lookup, while
        the evidence stays on disk for inspection.
        """
        path = self.path_for(key)
        try:
            handle = open(path)
        except OSError:
            self.misses += 1
            return None
        try:
            with handle:
                entry = json.load(handle)
            result = entry["result"]
        except (OSError, ValueError, KeyError):
            self.misses += 1
            self.quarantined += 1
            try:
                os.replace(path, path + ".bad")
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    @contextlib.contextmanager
    def write_lock(self):
        """Exclusive advisory lock over this cache's writes.

        Two concurrent sweeps writing the same key would each rename a
        complete temporary file, so entries can't be torn -- but their
        ``.tmp.<pid>`` files can collide if one process recycles the
        other's pid after a crash.  The flock serializes writers per
        cache root, which also keeps ``writes`` accounting sane.  On
        platforms without ``fcntl`` the lock degrades to a no-op and
        the atomic rename remains the only (sufficient) guard.
        """
        if fcntl is None:
            yield
            return
        os.makedirs(self.root, exist_ok=True)
        lock_path = os.path.join(self.root, "write.lock")
        with open(lock_path, "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def put(self, key, spec_dict, fingerprint, result):
        """Store ``result`` under ``key`` atomically.

        The spec and fingerprint are stored alongside the result purely
        for debuggability (``python -m json.tool`` on an object answers
        "what produced this?"); reads only use ``result``.
        """
        with self.write_lock():
            write_atomic(self.path_for(key), json.dumps(
                {"spec": spec_dict, "code": fingerprint, "result": result}))
        self.writes += 1

    def __len__(self):
        """Number of objects currently stored."""
        count = 0
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return 0
        for shard in os.listdir(objects):
            shard_dir = os.path.join(objects, shard)
            if os.path.isdir(shard_dir):
                count += sum(1 for name in os.listdir(shard_dir)
                             if name.endswith(".json"))
        return count

    def __repr__(self):
        return "ResultCache(root=%r, hits=%d, misses=%d)" % (
            self.root, self.hits, self.misses)
