"""One atomic writer for every artifact the package persists.

``results/SWEEP.json``, ``CHAOS.json`` and ``SCALE.json``, checkpoints,
result-cache entries, metrics snapshots and the CLI's JSON exports all
land through :func:`write_atomic`: the payload goes to a temporary file
beside the target and moves into place with ``os.replace``, so a reader
sees the previous file or the new one, never a truncated write.  On any
failure (a payload of the wrong type, a full disk, Ctrl-C) the
temporary file is removed before the error propagates.

Callers serialize first and hand over the finished text or bytes, so a
document that cannot be serialized never touches the disk.

This module imports only the standard library: ``repro.scale.sweep`` is
on every benchmark workload's import path, and loading the runner
package (and ``multiprocessing`` with it) from here would add to each
start-up.
"""

import os


def write_atomic(path, payload):
    """Write ``payload`` (str or bytes) to ``path``; returns ``path``.

    Creates the parent directory.  The temporary file's name carries
    the writer's pid, so two processes writing one path never share it.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp, "wb" if isinstance(payload, bytes) else "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
