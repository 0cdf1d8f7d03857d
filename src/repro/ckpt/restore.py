"""Replay-based restore: re-execute to the cut, verify, continue.

Simulated threads are generators, so a checkpoint cannot serialize
their frames; what it *can* do -- because the kernel is bit-for-bit
deterministic -- is record the replay spec and verify, byte-exactly,
that a fresh process re-executing from t=0 arrives at the cut in the
identical state.  :func:`resume_case` does exactly that: it replays the
spec with the same stepped driver, and at the cut barrier checks both
the rolling trace digest (every event since t=0) and the canonical
state-walk digest (every piece of observable state at the cut) against
the checkpoint before letting the run continue to completion.  Any
divergence raises :class:`RestoreMismatch` with a localized
explanation instead of silently producing a wrong result.
"""

from repro.ckpt.driver import CADENCE_US, CheckpointingDriver
from repro.ckpt.state import first_difference, state_digest, walk_state


class RestoreMismatch(RuntimeError):
    """Replay reached the cut in a different state than the checkpoint."""


def _build_harness(faults, seed, case_id):
    if not faults:
        return None
    from repro.faults import ChaosHarness

    return ChaosHarness(
        [kind.strip() for kind in faults.split(",") if kind.strip()],
        seed=seed, case_id=case_id)


def _run_pbox_case(case_id, duration_s, seed, driver, harness, digest):
    """One pBox case run with ``digest`` attached; returns the CaseRun."""
    from repro.cases import Solution, get_case, run_case
    from repro.sim.thread import reset_thread_ids

    reset_thread_ids()

    def _observer(env):
        digest.attach(env.kernel.trace)
        if harness is not None:
            harness.observer(env)

    return run_case(get_case(case_id), Solution.PBOX, seed=seed,
                    duration_s=duration_s, observer=_observer,
                    driver=driver)


def checkpoint_run(case_id, duration_s=None, seed=1, cadence_us=CADENCE_US,
                   store=None, kill_at_us=None, faults=None, barriers=None):
    """Run ``case_id`` under pBox, checkpointing at every cadence barrier.

    Returns ``{"document", "run", "driver", "harness"}``; the document
    is the exact golden document the uncheckpointed run produces (the
    stepped driver and the pure walkers change nothing -- the
    restore-equality suite proves it corpus-wide).  With ``faults`` a
    chaos harness is attached, same cocktail syntax as the runner.
    ``kill_at_us`` injects a worker crash (the driver raises
    :class:`~repro.ckpt.driver.WorkerKilled` carrying the last good
    checkpoint) -- the supervisor's crash-resume leg drives this.
    """
    from repro.obs.golden import TraceDigest, golden_stats

    spec = {"case_id": case_id, "duration_s": duration_s, "seed": seed,
            "cadence_us": cadence_us}
    if faults:
        spec["faults"] = faults
    harness = _build_harness(faults, seed, case_id)
    digest = TraceDigest()
    driver = CheckpointingDriver(spec, digest, cadence_us=cadence_us,
                                 store=store, kill_at_us=kill_at_us,
                                 barriers=barriers)
    run = _run_pbox_case(case_id, duration_s, seed, driver, harness, digest)
    return {
        "document": digest.document(stats=golden_stats(run)),
        "run": run,
        "driver": driver,
        "harness": harness,
    }


def _verify_at_cut(env, checkpoint, digest):
    """Byte-exact comparison of the replay against the checkpoint."""
    if digest.events != checkpoint.events \
            or digest.digest_so_far() != checkpoint.cut_digest:
        every = digest.checkpoint_every
        window = min(len(digest.checkpoints),
                     len(checkpoint.trace_checkpoints))
        for index, (have, want) in enumerate(
                zip(digest.checkpoints, checkpoint.trace_checkpoints)):
            if have != want:
                window = index
                break
        raise RestoreMismatch(
            "replay diverged from checkpoint at cut t=%dus: events %d vs "
            "%d, first divergent window %d (events %d..%d)"
            % (checkpoint.cut_us, digest.events, checkpoint.events,
               window, window * every, (window + 1) * every - 1))
    manager = None if env.runtime is None else env.runtime.manager
    walk = walk_state(env.kernel, manager)
    if state_digest(walk) != checkpoint.state_dig:
        located = first_difference(checkpoint.state, walk) \
            or ("<digest only>", "?", "?")
        raise RestoreMismatch(
            "replayed state differs from checkpoint at cut t=%dus: "
            "%s (expected %s, got %s)"
            % (checkpoint.cut_us, located[0], located[1], located[2]))


def resume_case(checkpoint):
    """Resume a checkpointed run in this process; returns the outcome.

    Replays the checkpoint's spec from t=0 with the same stepped
    cadence, verifies the cut barrier byte-exactly (trace digest and
    state-walk digest), then continues to the spec's full duration.
    Returns ``{"document", "run", "harness"}`` where the document is
    byte-identical to the uncheckpointed run's golden document -- the
    restore-equality suite asserts this for every registry case.

    The replay runs no barrier callbacks, so it resumes runs that had
    none: a rule reload before the cut is state the replay cannot
    reach, and the cut check raises :class:`RestoreMismatch` on it.
    """
    from repro.obs.golden import TraceDigest, golden_stats

    spec = checkpoint.spec
    case_id = spec["case_id"]
    seed = spec.get("seed", 1)
    cadence_us = spec.get("cadence_us", CADENCE_US)
    cut_us = checkpoint.cut_us
    harness = _build_harness(spec.get("faults"), seed, case_id)
    digest = TraceDigest()
    verified = []

    def _driver(env):
        kernel = env.kernel
        duration_us = env.duration_us
        t = cadence_us
        while t < duration_us:
            kernel.run(until_us=t)
            if t == cut_us:
                _verify_at_cut(env, checkpoint, digest)
                verified.append(t)
            t += cadence_us
        kernel.run(until_us=duration_us)

    run = _run_pbox_case(case_id, spec.get("duration_s"), seed, _driver,
                         harness, digest)
    if not verified:
        raise RestoreMismatch(
            "cut t=%dus is not a cadence barrier of this run "
            "(cadence %dus, duration %dus)"
            % (cut_us, cadence_us, run.env.duration_us))
    return {
        "document": digest.document(stats=golden_stats(run)),
        "run": run,
        "harness": harness,
    }
