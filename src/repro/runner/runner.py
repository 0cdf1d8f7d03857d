"""Job execution: serial in-process, or fanned out over workers.

The execution contract is the heart of the runner's determinism story:

- :func:`execute_spec` resets the global thread-id counter before every
  job and builds a fresh kernel from the spec's seed, so a job's result
  depends *only* on its spec and the code — never on which process ran
  it, how many jobs ran before it, or in which order the pool finished.
- Workers return plain JSON-safe dicts; the parent process is the only
  cache writer.  Parallel results are therefore bit-identical to a
  serial sweep (``tests/test_runner.py`` and
  ``benchmarks/test_runner_speedup.py`` both assert this).

Self-healing (docs/ROBUSTNESS.md): workers catch their own exceptions
and hand ``(key, result, error, wall)`` tuples back, so one bad job can
never wedge the pool; failed or timed-out jobs are retried with
exponential backoff; repeated pool failures degrade the run to the
serial path; and Ctrl-C surfaces as :class:`RunInterrupted` carrying
every completed result so callers can persist partial output atomically
instead of losing the sweep.
"""

import multiprocessing
import os
import signal
import threading
import time
import warnings
from collections import deque

from repro.runner.cache import ResultCache, code_fingerprint

#: Result-dict schema version, stored in every payload so readers can
#: reject entries written by a future incompatible runner.
#: v2: optional ``chaos`` / ``error`` keys (fault-injection runs).
RESULT_VERSION = 2

#: Consecutive-ish pool failures tolerated before the runner gives up
#: on the pool and finishes the sweep serially in the parent.
DEGRADE_AFTER = 3


class RunInterrupted(Exception):
    """Ctrl-C mid-run; ``results`` holds every job completed so far."""

    def __init__(self, results):
        super().__init__(
            "run interrupted with %d completed jobs" % len(results))
        self.results = results


class JobFailedError(Exception):
    """A job kept failing after every retry (and a serial last chance)."""

    def __init__(self, spec, error):
        super().__init__("job %s failed after retries: %s"
                         % (spec.label(), error))
        self.spec = spec
        self.error = error


class JobTimeout(Exception):
    """Raised inside a worker when a job exceeds its wall budget."""


def _preferred_start_method():
    """``fork`` when the platform offers it (cheap workers), else default."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else None


def execute_spec(spec_dict):
    """Run one job described by a :meth:`JobSpec.to_dict` payload.

    Returns a plain JSON-serializable result dict (latency aggregates,
    sample counts, kernel and manager statistics).  Deterministic: the
    same ``spec_dict`` always produces the same dict, byte for byte,
    in any process (seed contract — see the module docstring).

    When the spec carries a ``faults`` cocktail, a
    :class:`repro.faults.ChaosHarness` is attached as the run observer
    and its summary lands under ``result["chaos"]``.  A fault cocktail
    that makes the simulation itself fail is *contained*: the exception
    becomes ``result["error"]`` plus a ``run-completes`` invariant
    violation instead of killing the worker.
    """
    from repro.cases import Solution, get_case, run_case
    from repro.core import FixedPenalty
    from repro.sim.errors import SimulationError
    from repro.sim.thread import reset_thread_ids

    reset_thread_ids()
    case = get_case(spec_dict["case_id"])
    solution = Solution(spec_dict["solution"])
    engine = None
    penalty = spec_dict.get("penalty")
    if penalty:
        kind, _, value = penalty.partition(":")
        if kind != "fixed":
            raise ValueError("unknown penalty spec %r" % penalty)
        engine = FixedPenalty(int(value))

    harness = None
    observer = None
    faults = spec_dict.get("faults")
    if faults:
        from repro.faults import ChaosHarness

        harness = ChaosHarness(
            [kind.strip() for kind in faults.split(",") if kind.strip()],
            seed=spec_dict.get("seed", 1),
            case_id=spec_dict["case_id"],
        )
        observer = harness.observer

    try:
        run = run_case(
            case,
            solution,
            seed=spec_dict.get("seed", 1),
            duration_s=spec_dict.get("duration_s"),
            baseline_us=spec_dict.get("baseline_us"),
            isolation_level=spec_dict.get("isolation_level"),
            penalty_engine=engine,
            observer=observer,
        )
    except (SimulationError, RuntimeError) as exc:
        if harness is None or not harness.attached:
            raise
        harness.record_failure(exc)
        return {
            "version": RESULT_VERSION,
            "victim_mean_us": None,
            "victim_p95_us": None,
            "noisy_mean_us": None,
            "victim_samples": 0,
            "noisy_samples": 0,
            "sim_stats": {},
            "manager_stats": {},
            "error": "%s: %s" % (type(exc).__name__, exc),
            "chaos": harness.finish(),
        }

    return job_result(run, harness)


def job_result(run, harness):
    """The result dict of one completed case run.

    The one builder of a job's success payload: the run supervisor
    returns it too, so :func:`repro.faults.chaos.entry_digest` over a
    supervised chaos job equals the digest of an unsupervised worker's
    result -- the crash-resume byte-identity contract.
    """
    result = {
        "version": RESULT_VERSION,
        "victim_mean_us": run.victim_mean_us,
        "victim_p95_us": run.victim_p95_us,
        "noisy_mean_us": run.noisy_mean_us,
        "victim_samples": sum(len(recorder.samples_us)
                              for recorder in run.env.victim_recorders),
        "noisy_samples": sum(len(recorder.samples_us)
                             for recorder in run.env.noisy_recorders),
        "sim_stats": dict(run.env.kernel.stats),
        "manager_stats": dict(run.manager.stats),
        "penalty_actions": run.manager.penalty_engine.action_count(),
    }
    if harness is not None:
        result["chaos"] = harness.finish()
    return result


# ----------------------------------------------------------------------
# Worker-side hardening
# ----------------------------------------------------------------------


def _maybe_inject_test_fault(key):
    """Deterministic worker faults for the hardening tests.

    ``REPRO_RUNNER_FAULT`` selects the failure (``crash:<n>``,
    ``timeout:<n>``, ``crash-pool``).  For ``crash``/``timeout``,
    ``REPRO_RUNNER_FAULT_DIR`` must point at a shared directory: the
    first ``n`` attempts of each job claim an ``O_EXCL`` marker file
    and fail, so retries (which find the markers taken) succeed —
    exactly the transient-fault shape the retry loop must survive.
    ``crash-pool`` fails in pool workers only, forever, which forces
    the degrade-to-serial path.
    """
    fault = os.environ.get("REPRO_RUNNER_FAULT")
    if not fault:
        return
    kind, _, count = fault.partition(":")
    if kind == "crash-pool":
        if multiprocessing.current_process().name != "MainProcess":
            raise RuntimeError("injected pool-worker crash (test fault)")
        return
    marker_dir = os.environ.get("REPRO_RUNNER_FAULT_DIR")
    if not marker_dir:
        return
    for attempt in range(int(count or 1)):
        marker = os.path.join(marker_dir, "%s.%d" % (key[:16], attempt))
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        if kind == "timeout":
            time.sleep(3600)  # parked until the job alarm fires
        raise RuntimeError(
            "injected worker crash (test fault, attempt %d)" % attempt)


class _job_alarm:
    """SIGALRM-based wall-clock budget around one job.

    Works in the parent and in forked pool workers (each runs jobs on
    its main thread).  Platforms without ``SIGALRM`` simply run without
    a budget — the retry/degrade machinery still applies.

    ``signal.signal`` raises ``ValueError`` off the main thread, so a
    job driven from a worker thread (embedding harnesses, the
    checkpoint supervisor) cannot use the alarm.  Rather than losing
    the budget silently, the alarm degrades to a wall-clock *deadline*:
    the job runs unpreempted, but a budget overrun is still detected on
    exit and raised as :class:`JobTimeout` (with a warning so the
    degraded coverage is visible).
    """

    def __init__(self, timeout_s):
        self.timeout_s = timeout_s
        self._previous = None
        self._deadline = None

    def __enter__(self):
        if not self.timeout_s or not hasattr(signal, "SIGALRM"):
            return self
        if threading.current_thread() is not threading.main_thread():
            warnings.warn(
                "job timeout requested off the main thread: SIGALRM is "
                "unavailable, falling back to a post-hoc deadline check",
                RuntimeWarning, stacklevel=2)
            self._deadline = time.perf_counter() + self.timeout_s
            return self

        def _expire(signum, frame):
            raise JobTimeout("job exceeded %.1fs wall budget"
                             % self.timeout_s)

        self._previous = signal.signal(signal.SIGALRM, _expire)
        signal.setitimer(signal.ITIMER_REAL, self.timeout_s)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        if (self._deadline is not None and exc_type is None
                and time.perf_counter() > self._deadline):
            raise JobTimeout(
                "job exceeded %.1fs wall budget (deadline fallback)"
                % self.timeout_s)
        return False


def _run_one(key, spec_dict, timeout_s):
    """Execute one job under the test-fault hook and the wall budget.

    The fault hook runs *inside* the alarm window: an injected
    ``timeout`` fault parks forever and must be cut down by the budget,
    exactly like a genuinely wedged job.
    """
    with _job_alarm(timeout_s):
        _maybe_inject_test_fault(key)
        return execute_spec(spec_dict)


def _execute_keyed(item):
    """Pool worker: never raises (except Ctrl-C).

    Returns ``(key, result, error, wall_s)``; any exception — including
    an injected crash or a :class:`JobTimeout` — is folded into the
    ``error`` string so ``imap_unordered`` keeps draining and one bad
    job cannot take the pool down.
    """
    key, spec_dict, timeout_s = item
    started = time.perf_counter()
    try:
        result = _run_one(key, spec_dict, timeout_s)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:
        return (key, None, "%s: %s" % (type(exc).__name__, exc),
                time.perf_counter() - started)
    return key, result, None, time.perf_counter() - started


# ----------------------------------------------------------------------
# Parent-side orchestration
# ----------------------------------------------------------------------


def run_jobs(specs, jobs=1, cache=None, use_cache=True, progress=None,
             fingerprint=None, timeout_s=None, retries=2,
             retry_backoff_s=0.05, stats=None):
    """Execute ``specs``; return ``{cache_key: result_dict}``.

    Parameters
    ----------
    specs:
        Iterable of :class:`~repro.runner.jobs.JobSpec`.  Duplicate
        specs (same content address) are executed once.
    jobs:
        Worker processes.  ``1`` runs everything in-process (the
        *serial path*); higher values fan uncached jobs out over a
        ``multiprocessing`` pool.  Results are identical either way.
    cache / use_cache:
        With ``use_cache`` true (default), each job is first looked up
        in the content-addressed ``cache`` (a fresh
        :class:`ResultCache` at the default root if not given); hits
        skip execution entirely, misses are executed and stored.  With
        ``use_cache`` false the cache is neither read nor written.
    progress:
        Optional callable ``(done, total, spec, cached, wall_s)``
        invoked after every job completion, including cache hits.
    fingerprint:
        Code fingerprint override; defaults to
        :func:`code_fingerprint` of the installed ``repro`` package.
        Tests use this to simulate code changes.
    timeout_s:
        Optional per-job wall-clock budget; a job over budget fails
        with :class:`JobTimeout` and is retried like a crash.
    retries:
        Failed-job retry budget (exponential backoff between attempts,
        starting at ``retry_backoff_s``).  A job that exhausts it gets
        one final serial attempt in the parent; if that also fails,
        :class:`JobFailedError` propagates.
    stats:
        Optional dict filled with hardening counters (``retries``,
        ``worker_errors``, ``timeouts``, ``degraded``).

    Raises :class:`RunInterrupted` on Ctrl-C, carrying every completed
    result so the caller can persist partial output.
    """
    if fingerprint is None:
        fingerprint = code_fingerprint()
    if use_cache and cache is None:
        cache = ResultCache()

    keyed = []
    seen = set()
    for spec in specs:
        key = spec.key(fingerprint)
        if key in seen:
            continue
        seen.add(key)
        keyed.append((key, spec))

    hard_stats = stats if stats is not None else {}
    hard_stats.setdefault("retries", 0)
    hard_stats.setdefault("worker_errors", 0)
    hard_stats.setdefault("timeouts", 0)
    hard_stats.setdefault("degraded", False)

    results = {}
    total = len(keyed)
    done = 0
    pending = []
    for key, spec in keyed:
        cached_result = cache.get(key) if use_cache else None
        if cached_result is not None:
            results[key] = cached_result
            done += 1
            if progress is not None:
                progress(done, total, spec, True, 0.0)
        else:
            pending.append((key, spec))

    if not pending:
        return results

    def _record(key, spec, result, wall_s):
        nonlocal done
        results[key] = result
        if use_cache:
            cache.put(key, spec.to_dict(), fingerprint, result)
        done += 1
        if progress is not None:
            progress(done, total, spec, False, wall_s)

    def _note_failure(error, attempts):
        hard_stats["worker_errors"] += 1
        if "JobTimeout" in error:
            hard_stats["timeouts"] += 1
        if attempts <= retries:
            hard_stats["retries"] += 1
            time.sleep(retry_backoff_s * (2 ** min(attempts - 1, 4)))

    workers = max(1, int(jobs or 1))
    queue = deque((key, spec, 0) for key, spec in pending)
    use_pool = workers > 1 and len(queue) > 1
    pool_strikes = 0

    try:
        while queue:
            if use_pool and pool_strikes >= DEGRADE_AFTER:
                use_pool = False
                hard_stats["degraded"] = True

            if not use_pool:
                key, spec, attempts = queue.popleft()
                started = time.perf_counter()
                try:
                    result = _run_one(key, spec.to_dict(), timeout_s)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    attempts += 1
                    error = "%s: %s" % (type(exc).__name__, exc)
                    # retries pool-side attempts count too; the serial
                    # path grants one extra, final attempt on top.
                    if attempts > retries + 1:
                        raise JobFailedError(spec, error)
                    _note_failure(error, attempts)
                    queue.append((key, spec, attempts))
                    continue
                _record(key, spec, result,
                        time.perf_counter() - started)
                continue

            # Pool round: drain the current queue through the workers;
            # failures re-queue (with their attempt count) for the next
            # round, so a transient crash costs one round, not the run.
            batch = list(queue)
            queue.clear()
            attempts_by_key = {key: att for key, _, att in batch}
            spec_by_key = {key: spec for key, spec, _ in batch}
            finished = set()
            items = [(key, spec.to_dict(), timeout_s)
                     for key, spec, _ in batch]
            method = _preferred_start_method()
            ctx = (multiprocessing.get_context(method) if method
                   else multiprocessing.get_context())
            try:
                with ctx.Pool(processes=min(workers, len(items))) as pool:
                    # chunksize=1: jobs run for seconds each, so load
                    # balance beats batching; completion order is
                    # irrelevant (results are keyed).
                    for key, result, error, wall_s in pool.imap_unordered(
                            _execute_keyed, items, chunksize=1):
                        finished.add(key)
                        if error is None:
                            _record(key, spec_by_key[key], result, wall_s)
                            continue
                        pool_strikes += 1
                        attempts = attempts_by_key[key] + 1
                        _note_failure(error, attempts)
                        queue.append((key, spec_by_key[key], attempts))
                        if attempts > retries:
                            # Out of pool retries: the serial path gets
                            # the last chance (and raises if it fails).
                            use_pool = False
            except KeyboardInterrupt:
                raise
            except Exception:
                # The pool machinery itself broke (lost worker, IPC
                # failure): requeue whatever did not finish and fall
                # back to the serial path for the rest of the run.
                pool_strikes = DEGRADE_AFTER
                for key, spec, attempts in batch:
                    if key not in finished and key not in results:
                        queue.append((key, spec, attempts))
    except KeyboardInterrupt:
        raise RunInterrupted(results)

    return results
