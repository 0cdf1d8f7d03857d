"""Chaos sweeps: cases x fault kinds x seeds through the job runner.

``run_chaos`` fans every (case, fault kind, seed) combination out as an
ordinary runner job -- the fault cocktail rides inside the
:class:`~repro.runner.jobs.JobSpec`, so chaos results are content-
addressed and cached exactly like measurement runs -- and aggregates
the per-run chaos summaries into ``results/CHAOS.json``.

The JSON payload deliberately contains **no wall-clock data** (wall
time, cache hit counts, worker counts live in ``ChaosResult.stats``,
which the CLI prints but never persists): re-running the same chaos
sweep must produce a byte-identical file, which is also how the stress
test asserts deterministic replay.

Since schema 2 the persisted per-run entries are *summaries*: fault /
violation / recovery counts plus a SHA-256 digest of the full
deterministic entry (fired-fault list, injection plan, violation
details and all).  The digest preserves the byte-identity contract --
any behavioral drift in a run flips its digest -- while keeping
``results/CHAOS.json`` a few KB instead of hundreds.  The full entries
stay available in memory on :class:`ChaosResult` for the CLI and the
stress tests.
"""

import hashlib
import json

from repro.atomic import write_atomic
from repro.runner.cache import ResultCache, code_fingerprint
from repro.runner.jobs import JobSpec
from repro.runner.runner import RunInterrupted, run_jobs

#: Schema version of ``results/CHAOS.json``.  2: per-run entries are
#: compacted to counts + a SHA-256 digest of the full entry.
CHAOS_SCHEMA = 2

#: The default fault cocktail (the acceptance sweep's three kinds).
DEFAULT_CHAOS_FAULTS = ("stall", "lost_wakeup", "crash")


class ChaosInterrupted(Exception):
    """Ctrl-C mid-sweep; ``partial`` is a valid, writable ChaosResult."""

    def __init__(self, partial):
        super().__init__("chaos sweep interrupted")
        self.partial = partial


class ChaosResult:
    """Aggregated chaos sweep output."""

    def __init__(self, entries, kinds, seeds, duration_s, fingerprint,
                 stats):
        #: {(case_id, kind, seed): entry dict}
        self.entries = entries
        self.kinds = list(kinds)
        self.seeds = list(seeds)
        self.duration_s = duration_s
        self.fingerprint = fingerprint
        #: wall-clock accounting; printed, never persisted.
        self.stats = stats

    def total_violations(self):
        return sum(len(entry["chaos"]["violations"])
                   for entry in self.entries.values())

    def violations(self):
        """Flat list of every violation dict across all entries."""
        found = []
        for (case_id, kind, seed), entry in sorted(self.entries.items()):
            for violation in entry["chaos"]["violations"]:
                found.append(violation)
        return found

    def to_json_dict(self):
        """The ``results/CHAOS.json`` payload (wall-clock free)."""
        cases = {}
        crashes = recoveries = stale = deadlocks = fired = 0
        for (case_id, kind, seed), entry in sorted(self.entries.items()):
            per_case = cases.setdefault(case_id, {})
            per_case.setdefault(kind, {})[str(seed)] = _compact_entry(entry)
            chaos = entry["chaos"]
            crashes += chaos["crashes"]
            fired += len(chaos["fired"])
            watchdog = chaos.get("watchdog") or {}
            recoveries += watchdog.get("recoveries", 0)
            stale += watchdog.get("stale_repairs", 0)
            deadlocks += watchdog.get("deadlocks", 0)
        return {
            "schema": CHAOS_SCHEMA,
            "code_fingerprint": self.fingerprint,
            "duration_s": self.duration_s,
            "seeds": list(self.seeds),
            "faults": list(self.kinds),
            "summary": {
                "runs": len(self.entries),
                "violations": self.total_violations(),
                "faults_fired": fired,
                "crashes_contained": crashes,
                "watchdog_recoveries": recoveries,
                "stale_repairs": stale,
                "deadlocks": deadlocks,
            },
            "cases": cases,
        }

    def write_json(self, path):
        """Atomically write :meth:`to_json_dict` to ``path``.

        An interrupt mid-write (including KeyboardInterrupt on the
        partial-result exit-130 path) can never leave a truncated JSON
        file, nor a stale temp file beside the output.
        """
        return write_atomic(path, json.dumps(self.to_json_dict(), indent=1,
                                             sort_keys=True) + "\n")


def chaos_spec(case_id, kind, seed, duration_s):
    """The job spec for one chaos run (pBox solution + fault cocktail)."""
    return JobSpec(case_id, "pbox", seed=seed, duration_s=duration_s,
                   faults=kind)


def _entry(result):
    """Deterministic slice of a job result for the chaos payload."""
    return {
        "victim_mean_us": result["victim_mean_us"],
        "victim_p95_us": result["victim_p95_us"],
        "victim_samples": result["victim_samples"],
        "error": result.get("error"),
        "chaos": result["chaos"],
    }


def entry_digest(entry):
    """SHA-256 over the canonical JSON of a full per-run entry."""
    canonical = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _compact_entry(entry):
    """The persisted (schema 2) summary of one chaos run.

    Counts only, plus a truncated digest of the full entry: a
    behavioral change anywhere in the run (a shifted injection time, a
    different woken thread, a new violation detail) flips ``digest``
    even when every count is unchanged.  64 bits of digest is ample for
    drift *detection* -- nothing adversarial hashes here.
    """
    chaos = entry["chaos"]
    watchdog = chaos.get("watchdog") or {}
    return {
        "digest": entry_digest(entry)[:16],
        "victim_mean_us": round(entry["victim_mean_us"], 3),
        "victim_p95_us": entry["victim_p95_us"],
        "victim_samples": entry["victim_samples"],
        "error": entry["error"],
        "faults_fired": len(chaos["fired"]),
        "faults_skipped": len(chaos["skipped"]),
        "crashes": chaos["crashes"],
        "violations": len(chaos["violations"]),
        "recoveries": watchdog.get("recoveries", 0),
        "stale_repairs": watchdog.get("stale_repairs", 0),
        "deadlocks": watchdog.get("deadlocks", 0),
    }


def run_chaos(case_ids=None, kinds=DEFAULT_CHAOS_FAULTS, seeds=(1, 2, 3),
              duration_s=3.0, jobs=1, cache=None, use_cache=True,
              progress=None, timeout_s=None, run_stats=None):
    """Run the chaos matrix; returns a :class:`ChaosResult`.

    Raises :class:`ChaosInterrupted` on Ctrl-C with the completed
    subset attached, so callers can persist partial results atomically.
    """
    import time

    from repro.runner.sweep import sweep_case_ids

    if case_ids is None:
        case_ids = sweep_case_ids()
    kinds = list(kinds)
    seeds = list(seeds)
    fingerprint = code_fingerprint()
    if use_cache and cache is None:
        cache = ResultCache()
    started = time.perf_counter()
    hits_before = cache.hits if cache is not None else 0

    keyed = {}
    specs = []
    for case_id in case_ids:
        for kind in kinds:
            for seed in seeds:
                spec = chaos_spec(case_id, kind, seed, duration_s)
                keyed[(case_id, kind, seed)] = spec.key(fingerprint)
                specs.append(spec)

    interrupted = False
    try:
        results = run_jobs(specs, jobs=jobs, cache=cache,
                           use_cache=use_cache, progress=progress,
                           fingerprint=fingerprint, timeout_s=timeout_s,
                           stats=run_stats)
    except RunInterrupted as stop:
        results = stop.results
        interrupted = True

    entries = {}
    for combo, key in keyed.items():
        result = results.get(key)
        if result is not None:
            entries[combo] = _entry(result)

    hits = (cache.hits - hits_before) if cache is not None else 0
    stats = {
        "total": len(specs),
        "completed": len(entries),
        "cache_hits": hits,
        "workers": max(1, int(jobs or 1)),
        "wall_s": round(time.perf_counter() - started, 3),
    }
    chaos_result = ChaosResult(entries, kinds, seeds, duration_s,
                               fingerprint, stats)
    if interrupted:
        raise ChaosInterrupted(chaos_result)
    return chaos_result
