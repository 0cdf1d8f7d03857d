"""Full-registry sweeps: enumerate, fan out, aggregate, persist.

A *sweep* evaluates a set of cases under a set of solutions for one or
more seeds, exactly like calling :func:`repro.cases.evaluate_case` per
case — but as an explicit two-stage job graph:

- **stage 1**: the To (interference-free) and Ti (vanilla) jobs of
  every (case, seed) — mutually independent;
- **stage 2**: one Ts job per (case, seed, solution), constructed
  *after* stage 1 so that baseline-consuming solutions (PARTIES,
  Retro) embed the measured To in their spec, just as
  ``evaluate_case`` feeds it to an operator-configured baseline.

Both stages go through :func:`repro.runner.runner.run_jobs`, so every
job is independently cached and parallelizable; the aggregate numbers
are bit-identical to the serial ``evaluate_case`` path.
"""

import json
import time

from repro.atomic import write_atomic
from repro.runner.cache import ResultCache, code_fingerprint
from repro.runner.jobs import (
    baseline_spec,
    interference_spec,
    solution_spec,
)
from repro.runner.runner import RunInterrupted, run_jobs

#: Schema version of ``results/SWEEP.json``.
SWEEP_SCHEMA = 1


class SweepInterrupted(Exception):
    """Ctrl-C mid-sweep; ``partial`` is a valid, writable SweepResult.

    Carries every (case, seed) whose To/Ti/Ts jobs all completed before
    the interrupt, so the CLI can persist a well-formed (if shorter)
    ``results/SWEEP.json`` instead of nothing or a truncated file.
    """

    def __init__(self, partial):
        super().__init__("sweep interrupted with %d complete evaluations"
                         % len(partial.evaluations))
        self.partial = partial


class JobResult:
    """Attribute view over a job's result dict.

    Mirrors the slice of :class:`repro.cases.base.CaseRun` that
    :class:`~repro.cases.base.CaseEvaluation` and the benchmarks read
    (``victim_mean_us``, ``victim_p95_us``, ``noisy_mean_us``), so a
    sweep aggregates cached-or-computed results with the same class
    ``evaluate_case`` builds over live runs.
    """

    __slots__ = ("raw",)

    def __init__(self, raw):
        self.raw = raw

    @property
    def victim_mean_us(self):
        return self.raw["victim_mean_us"]

    @property
    def victim_p95_us(self):
        return self.raw["victim_p95_us"]

    @property
    def noisy_mean_us(self):
        return self.raw["noisy_mean_us"]

    def __repr__(self):
        return "JobResult(victim_mean_us=%.1f)" % self.victim_mean_us


class SweepResult:
    """Everything a finished sweep produced, plus cache/wall accounting."""

    def __init__(self, evaluations, solutions, seeds, duration_s,
                 fingerprint, stats):
        #: {(case_id, seed): CaseEvaluation over JobResults}
        self.evaluations = evaluations
        self.solutions = solutions
        self.seeds = seeds
        self.duration_s = duration_s
        self.fingerprint = fingerprint
        #: dict with jobs / cache_hits / executed / workers / wall_s
        self.stats = stats

    def by_case(self, seed=None):
        """``{case_id: CaseEvaluation}`` for one seed (default: first)."""
        seed = self.seeds[0] if seed is None else seed
        return {case_id: evaluation
                for (case_id, s), evaluation in self.evaluations.items()
                if s == seed}

    def to_json_dict(self):
        """The machine-readable ``results/SWEEP.json`` payload."""
        cases = {}
        for (case_id, seed), ev in sorted(self.evaluations.items()):
            per_case = cases.setdefault(case_id, {"seeds": {}})
            solutions = {}
            for solution, run in ev.solution_runs.items():
                solutions[solution.value] = {
                    "ts_us": ev.ts_us(solution),
                    "ts_p95_us": run.victim_p95_us,
                    "reduction_ratio": ev.reduction_ratio(solution),
                    "normalized_latency": ev.normalized_latency(solution),
                    "normalized_tail": ev.normalized_tail(solution),
                    "noisy_mean_us": run.noisy_mean_us,
                }
            per_case["seeds"][str(seed)] = {
                "to_us": ev.to_us,
                "ti_us": ev.ti_us,
                "interference_level": ev.interference_level,
                "solutions": solutions,
            }
        return {
            "schema": SWEEP_SCHEMA,
            "code_fingerprint": self.fingerprint,
            "duration_s": self.duration_s,
            "seeds": list(self.seeds),
            "solutions": [s.value for s in self.solutions],
            "jobs": self.stats,
            "cases": cases,
        }

    def write_json(self, path):
        """Atomically write :meth:`to_json_dict` to ``path``.

        An interrupt (or crash) during the write can never leave a
        truncated ``SWEEP.json`` where a previous good one used to be,
        nor a stale temp file beside it.
        """
        return write_atomic(path, json.dumps(self.to_json_dict(), indent=1,
                                             sort_keys=True) + "\n")


def sweep_case_ids(case_filter=None):
    """Registry case ids matching ``case_filter``, in numeric order.

    The filter is a comma-separated list of terms; a case matches if
    any term equals its id or is a substring of its app name or
    description (``"c1,c3"``, ``"mysql"``, ``"vacuum"``).  Zero-padded
    ids, which scripts and CI configs write, mean the registry id
    (``c01`` is ``c1``).  ``None`` selects the whole registry.
    """
    from repro.cases import ALL_CASES, get_case

    ordered = sorted(ALL_CASES, key=lambda cid: int(cid[1:]))
    if not case_filter:
        return ordered
    terms = [t.strip().lower() for t in case_filter.split(",") if t.strip()]
    terms = ["c%d" % int(t[1:]) if t[0] == "c" and t[1:].isdigit() else t
             for t in terms]
    selected = []
    for case_id in ordered:
        case = get_case(case_id)
        # Ids match exactly ("c1" must not select c10-c16); free text
        # matches by substring.
        haystack = " ".join([case.app_name, case.virtual_resource,
                             case.description]).lower()
        if any(term == case_id or term in haystack for term in terms):
            selected.append(case_id)
    return selected


def run_sweep(case_ids=None, solutions=None, seeds=(1,), duration_s=6,
              jobs=1, cache=None, use_cache=True, progress=None,
              fingerprint=None):
    """Run a full sweep; returns a :class:`SweepResult`.

    Seed/cache contract: every job spec carries its own seed and the
    measured-To baseline it depends on, so repeated calls with the same
    arguments and unchanged code are pure cache replays, and any
    ``jobs`` value yields identical numbers (the determinism guarantee
    of ``repro.sim.kernel`` lifted to sweep granularity).
    """
    from repro.cases import CaseEvaluation, Solution, get_case

    if solutions is None:
        solutions = [Solution.PBOX]
    solutions = [s if isinstance(s, Solution) else Solution(s)
                 for s in solutions]
    if case_ids is None:
        case_ids = sweep_case_ids()
    seeds = list(seeds)
    if fingerprint is None:
        fingerprint = code_fingerprint()
    if use_cache and cache is None:
        cache = ResultCache()
    started = time.perf_counter()
    hits_before = cache.hits if cache is not None else 0

    stage1 = []
    for case_id in case_ids:
        for seed in seeds:
            stage1.append(baseline_spec(case_id, seed, duration_s))
            stage1.append(interference_spec(case_id, seed, duration_s))
    # Both stage sizes are known up front, so progress callbacks see one
    # global done/total across the To/Ti stage and the solutions stage.
    total_jobs = len(stage1) + len(case_ids) * len(seeds) * len(solutions)

    def _staged_progress(offset):
        if progress is None:
            return None

        def _report(done, _total, spec, cached, wall_s):
            progress(offset + done, total_jobs, spec, cached, wall_s)

        return _report

    interrupted = False
    try:
        stage1_results = run_jobs(stage1, jobs=jobs, cache=cache,
                                  use_cache=use_cache,
                                  progress=_staged_progress(0),
                                  fingerprint=fingerprint)
    except RunInterrupted as stop:
        stage1_results = stop.results
        interrupted = True

    def stage1_result(spec):
        raw = stage1_results.get(spec.key(fingerprint))
        return None if raw is None else JobResult(raw)

    stage2 = []
    baselines = {}
    for case_id in case_ids:
        for seed in seeds:
            to_result = stage1_result(
                baseline_spec(case_id, seed, duration_s))
            if to_result is None:
                continue  # interrupted before this To completed
            baselines[(case_id, seed)] = to_result
            for solution in solutions:
                stage2.append(solution_spec(
                    case_id, solution.value, seed, duration_s,
                    to_us=to_result.victim_mean_us,
                ))
    stage2_results = {}
    if not interrupted:
        try:
            stage2_results = run_jobs(
                stage2, jobs=jobs, cache=cache, use_cache=use_cache,
                progress=_staged_progress(len(stage1_results)),
                fingerprint=fingerprint)
        except RunInterrupted as stop:
            stage2_results = stop.results
            interrupted = True

    # Aggregate every (case, seed) whose To, Ti and all Ts jobs exist.
    # On a clean run that is all of them; after an interrupt it is the
    # completed prefix, which still yields a valid SWEEP.json.
    evaluations = {}
    for case_id in case_ids:
        case = get_case(case_id)
        for seed in seeds:
            to_result = baselines.get((case_id, seed))
            ti_result = stage1_result(
                interference_spec(case_id, seed, duration_s))
            if to_result is None or ti_result is None:
                continue
            runs = {}
            for solution in solutions:
                spec = solution_spec(case_id, solution.value, seed,
                                     duration_s,
                                     to_us=to_result.victim_mean_us)
                raw = stage2_results.get(spec.key(fingerprint))
                if raw is None:
                    break
                runs[solution] = JobResult(raw)
            if len(runs) != len(solutions):
                continue
            evaluations[(case_id, seed)] = CaseEvaluation(
                case, to_result, ti_result, runs)

    total_jobs = len(stage1) + len(stage2)
    hits = (cache.hits - hits_before) if cache is not None else 0
    stats = {
        "total": total_jobs,
        "cache_hits": hits,
        "executed": total_jobs - hits,
        "workers": max(1, int(jobs or 1)),
        "wall_s": round(time.perf_counter() - started, 3),
    }
    result = SweepResult(evaluations, solutions, seeds, duration_s,
                         fingerprint, stats)
    if interrupted:
        raise SweepInterrupted(result)
    return result
