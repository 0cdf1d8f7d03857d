"""Parallel experiment runner with content-addressed result caching.

The registry's figure/table sweeps are embarrassingly parallel — every
run is an independent, seeded, deterministic simulation — and they are
re-run constantly while iterating on the pBox manager.  This package
makes the sweep itself a first-class subsystem:

- :mod:`repro.runner.jobs` — :class:`JobSpec`: the canonical, hashable
  description of one ``run_case`` invocation;
- :mod:`repro.runner.cache` — :class:`ResultCache`: a git-style
  content-addressed object store keyed by (job spec, code
  fingerprint), so unchanged jobs are instant replays and *any* source
  change invalidates everything (conservative but always correct);
- :mod:`repro.runner.runner` — :func:`run_jobs`: cache-aware execution,
  in-process or fanned out over ``multiprocessing`` workers, with
  per-job thread-id/RNG resets so parallel results are bit-identical
  to serial ones;
- :mod:`repro.runner.sweep` — :func:`run_sweep`: the two-stage
  To/Ti → Ts job graph over the case registry, aggregated into
  ``repro.cases.CaseEvaluation`` objects over :class:`JobResult` views
  and persisted as ``results/SWEEP.json``.

Entry points: ``python -m repro sweep`` (CLI), the helpers in
``benchmarks/_common.py`` (figure/table benchmarks), and
docs/RUNNING_EXPERIMENTS.md (the user guide).
"""

from repro.runner.cache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    clear_fingerprint_memo,
    code_fingerprint,
)
from repro.runner.jobs import (
    JobSpec,
    baseline_spec,
    interference_spec,
    solution_spec,
)
from repro.runner.runner import (
    JobFailedError,
    JobTimeout,
    RunInterrupted,
    execute_spec,
    run_jobs,
)
from repro.runner.sweep import (
    JobResult,
    SweepInterrupted,
    SweepResult,
    run_sweep,
    sweep_case_ids,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "JobFailedError",
    "JobResult",
    "JobSpec",
    "JobTimeout",
    "ResultCache",
    "RunInterrupted",
    "SweepInterrupted",
    "SweepResult",
    "baseline_spec",
    "clear_fingerprint_memo",
    "code_fingerprint",
    "execute_spec",
    "interference_spec",
    "run_jobs",
    "run_sweep",
    "solution_spec",
    "sweep_case_ids",
]
