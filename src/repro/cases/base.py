"""Case harness: run an interference scenario under each solution.

The measurement protocol follows Section 6.2:

- ``To``: victim latency without the noisy activity (interference-free);
- ``Ti``: victim latency with the noisy activity, vanilla application;
- ``Ts``: victim latency with the noisy activity under a solution
  (pBox or one of the baselines);
- interference level ``p = Ti/To - 1``;
- reduction ratio ``r = (Ti - Ts)/(Ti - To)``.

Every run is an independent, deterministic simulation with the same
seed, so the only difference between ``Ti`` and ``Ts`` is the solution.
"""

import enum

from repro.baselines import (
    CgroupPolicy,
    DarcPolicy,
    PartiesPolicy,
    RetroPolicy,
    SolutionPolicy,
)
from repro.baselines.base import RequestContext
from repro.core import OperationCosts, PBoxManager, PBoxRuntime
from repro.sim import Kernel
from repro.sim.clock import seconds
from repro.workloads import LatencyRecorder, closed_loop_client, reduction_ratio


class Solution(enum.Enum):
    """Run modes understood by :func:`run_case`."""

    NO_INTERFERENCE = "no_interference"   # To
    NONE = "none"                         # Ti (vanilla, noisy active)
    PBOX = "pbox"
    CGROUP = "cgroup"
    PARTIES = "parties"
    RETRO = "retro"
    DARC = "darc"


BASELINE_SOLUTIONS = (
    Solution.CGROUP,
    Solution.PARTIES,
    Solution.RETRO,
    Solution.DARC,
)


class CaseEnv:
    """Everything a case's ``build`` method needs.

    Exposes the kernel, the pBox runtime linked into the application,
    the interference flag (False during the ``To`` run), and helpers
    that route thread creation and request accounting through the active
    solution policy.
    """

    def __init__(self, kernel, runtime, policy, duration_us, warmup_us, seed):
        self.kernel = kernel
        self.runtime = runtime
        self.policy = policy
        self.duration_us = duration_us
        self.warmup_us = warmup_us
        self.seed = seed
        self.interference = True
        self.isolation_level = 50  # paper default; Figure 15 varies it
        self.victim_recorders = []
        self.noisy_recorders = []
        # Optional obs.metrics.MetricsRegistry; when set, recorders
        # mirror their samples into per-role latency histograms.
        self.metrics = None
        # Optional obs.telemetry.TelemetryPipeline; when set, recorders
        # feed per-role request latencies into it (role as the tenant).
        self.telemetry = None
        # Nominal (uncontended) victim latency for slowdown telemetry;
        # run_case fills it from the case/measured baseline when known.
        self.nominal_us = None
        self._groups = set()

    @property
    def stop_us(self):
        """Virtual time at which clients stop issuing requests."""
        return self.duration_us

    def recorder(self, name, victim=False, noisy=False):
        """Create a latency recorder, tracked for result aggregation.

        It records from the end of the warm-up on.
        """
        role = "victim" if victim else ("noisy" if noisy else "other")
        histogram = None
        if self.metrics is not None:
            histogram = self.metrics.histogram("latency.%s_us" % role)
        sink = None
        if self.telemetry is not None:
            telemetry = self.telemetry
            # Slowdown is only meaningful against the victim's known
            # uncontended baseline; other roles sketch latency alone.
            nominal = self.nominal_us if victim else None

            def sink(latency_us, completed_at_us, _role=role,
                     _nominal=nominal):
                telemetry.record_request(_role, latency_us,
                                         completed_at_us,
                                         nominal_us=_nominal)
        recorder = LatencyRecorder(
            name, record_from_us=self.warmup_us,
            histogram=histogram, sink=sink,
        )
        if victim:
            self.victim_recorders.append(recorder)
        if noisy:
            self.noisy_recorders.append(recorder)
        return recorder

    def spawn_client(self, name, connection, request_factory, recorder,
                     group, victim=False, think_us=0, start_us=0, rng=None):
        """Spawn a closed-loop client routed through the solution policy.

        It issues requests until the end of the run.
        """
        self._groups.add(group)
        ctx = RequestContext(group, name, victim=victim)
        body = closed_loop_client(
            self.kernel,
            connection,
            request_factory,
            recorder,
            start_us=start_us,
            stop_us=self.duration_us,
            think_us=think_us,
            rng=rng,
            policy=self.policy,
            policy_ctx=ctx,
            # req.begin groups requests by role, matching the tenant
            # labels the telemetry pipeline uses for case runs.
            tenant=group,
        )
        options = self.policy.thread_options(group, "client")
        return self.kernel.spawn(body, name=name, **options)

    def spawn_background(self, body, name, group):
        """Spawn a background activity (purge, dump, vacuum...)."""
        self._groups.add(group)
        options = self.policy.thread_options(group, "background")
        return self.kernel.spawn(body, name=name, **options)

    def finalize(self):
        """Let the policy size quotas / start its control loop."""
        self.policy.finalize(self._groups)


class InterferenceCase:
    """Base class for the 16 Table 3 cases.

    Subclasses set the metadata class attributes and implement
    ``build(env)``, spawning victims always and noisy activities only
    when ``env.interference`` is true.
    """

    case_id = "cX"
    app_name = "app"
    from_bug_report = False
    virtual_resource = "resource"
    description = ""
    paper_interference_level = None  # Table 3's p, for EXPERIMENTS.md
    duration_s = 10
    warmup_s = 1
    cores = 4
    # Scheduler policy the case's kernel runs under ("cfs" | "eevdf").
    # Part of the case's deterministic identity, like cores: a golden
    # digest pins the schedule the policy produced.
    sched = "cfs"
    # Expected interference-free victim latency; used by PARTIES (SLO)
    # and Retro (slowdown baseline).  Filled per case; evaluate_case
    # overrides it with the measured To.
    nominal_baseline_us = None

    def build(self, env):
        """Construct the scenario (override)."""
        raise NotImplementedError

    def make_policy(self, solution, baseline_us):
        """Instantiate the policy object for a solution mode."""
        if solution in (Solution.NO_INTERFERENCE, Solution.NONE, Solution.PBOX):
            return SolutionPolicy()
        if solution is Solution.CGROUP:
            return CgroupPolicy()
        if solution is Solution.PARTIES:
            slo = {}
            if baseline_us:
                slo = {"victim": baseline_us * 1.5}
            return PartiesPolicy(slo_by_group=slo)
        if solution is Solution.RETRO:
            baselines = {}
            if baseline_us:
                baselines = {"victim": baseline_us}
            return RetroPolicy(baseline_by_group=baselines)
        if solution is Solution.DARC:
            return DarcPolicy()
        raise ValueError("unknown solution %r" % (solution,))


class CaseRun:
    """Raw result of one simulation run of a case."""

    def __init__(self, case, solution, victim_mean_us, victim_p95_us,
                 noisy_mean_us, manager, runtime, env):
        self.case = case
        self.solution = solution
        self.victim_mean_us = victim_mean_us
        self.victim_p95_us = victim_p95_us
        self.noisy_mean_us = noisy_mean_us
        self.manager = manager
        self.runtime = runtime
        self.env = env

    def __repr__(self):
        return "CaseRun(case=%s, solution=%s, victim_mean_us=%.0f)" % (
            self.case.case_id,
            self.solution.value,
            self.victim_mean_us,
        )


def run_case(case, solution, seed=1, baseline_us=None, duration_s=None,
             penalty_engine=None, call_filter=None, isolation_level=None,
             observer=None, driver=None):
    """Run ``case`` once under ``solution`` and return a :class:`CaseRun`.

    ``penalty_engine`` (Table 4), ``call_filter`` (Section 6.8), and
    ``isolation_level`` (Figure 15) expose the knobs the sensitivity
    experiments vary.  ``observer(env)``, called after the environment
    is assembled but before the case builds, is the attachment point for
    observability (tracepoint subscribers, metrics registries): it may
    subscribe to ``env.kernel.trace`` and set ``env.metrics`` /
    ``env.telemetry``.  ``driver(env)``, when given, replaces the
    single ``kernel.run`` call and owns advancing the simulation to
    ``env.duration_us`` -- the ``repro watch`` live view uses it to
    step the kernel in window-sized increments and render between
    steps.  The kernel runs the case's scheduler policy (``case.sched``,
    default ``"cfs"``).
    """
    kernel = Kernel(cores=case.cores, seed=seed, sched=case.sched)
    pbox_on = solution is Solution.PBOX
    manager = PBoxManager(kernel, enabled=pbox_on,
                          penalty_engine=penalty_engine)
    runtime = PBoxRuntime(
        manager,
        costs=OperationCosts(),
        call_filter=call_filter,
        enabled=pbox_on,
    )
    duration_us = seconds(duration_s if duration_s is not None else case.duration_s)
    policy = case.make_policy(solution, baseline_us or case.nominal_baseline_us)
    policy.attach(kernel)
    env = CaseEnv(
        kernel,
        runtime,
        policy,
        duration_us,
        seconds(case.warmup_s),
        seed,
    )
    env.interference = solution is not Solution.NO_INTERFERENCE
    env.nominal_us = baseline_us or case.nominal_baseline_us
    if isolation_level is not None:
        env.isolation_level = isolation_level
    if observer is not None:
        observer(env)
    case.build(env)
    env.finalize()
    if driver is None:
        kernel.run(until_us=duration_us)
    else:
        driver(env)
    if env.telemetry is not None:
        env.telemetry.finalize(kernel.now_us)

    victim_samples = []
    for recorder in env.victim_recorders:
        victim_samples.extend(recorder.samples_us)
    if not victim_samples:
        raise RuntimeError(
            "case %s produced no victim samples under %s"
            % (case.case_id, solution.value)
        )
    victim_mean = sum(victim_samples) / len(victim_samples)
    ordered = sorted(victim_samples)
    victim_p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
    noisy_samples = []
    for recorder in env.noisy_recorders:
        noisy_samples.extend(recorder.samples_us)
    noisy_mean = (
        sum(noisy_samples) / len(noisy_samples) if noisy_samples else None
    )
    return CaseRun(case, solution, victim_mean, victim_p95, noisy_mean,
                   manager, runtime, env)


class CaseEvaluation:
    """Aggregated To/Ti/Ts metrics for one case (Section 6.2 math)."""

    def __init__(self, case, baseline, interference, solution_runs):
        self.case = case
        self.baseline = baseline            # CaseRun (To)
        self.interference = interference    # CaseRun (Ti)
        self.solution_runs = solution_runs  # {Solution: CaseRun}

    @property
    def to_us(self):
        """Interference-free victim latency To."""
        return self.baseline.victim_mean_us

    @property
    def ti_us(self):
        """Victim latency under interference Ti."""
        return self.interference.victim_mean_us

    def ts_us(self, solution):
        """Victim latency under ``solution``."""
        return self.solution_runs[solution].victim_mean_us

    @property
    def interference_level(self):
        """p = Ti/To - 1."""
        return self.ti_us / self.to_us - 1.0

    def reduction_ratio(self, solution):
        """r = (Ti - Ts)/(Ti - To) for ``solution``."""
        return reduction_ratio(self.ti_us, self.ts_us(solution), self.to_us)

    def normalized_latency(self, solution):
        """Ts / Ti: the Figure 11 normalization (< 1 means mitigated)."""
        return self.ts_us(solution) / self.ti_us

    def normalized_tail(self, solution):
        """p95(Ts) / p95(Ti): the Figure 12 normalization."""
        return (
            self.solution_runs[solution].victim_p95_us
            / self.interference.victim_p95_us
        )


def evaluate_case(case, solutions=(Solution.PBOX,), seed=1, duration_s=None):
    """Measure To, Ti, and Ts for every requested solution.

    The measured To feeds the PARTIES SLO and the Retro slowdown
    baseline, exactly as those systems would be configured by an
    operator who knows the service's normal latency.
    """
    baseline = run_case(case, Solution.NO_INTERFERENCE, seed=seed,
                        duration_s=duration_s)
    interference = run_case(case, Solution.NONE, seed=seed,
                            duration_s=duration_s)
    runs = {}
    for solution in solutions:
        runs[solution] = run_case(
            case,
            solution,
            seed=seed,
            baseline_us=baseline.victim_mean_us,
            duration_s=duration_s,
        )
    return CaseEvaluation(case, baseline, interference, runs)
