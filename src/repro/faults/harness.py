"""The chaos harness: one object wiring faults into one case run.

``ChaosHarness.observer`` plugs into :func:`repro.cases.run_case`'s
``observer`` hook: once the environment is assembled (kernel, runtime,
timing) but before the case builds, it derives the fault plan from the
chaos seed, arms the injector and the idle watchdog, and attaches the
invariant suite.  After the run, :meth:`finish` folds everything into
one JSON-safe dict.

Nothing in the harness output depends on wall-clock time or process
identity, so a chaos result is bit-identical across re-runs and safe to
content-address in the runner cache.
"""

from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantSuite
from repro.faults.plan import FaultPlan
from repro.sim.kernel import IdleWatchdog

#: Faults are planned inside [warmup + slack, 0.9 * duration]: late
#: enough that victims have produced samples (run_case rejects empty
#: recorders), early enough that recovery has time to play out before
#: the deadline.
WINDOW_SLACK_FRACTION = 0.1
WINDOW_END_FRACTION = 0.9


class ChaosHarness:
    """Fault plan + injector + invariants + watchdog for one run.

    The plan carries :meth:`FaultPlan.generate`'s default count of
    faults per kind, and the watchdog ticks at
    :class:`~repro.sim.kernel.IdleWatchdog`'s default period.
    """

    def __init__(self, kinds, seed, case_id=None):
        self.kinds = tuple(kinds)
        self.seed = int(seed)
        self.case_id = case_id
        self.suite = InvariantSuite()
        self.plan = None
        self.injector = None
        self.watchdog = None
        self._env = None

    @property
    def attached(self):
        """True once ``observer`` has run (the run actually started)."""
        return self._env is not None

    def observer(self, env):
        """``run_case`` observer: arm everything against ``env``."""
        self._env = env
        kernel = env.kernel
        manager = env.runtime.manager
        window = env.duration_us - env.warmup_us
        start_us = env.warmup_us + int(window * WINDOW_SLACK_FRACTION)
        end_us = int(env.duration_us * WINDOW_END_FRACTION)
        self.plan = FaultPlan.generate(
            self.kinds, seed=self.seed, start_us=start_us, end_us=end_us)
        self.injector = FaultInjector(kernel, manager=manager)
        self.injector.arm(self.plan)
        self.watchdog = IdleWatchdog(kernel,
                                     on_deadlock=self.suite.on_deadlock)
        self.watchdog.arm(env.duration_us)
        self.suite.attach(kernel, manager)

    def record_failure(self, exc):
        """The run itself raised: containment failed, record it."""
        now = 0 if self._env is None else self._env.kernel.clock.now_us
        self.suite.record("run-completes", now, repr(exc))

    def finish(self):
        """Close the audit and return the JSON-safe chaos summary."""
        env = self._env
        if env is None:
            return {"violations": [], "plan": None, "fired": [],
                    "skipped": [], "watchdog": None, "heal": {},
                    "crashes": 0}
        violations = self.suite.finish(env.duration_us)
        manager = env.runtime.manager
        heal = {
            key: manager.stats.get(key, 0)
            for key in ("penalty_backoffs", "safe_mode_releases",
                        "penalty_clamped", "penalty_reverts")
        }
        return {
            "violations": [self._decorate(v) for v in violations],
            "plan": self.plan.to_dict(),
            "fired": list(self.injector.fired),
            "skipped": list(self.injector.skipped),
            "watchdog": self.watchdog.stats(),
            "heal": heal,
            "crashes": env.kernel.stats.get("crashes", 0),
        }

    def _decorate(self, violation):
        """Violation dict + the minimized repro spec.

        ``repro`` is everything needed to replay the failure in one
        process: the case, the chaos seed, the fault cocktail, and the
        last fault that fired at or before the violation (usually the
        trigger).
        """
        entry = violation.to_dict()
        nearest = None
        for record in self.injector.fired:
            if record["at_us"] <= violation.time_us:
                nearest = record
        entry["repro"] = {
            "case": self.case_id,
            "seed": self.seed,
            "faults": ",".join(self.kinds),
            "nearest_fault": nearest,
        }
        return entry
