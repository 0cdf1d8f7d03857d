"""The run supervisor: checkpoint, detect failure, resume, converge.

:class:`RunSupervisor` wraps a case or chaos job with the checkpointing
driver: worker crashes surface as :class:`~repro.ckpt.driver.WorkerKilled`
carrying the last good checkpoint, and invariant violations are read
off the attached chaos harness.  On failure the supervisor resumes from the last good
checkpoint (store pointer or the exception's own payload) instead of
rerunning from zero, up to ``max_resumes`` times.

Because restore is replay-verified, a supervised run's outputs are
byte-identical to an unsupervised one: the golden document matches, and
for chaos jobs the result dict comes from the runner's own builder
(:func:`~repro.runner.runner.job_result`), so the CHAOS.json entry
digest is the same bytes -- the crash-resume suite asserts exactly
that.
"""

from repro.ckpt.driver import CADENCE_US, WorkerKilled
from repro.ckpt.restore import RestoreMismatch, checkpoint_run, resume_case
from repro.runner.runner import job_result


class SupervisorGaveUp(RuntimeError):
    """The resume budget ran out; carries the last failure."""

    def __init__(self, case_id, resumes, last_error):
        super().__init__(
            "supervised run of %s gave up after %d resume(s): %s"
            % (case_id, resumes, last_error))
        self.case_id = case_id
        self.resumes = resumes
        self.last_error = last_error


class RunSupervisor:
    """Supervise case/chaos jobs with checkpointed resume.

    Parameters
    ----------
    store:
        :class:`~repro.ckpt.snapshot.CheckpointStore` the driver saves
        into and the resume path reads from.
    cadence_us:
        Checkpoint cadence in virtual microseconds.
    max_resumes:
        Resume attempts before :class:`SupervisorGaveUp`.
    """

    def __init__(self, store, cadence_us=CADENCE_US, max_resumes=3):
        self.store = store
        self.cadence_us = cadence_us
        self.max_resumes = max_resumes

    def run(self, case_id, duration_s=None, seed=1, kill_at_us=None,
            faults=None):
        """Run one supervised job; returns the outcome dict.

        The outcome carries ``document`` (golden document of the
        completed stream), ``run``, ``harness`` (chaos runs),
        ``resumes`` (how many restore cycles happened) and
        ``violations`` (invariant violations the harness recorded).
        ``kill_at_us`` injects a crash on the *first* attempt only --
        the resume replays cleanly, exactly like a real crashed worker
        restarted without the fault.
        """
        resumes = 0
        last_error = None
        outcome = None
        attempt_kill = kill_at_us
        while True:
            try:
                if resumes == 0:
                    outcome = checkpoint_run(
                        case_id, duration_s=duration_s, seed=seed,
                        cadence_us=self.cadence_us, store=self.store,
                        kill_at_us=attempt_kill, faults=faults)
                else:
                    checkpoint = self._checkpoint_for(last_error, case_id)
                    if checkpoint is None:
                        # Nothing to resume from (crash before the first
                        # barrier): replay is simply a clean full run.
                        outcome = checkpoint_run(
                            case_id, duration_s=duration_s, seed=seed,
                            cadence_us=self.cadence_us, store=self.store,
                            faults=faults)
                    else:
                        outcome = resume_case(checkpoint)
                break
            except (WorkerKilled, RestoreMismatch) as exc:
                last_error = exc
                resumes += 1
                attempt_kill = None
                if resumes > self.max_resumes:
                    raise SupervisorGaveUp(case_id, resumes - 1, exc)
        outcome = dict(outcome)
        outcome["resumes"] = resumes
        outcome["violations"] = self._violations(outcome.get("harness"))
        return outcome

    def _checkpoint_for(self, error, case_id):
        """Last good checkpoint: the exception's own, else the store's."""
        checkpoint = getattr(error, "checkpoint", None)
        if checkpoint is not None:
            return checkpoint
        if self.store is not None:
            return self.store.latest(case_id)
        return None

    @staticmethod
    def _violations(harness):
        if harness is None or harness.suite is None:
            return []
        return list(getattr(harness.suite, "violations", []))

    def chaos_result(self, outcome):
        """The runner's result dict for a supervised outcome.

        Built by :func:`~repro.runner.runner.job_result`, the same
        function an unsupervised worker uses, so
        :func:`repro.faults.chaos.entry_digest` over this dict equals
        the digest of an unsupervised worker's result -- the
        crash-resume byte-identity contract.
        """
        return job_result(outcome["run"], outcome["harness"])
