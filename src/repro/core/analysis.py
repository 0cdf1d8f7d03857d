"""Analytical models of interference and penalties (the paper's §7).

The paper closes with "a related area of improvement is to provide a
more rigorous analysis of the pBox's actions, such as applying queuing
theory."  This module supplies that analysis for the paper's own
"simple but representative interference model" -- one noisy and one
victim pBox sharing a single virtual resource -- and derives:

- the victim's expected wait under renewal-reward reasoning (a noisy
  activity holds the resource for ``hold_us`` out of every
  ``period_us``; a victim arriving uniformly at random waits the
  residual hold time with probability hold/period);
- the victim's interference level as a function of the penalty length
  added to the noisy pBox's period;
- the penalty length that meets a given isolation goal, and the
  optimal single-step penalty that the paper's p1 formula
  ``p1 = sqrt(td * te) - te`` approximates.

The predictions are validated against the discrete-event simulator in
``tests/test_core_analysis.py``: the closed forms land within a few
percent of measured latencies across a parameter sweep, which is what
makes the adaptive engine's convergence behaviour explainable rather
than empirical.
"""

import math

#: :func:`predict_equilibrium_penalty` stops once the bracket is this
#: close, relative to its upper end, or after this many halvings.
BISECTION_TOLERANCE = 0.01
BISECTION_MAX_ITERATIONS = 64


class SingleResourceModel:
    """The paper's one-noisy/one-victim model, solved in closed form.

    Parameters
    ----------
    hold_us:
        How long the noisy activity holds the resource per cycle.
    gap_us:
        The noisy activity's own off-resource time per cycle (think
        time, other work) before it re-acquires.
    victim_service_us:
        The victim activity's resource-free execution time per request
        (its interference-free latency, To).
    """

    def __init__(self, hold_us, gap_us, victim_service_us):
        if hold_us <= 0 or gap_us < 0 or victim_service_us <= 0:
            raise ValueError("model parameters must be positive")
        self.hold_us = hold_us
        self.gap_us = gap_us
        self.victim_service_us = victim_service_us

    # -- no-penalty predictions ------------------------------------------

    def duty_cycle(self, penalty_us=0):
        """Fraction of time the noisy pBox holds the resource."""
        period = self.hold_us + self.gap_us + penalty_us
        return self.hold_us / period

    def expected_wait_us(self, penalty_us=0):
        """Victim's mean wait for the resource (renewal-reward).

        A victim arriving uniformly at random hits the hold window with
        probability ``duty`` and then waits the mean residual of the
        (deterministic) hold, ``hold/2``.
        """
        return self.duty_cycle(penalty_us) * self.hold_us / 2.0

    def victim_latency_us(self, penalty_us=0):
        """Victim's predicted mean latency under the model."""
        return self.victim_service_us + self.expected_wait_us(penalty_us)

    def interference_level(self, penalty_us=0):
        """Predicted ``tf = Td / (Te - Td)`` for the victim."""
        wait = self.expected_wait_us(penalty_us)
        return wait / self.victim_service_us

    # -- penalty design ----------------------------------------------------

    def penalty_for_goal(self, goal):
        """Penalty length that brings the victim's tf down to ``goal``.

        Solves ``duty(p) * hold/2 = goal * service`` for p; returns 0
        when the goal already holds without intervention.
        """
        if goal <= 0:
            raise ValueError("goal must be positive")
        target_wait = goal * self.victim_service_us
        if self.expected_wait_us(0) <= target_wait:
            return 0
        # duty(p) = hold / (hold + gap + p); wait = duty * hold / 2.
        period_needed = self.hold_us * self.hold_us / (2.0 * target_wait)
        penalty = period_needed - self.hold_us - self.gap_us
        return max(0.0, penalty)

    def paper_p1(self, victim_defer_us, noisy_exec_us):
        """The paper's initial-penalty formula for comparison.

        ``p1 = sqrt(td(victim) * te(noisy)) - te(noisy)``; the formula
        targets the same regime as :meth:`penalty_for_goal` -- making
        the noisy period long enough that the victim's deferring time
        is amortized -- and this method exposes it so tests can check
        that it lands within the right order of magnitude of the exact
        solution.
        """
        return math.sqrt(victim_defer_us * noisy_exec_us) - noisy_exec_us

    def reduction_ratio(self, penalty_us):
        """Predicted interference reduction ratio r for a penalty."""
        without = self.expected_wait_us(0)
        if without == 0:
            return 0.0
        with_penalty = self.expected_wait_us(penalty_us)
        return (without - with_penalty) / without

    def noisy_slowdown(self, penalty_us):
        """Relative slowdown imposed on the noisy activity itself."""
        period = self.hold_us + self.gap_us
        return penalty_us / period


def predict_equilibrium_penalty(model, goal):
    """Bisection on the model: the smallest penalty meeting ``goal``.

    Equivalent to :meth:`SingleResourceModel.penalty_for_goal` but
    computed numerically; exists so tests can cross-validate the closed
    form and so subclasses with non-deterministic holds can reuse it.
    """
    if model.interference_level(0) <= goal:
        return 0.0
    low, high = 0.0, model.hold_us
    while model.interference_level(high) > goal:
        high *= 2
        if high > 1e12:
            raise RuntimeError("goal unreachable under this model")
    for _ in range(BISECTION_MAX_ITERATIONS):
        mid = (low + high) / 2
        if model.interference_level(mid) > goal:
            low = mid
        else:
            high = mid
        if high - low <= BISECTION_TOLERANCE * max(high, 1.0):
            break
    return high
