"""Penalty engines: how long to delay a noisy pBox (Section 4.4.2).

The manager delays a noisy pBox rather than reallocating the contended
virtual resource (which would risk application correctness).  The length
of that delay is adapted per (noisy pBox, resource) pair:

- **score-based** policy: every action that failed to reduce the victim's
  interference level bumps a score; the next penalty is
  ``p1 * (1 + score / alpha)``.  Converges slowly but safely.
- **gap-based** policy (gradient-descent inspired): scales the previous
  penalty by ``gap / delta`` where ``gap`` is the distance of the
  victim's defer ratio from the goal and ``delta`` the relative change
  the last action achieved.  Converges fast, may overshoot.

The engine dynamically picks the gap-based policy when the victim's
deferring time dwarfs the previous penalty (the penalty is clearly far
from effective), and the score-based policy otherwise.

The initial penalty uses the closed form the paper derives for the
one-noisy/one-victim model::

    p1 = sqrt(td(victim) * te(noisy)) - te(noisy)
"""

import enum
import math

#: An action only counts as effective if it reduced the victim's defer
#: ratio by at least this relative margin; "did not reduce the
#: interference level" includes leaving it unchanged.
SCORE_EPSILON = 0.01


class PenaltyPolicy(enum.Enum):
    """Which adaptive policy produced a decision."""

    INITIAL = "initial"
    SCORE = "score"
    GAP = "gap"
    FIXED = "fixed"


class PenaltyDecision:
    """One penalty decision: length, policy, and bookkeeping for stats."""

    __slots__ = ("length_us", "policy", "time_us", "noisy_psid", "key")

    def __init__(self, length_us, policy, time_us, noisy_psid, key):
        self.length_us = length_us
        self.policy = policy
        self.time_us = time_us
        self.noisy_psid = noisy_psid
        self.key = key

    def __repr__(self):
        return "PenaltyDecision(length_us=%d, policy=%s)" % (
            self.length_us,
            self.policy.value,
        )


class _PairState:
    """Adaptation state for one (noisy psid, resource key) pair."""

    __slots__ = ("p1_us", "last_length_us", "score", "last_ratio", "actions")

    def __init__(self):
        self.p1_us = None
        self.last_length_us = None
        self.score = 0
        self.last_ratio = None
        self.actions = 0


class AdaptivePenalty:
    """The paper's adaptive penalty engine.

    Parameters
    ----------
    alpha:
        Score divisor of the score-based policy (paper default 5).
    gap_policy_factor:
        The gap-based policy is chosen when the victim's current defer
        time exceeds ``gap_policy_factor`` times the previous penalty.
    min_penalty_us / max_penalty_us:
        Clamps that keep a single action bounded; the adaptation then
        walks within this envelope.
    """

    def __init__(self, alpha=5, gap_policy_factor=5,
                 min_penalty_us=1_000, max_penalty_us=5_000_000):
        self.alpha = alpha
        self.gap_policy_factor = gap_policy_factor
        self.min_penalty_us = min_penalty_us
        self.max_penalty_us = max_penalty_us
        self._pairs = {}
        self.decisions = []

    def decide(self, now_us, noisy, victim, key, victim_defer_us=None):
        """Compute the next penalty length for ``noisy`` w.r.t. ``key``.

        ``noisy`` and ``victim`` are :class:`~repro.core.pbox.PBox`
        objects; the engine reads the victim's defer ratio ``s`` and the
        current-activity timings it needs for the p1 formula.
        ``victim_defer_us`` is the victim's effective deferring time at
        detection (including a still-open wait, which the pBox's own
        counters cannot see yet).
        """
        state = self._pairs.setdefault((noisy.psid, key), _PairState())
        ratio = self._victim_ratio(victim, now_us)
        if victim_defer_us is None:
            victim_defer_us = victim.defer_time_us

        if state.last_length_us is None:
            length = self._clamp(
                self._initial_penalty(now_us, noisy, victim_defer_us)
            )
            policy = PenaltyPolicy.INITIAL
            state.p1_us = length
        elif self._choose_gap_policy(victim_defer_us, state):
            length = self._gap_based(state, ratio, victim)
            policy = PenaltyPolicy.GAP
        else:
            length = self._score_based(state, ratio)
            policy = PenaltyPolicy.SCORE

        length = self._clamp(length)
        state.last_length_us = length
        state.last_ratio = ratio
        state.actions += 1
        decision = PenaltyDecision(length, policy, now_us, noisy.psid, key)
        self.decisions.append(decision)
        return decision

    # ------------------------------------------------------------------
    # Policies
    # ------------------------------------------------------------------

    def _initial_penalty(self, now_us, noisy, victim_defer_us):
        td_victim = max(victim_defer_us, 1)
        te_noisy = max(noisy.exec_time_us(now_us), 1)
        p1 = math.sqrt(td_victim * te_noisy) - te_noisy
        return p1

    def _score_based(self, state, ratio):
        reduced = (
            state.last_ratio is not None
            and ratio <= state.last_ratio * (1.0 - SCORE_EPSILON)
        )
        if state.last_ratio is not None and not reduced:
            state.score += 1            # last action was ineffective
        elif state.score > 0:
            state.score -= 1
        return state.p1_us * (1.0 + state.score / self.alpha)

    def _gap_based(self, state, ratio, victim):
        goal_ratio = victim.rule.goal_defer_ratio
        gap = ratio - goal_ratio
        if gap <= 0:
            # Already at/below goal; back off toward the minimum.
            return self.min_penalty_us
        if ratio <= 0 or state.last_ratio is None:
            return state.last_length_us
        delta = 1.0 - state.last_ratio / ratio
        if abs(delta) < 1e-6:
            # No measurable change from the last action: grow the step.
            return state.last_length_us * 2
        return state.last_length_us * gap / abs(delta)

    def _choose_gap_policy(self, victim_defer_us, state):
        if state.last_length_us is None:
            return False
        return victim_defer_us > self.gap_policy_factor * state.last_length_us

    # ------------------------------------------------------------------
    # Helpers & statistics
    # ------------------------------------------------------------------

    @staticmethod
    def _victim_ratio(victim, now_us):
        """Victim's defer ratio s = Td / Te including the open activity."""
        td = victim.total_defer_us + victim.defer_time_us
        te = victim.total_exec_us + victim.exec_time_us(now_us)
        if te <= 0:
            return 0.0
        return td / te

    def _clamp(self, length_us):
        return int(min(self.max_penalty_us, max(self.min_penalty_us, length_us)))

    def action_count(self):
        """Total penalty actions decided (Figure 13, top)."""
        return len(self.decisions)

    def lengths_us(self):
        """All decided penalty lengths (Figure 14)."""
        return [d.length_us for d in self.decisions]

    def policy_counts(self):
        """Mapping policy name -> number of decisions (Figure 13)."""
        counts = {}
        for decision in self.decisions:
            counts[decision.policy.value] = counts.get(decision.policy.value, 0) + 1
        return counts

    def convergence_steps(self, tolerance=0.05):
        """Steps until the penalty length reaches a fixed point.

        A fixed point is the first decision after which every subsequent
        length for the same (noisy, key) pair stays within ``tolerance``
        relative distance.  Returns the mean over pairs with >= 2 actions
        (Figure 13, bottom), or 0 when nothing converged.
        """
        by_pair = {}
        for decision in self.decisions:
            by_pair.setdefault((decision.noisy_psid, decision.key), []).append(
                decision.length_us
            )
        steps = []
        for lengths in by_pair.values():
            if len(lengths) < 2:
                continue
            converged_at = len(lengths)
            for i in range(len(lengths) - 1):
                tail = lengths[i:]
                base = tail[0] or 1
                if all(abs(x - base) / base <= tolerance for x in tail):
                    converged_at = i + 1
                    break
            steps.append(converged_at)
        if not steps:
            return 0.0
        return sum(steps) / len(steps)


class FixedPenalty:
    """Fixed-length penalty engine (the Table 4 ablation baseline)."""

    def __init__(self, length_us):
        if length_us <= 0:
            raise ValueError("penalty length must be positive")
        self.length_us = int(length_us)
        self.decisions = []

    def decide(self, now_us, noisy, victim, key, victim_defer_us=None):
        """Always return the fixed length."""
        decision = PenaltyDecision(
            self.length_us, PenaltyPolicy.FIXED, now_us, noisy.psid, key
        )
        self.decisions.append(decision)
        return decision

    def action_count(self):
        """Total penalty actions decided."""
        return len(self.decisions)

    def lengths_us(self):
        """All decided penalty lengths."""
        return [d.length_us for d in self.decisions]

    def policy_counts(self):
        """Mapping policy name -> count (always 'fixed')."""
        return {"fixed": len(self.decisions)} if self.decisions else {}

    def convergence_steps(self, tolerance=0.05):
        """Fixed penalties are trivially converged."""
        return 1.0 if self.decisions else 0.0
