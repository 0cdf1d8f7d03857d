"""Isolation rules: the developer-specified performance isolation goals.

A rule expresses *how much interference an activity may tolerate* rather
than a resource quota.  The main rule type is RELATIVE: "this pBox's
latency must not be more than X% worse than its interference-free
latency".  Because the interference-free baseline is unknown at runtime,
the manager treats an ideal execution as one with zero deferring time and
compares the measured interference level ``Tf = Td / (Te - Td)`` against
the goal (Section 4.3.1).
"""

import enum


class RuleType(enum.Enum):
    """Kinds of isolation rules supported by the manager."""

    RELATIVE = "relative"


class Metric(enum.Enum):
    """Which statistic of the interference level the rule constrains."""

    AVERAGE = "average"
    TAIL = "tail"      # 95th percentile over the activity history
    MAX = "max"


#: The members as module names, the same objects (see
#: ``repro.sim.thread``).
AVERAGE, TAIL, MAX = Metric


class IsolationRule:
    """A performance isolation goal attached to a pBox at creation.

    Parameters
    ----------
    isolation_level:
        Tolerated relative slowdown in percent.  ``50`` means execution
        latency may be at most 50% worse than the interference-free
        latency (the paper's default for the evaluation).
    rule_type:
        Only :attr:`RuleType.RELATIVE` is defined by the paper.
    metric:
        Statistic used for the pBox-level (cross-activity) check.
    """

    def __init__(self, isolation_level=50, rule_type=RuleType.RELATIVE,
                 metric=Metric.AVERAGE):
        if isolation_level <= 0:
            raise ValueError("isolation_level must be a positive percentage")
        self.isolation_level = isolation_level
        self.rule_type = rule_type
        self.metric = metric

    @property
    def goal(self):
        """The goal as a fraction: interference level lambda.

        A pBox violates its rule when ``Td / (Te - Td) > goal``.
        """
        return self.isolation_level / 100.0

    @property
    def goal_defer_ratio(self):
        """The goal converted to defer-ratio space ``s = Td / Te``.

        ``Tf = Td/(Te-Td) = s/(1-s)``, hence ``Tf = lambda`` corresponds
        to ``s = lambda / (1 + lambda)``.  The gap-based adaptive penalty
        policy works in s-space (Section 4.4.2) and needs this form.
        """
        goal = self.goal
        return goal / (1.0 + goal)

    def to_dict(self):
        """JSON-safe representation (checkpoint / hot-reload payloads)."""
        return {
            "isolation_level": self.isolation_level,
            "rule_type": self.rule_type.value,
            "metric": self.metric.value,
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a rule from :meth:`to_dict` output."""
        return cls(
            isolation_level=data["isolation_level"],
            rule_type=RuleType(data["rule_type"]),
            metric=Metric(data["metric"]),
        )

    def same_as(self, other):
        """True when ``other`` expresses the identical isolation goal.

        Deliberately not ``__eq__``: rules are used as plain objects
        (occasionally in identity-keyed maps) and must stay hashable by
        identity.  The hot-reload path uses this to detect that a
        swapped-in rule set is a pure no-op.
        """
        return (isinstance(other, IsolationRule)
                and self.isolation_level == other.isolation_level
                and self.rule_type is other.rule_type
                and self.metric is other.metric)

    def __repr__(self):
        return "IsolationRule(type=%s, isolation_level=%d%%, metric=%s)" % (
            self.rule_type.value,
            self.isolation_level,
            self.metric.value,
        )
