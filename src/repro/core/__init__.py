"""pBox: the paper's primary contribution.

This package implements the pBox abstraction of Hu, Huang & Huang (SOSP
2023): performance-isolation domains inside an application.  It contains

- the developer-facing APIs of Figure 7 (:mod:`repro.core.api`,
  :mod:`repro.core.runtime`),
- the four state events of Table 1 (:mod:`repro.core.events`),
- isolation rules / goals (:mod:`repro.core.rules`),
- the kernel-side manager running the interference-detection Algorithm 1
  (:mod:`repro.core.manager`), and
- the adaptive penalty machinery of Section 4.4 (:mod:`repro.core.penalty`).
"""

from repro.core.events import StateEvent
from repro.core.pbox import PBox, PBoxStatus
from repro.core.rules import IsolationRule, RuleType
from repro.core.penalty import (
    AdaptivePenalty,
    FixedPenalty,
    PenaltyDecision,
    PenaltyPolicy,
)
from repro.core.manager import PBoxManager
from repro.core.runtime import BindFlag, OperationCosts, PBoxRuntime

__all__ = [
    "AdaptivePenalty",
    "BindFlag",
    "FixedPenalty",
    "IsolationRule",
    "OperationCosts",
    "PBox",
    "PBoxManager",
    "PBoxRuntime",
    "PBoxStatus",
    "PenaltyDecision",
    "PenaltyPolicy",
    "RuleType",
    "StateEvent",
]
