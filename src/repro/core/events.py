"""State events: the four conditions of Table 1.

The paper's key insight is that the wide variety of application virtual
resources (buffers, queues, tickets, logs, custom locks) reduces, for the
purpose of interference detection, to four state events about a resource
identified by an opaque key:

PREPARE  the pBox is deferred by a virtual resource currently held by
         another pBox (it starts waiting);
ENTER    the pBox is no longer deferred by the resource;
HOLD     the pBox is holding the virtual resource;
UNHOLD   the pBox has released the virtual resource.

ENTER and HOLD are distinct because a resource may consist of multiple
parts: an activity can stop being deferred by one part while still not
holding the full resource.
"""

import enum


class StateEvent(enum.Enum):
    """The four state-event types an application reports via update_pbox."""

    PREPARE = "prepare"
    ENTER = "enter"
    HOLD = "hold"
    UNHOLD = "unhold"


#: The members as module names, the same objects (see
#: ``repro.sim.thread``): per-event code compares through these.
PREPARE, ENTER, HOLD, UNHOLD = StateEvent


class CompetitorEntry:
    """One waiter in the competitor map: which pBox, waiting since when.

    Mirrors the ``{p, now}`` tuples Algorithm 1 stores per resource key.
    """

    __slots__ = ("pbox", "time_us")

    def __init__(self, pbox, time_us):
        self.pbox = pbox
        self.time_us = time_us

    def __repr__(self):
        return "CompetitorEntry(pbox=%r, time_us=%d)" % (self.pbox, self.time_us)
