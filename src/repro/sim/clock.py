"""Virtual clock for the simulated kernel.

All simulation time is kept as integer microseconds.  Integer time keeps
heap ordering exact and makes every run deterministic; helpers convert to
and from the units used in the paper (milliseconds and seconds).
"""

US_PER_MS = 1_000
US_PER_SEC = 1_000_000


def ms(value):
    """Convert milliseconds to integer microseconds of virtual time."""
    return int(round(value * US_PER_MS))


def seconds(value):
    """Convert seconds to integer microseconds of virtual time."""
    return int(round(value * US_PER_SEC))


def to_ms(us):
    """Convert integer microseconds to float milliseconds."""
    return us / US_PER_MS


def to_seconds(us):
    """Convert integer microseconds to float seconds."""
    return us / US_PER_SEC


class Clock:
    """Monotonic virtual clock owned by the kernel.

    Only the kernel advances the clock; everything else reads it.  The
    class exists (rather than a bare int) so that components can hold a
    reference and always observe the current time.

    ``now_us`` is a plain attribute, not a property: the kernel event
    loop and every tracepoint firing site read it millions of times per
    simulated second, and the descriptor-protocol overhead of a property
    was measurable in the full-registry sweep.  Treat it as read-only
    outside this class; advancing time goes through :meth:`advance_to`,
    which keeps the monotonicity check.
    """

    __slots__ = ("now_us",)

    def __init__(self):
        self.now_us = 0

    def advance_to(self, when_us):
        """Advance the clock to ``when_us``.

        Raises ``ValueError`` if asked to move backwards, which would
        indicate a scheduling bug in the kernel event loop.
        """
        if when_us < self.now_us:
            raise ValueError(
                "clock cannot move backwards: %d -> %d" % (self.now_us, when_us)
            )
        self.now_us = int(when_us)

    def __repr__(self):
        return "Clock(now_us=%d)" % self.now_us
