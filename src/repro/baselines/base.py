"""The solution-policy interface the case harness drives.

A policy sees three things:

- thread creation: every simulated thread a case spawns is labelled with
  a *group* (a workload class: one per client type plus one for
  background tasks, mirroring how the paper's scripts classified threads
  for cgroup/PARTIES); ``thread_options`` lets the policy attach a
  cgroup or core affinity;
- request boundaries: ``before_request`` is a generator driven right
  before each request (admission control / tagging) and
  ``after_request`` observes completion latencies;
- ``finalize`` runs once after the case is built so the policy can size
  quotas and start its control loop.
"""


class SolutionPolicy:
    """Base policy: does nothing (used for the vanilla runs)."""

    name = "none"

    def __init__(self):
        self.kernel = None

    def attach(self, kernel):
        """Give the policy access to the kernel (called by the harness)."""
        self.kernel = kernel

    def thread_options(self, group, role):
        """Return kwargs for ``kernel.spawn`` (cgroup / affinity)."""
        return {}

    def finalize(self, groups):
        """Called once all threads are spawned; ``groups`` is the set of
        group labels seen.  Policies size quotas / start control loops
        here."""

    def before_request(self, ctx, request):
        """Generator driven before each request; default no-op."""
        return
        yield  # pragma: no cover - keeps this a generator

    def after_request(self, ctx, request, latency_us):
        """Observe a completed request (latency in microseconds)."""


class RequestContext:
    """Per-client context handed to policy request hooks."""

    __slots__ = ("group", "client_name", "victim")

    def __init__(self, group, client_name, victim=False):
        self.group = group
        self.client_name = client_name
        self.victim = victim

    def __repr__(self):
        return "RequestContext(group=%r, client=%r, victim=%r)" % (
            self.group,
            self.client_name,
            self.victim,
        )
