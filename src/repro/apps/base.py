"""Shared plumbing for the application models.

Two pieces every model uses:

- :class:`Instrumentation`: thin wrapper over the pBox runtime that
  application code calls at the state-event points (the moral equivalent
  of the ``update_pbox`` calls developers add, Figure 9).  It also offers
  ``acquire_*`` helpers that bundle PREPARE -> wait -> ENTER+HOLD around
  the simulator's blocking primitives, since that is by far the most
  common annotation pattern.
- :class:`Connection`: the per-client activity boundary.  ``open``
  creates the connection's pBox (like ``do_handle_one_connection`` in
  Figure 8), ``execute`` wraps each request in activate/freeze (like
  ``do_command``), and ``close`` releases the pBox.
"""

from repro.core.events import ENTER, HOLD, PREPARE, UNHOLD
from repro.core.rules import IsolationRule


class AppConfig:
    """Base class for per-application tuning knobs.

    Subclasses are plain attribute bags; keeping them as classes (rather
    than dicts) documents every knob and gives tests something to vary.
    """

    isolation_level = 50  # paper default for the evaluation (Section 6.2)

    def make_rule(self):
        """Isolation rule for connection pBoxes."""
        return IsolationRule(isolation_level=self.isolation_level)


class Instrumentation:
    """State-event annotations bound to one pBox runtime.

    All methods are safe to call on a disabled runtime (they become
    no-ops), which is how the "vanilla" builds used for baseline
    measurements run the exact same application code.
    """

    def __init__(self, runtime):
        self.runtime = runtime
        kernel = runtime.kernel
        self._kernel = kernel
        # Application-side virtual-resource tracepoints: acquire maps to
        # PREPARE, hold to HOLD, release to UNHOLD (ENTER needs no own
        # point -- it closes the acquire started by PREPARE).
        self._tp_acquire = kernel.trace.point("vres.acquire")
        self._tp_hold = kernel.trace.point("vres.hold")
        self._tp_release = kernel.trace.point("vres.release")

    def _fire(self, tp, key):
        kernel = self._kernel
        thread = kernel.current_thread
        tp.fire(kernel.now_us, key=key,
                tid=None if thread is None else thread.tid)

    # -- raw state events ------------------------------------------------

    def prepare(self, key):
        """The current pBox starts being deferred by ``key``."""
        if self._tp_acquire.active:
            self._fire(self._tp_acquire, key)
        self.runtime.update_pbox(key, PREPARE)

    def enter(self, key):
        """The current pBox is no longer deferred by ``key``."""
        self.runtime.update_pbox(key, ENTER)

    def hold(self, key):
        """The current pBox is holding ``key``."""
        if self._tp_hold.active:
            self._fire(self._tp_hold, key)
        self.runtime.update_pbox(key, HOLD)

    def unhold(self, key):
        """The current pBox released ``key``."""
        if self._tp_release.active:
            self._fire(self._tp_release, key)
        self.runtime.update_pbox(key, UNHOLD)

    # -- bundled patterns -------------------------------------------------

    def acquire_mutex(self, mutex):
        """PREPARE -> lock -> ENTER + HOLD around a mutex."""
        self.prepare(mutex)
        yield from mutex.acquire()
        self.enter(mutex)
        self.hold(mutex)

    def release_mutex(self, mutex):
        """Release a mutex and signal UNHOLD."""
        mutex.release()
        self.unhold(mutex)

    def acquire_shared(self, rwlock):
        """Annotated shared acquisition of an RWLock."""
        self.prepare(rwlock)
        yield from rwlock.acquire_shared()
        self.enter(rwlock)
        self.hold(rwlock)

    def release_shared(self, rwlock):
        """Release a shared hold and signal UNHOLD."""
        rwlock.release_shared()
        self.unhold(rwlock)

    def acquire_exclusive(self, rwlock):
        """Annotated exclusive acquisition of an RWLock."""
        self.prepare(rwlock)
        yield from rwlock.acquire_exclusive()
        self.enter(rwlock)
        self.hold(rwlock)

    def release_exclusive(self, rwlock):
        """Release an exclusive hold and signal UNHOLD."""
        rwlock.release_exclusive()
        self.unhold(rwlock)

    def acquire_semaphore(self, semaphore, n=1):
        """Annotated acquisition of ``n`` semaphore units."""
        self.prepare(semaphore)
        yield from semaphore.acquire(n)
        self.enter(semaphore)
        self.hold(semaphore)

    def release_semaphore(self, semaphore, n=1):
        """Return semaphore units and signal UNHOLD."""
        semaphore.release(n)
        self.unhold(semaphore)


class Connection:
    """One client connection: the pBox activity boundary (Figure 8).

    Subclasses implement ``_handle(request)`` as a generator performing
    the application work for one request.

    ``rule`` overrides the isolation rule for this connection's pBox;
    by default the app config's rule applies.  Passing a loose
    (background-style) rule lets a case model batch clients -- an
    analytics connection, say -- whose pBox should be blamable as an
    aggressor but not protected as a victim.
    """

    def __init__(self, app, name, rule=None):
        self.app = app
        self.name = name
        self.rule = rule
        self.psid = None

    @property
    def runtime(self):
        """The pBox runtime linked into the application."""
        return self.app.runtime

    @property
    def instr(self):
        """The application's :class:`Instrumentation` helper."""
        return self.app.instr

    def open(self):
        """Create this connection's pBox (bound to the calling thread)."""
        rule = self.rule if self.rule is not None else (
            self.app.config.make_rule())
        self.psid = self.runtime.create_pbox(rule)
        yield from self._on_open()

    def _on_open(self):
        """Hook for subclass setup; default does nothing."""
        return
        yield  # pragma: no cover - makes this a generator

    def execute(self, request):
        """Handle one request inside an activate/freeze window."""
        self.runtime.activate_pbox(self.psid)
        result = yield from self._handle(request)
        self.runtime.freeze_pbox(self.psid)
        return result

    def _handle(self, request):
        """Application-specific request handling (override)."""
        raise NotImplementedError

    def close(self):
        """Release the connection's pBox."""
        yield from self._on_close()
        if self.psid is not None:
            self.runtime.release_pbox(self.psid)
            self.psid = None

    def _on_close(self):
        """Hook for subclass teardown; default does nothing."""
        return
        yield  # pragma: no cover - makes this a generator
