"""The user-level pBox runtime library.

The paper splits pBox between a kernel manager and a user-level library
linked into the application (Section 5).  The library's job is to make
the common path cheap:

- **HOLD/UNHOLD matching**: redundant events (HOLD of an already-held
  key, UNHOLD of a key not held) are filtered in user space and never
  reach the kernel;
- **lazy unbind**: event-driven applications that unbind and immediately
  re-bind the same pBox on the same thread skip both syscalls;
- **per-thread binding** is cached so update_pbox does not need a lookup
  syscall.

Each operation charges a configurable CPU cost to the calling simulated
thread so the end-to-end overhead experiments (Figures 10 and 16) have
something real to measure; the default costs are the paper's measured
per-operation latencies.
"""

import enum

from repro.core.events import ENTER, HOLD, PREPARE, UNHOLD
from repro.core.pbox import ACTIVE


class BindFlag(enum.Enum):
    """Flags for bind_pbox / unbind_pbox (event-driven support)."""

    DEDICATED_THREAD = "dedicated"
    SHARED_THREAD = "shared"


#: The members as module names, the same objects (see
#: ``repro.sim.thread``).
DEDICATED_THREAD, SHARED_THREAD = BindFlag


class OperationCosts:
    """Per-operation CPU costs in nanoseconds.

    Defaults are the measured latencies from Figure 10 of the paper.
    ``syscall_ns`` is added for operations that cross into the kernel and
    saved by the library-side optimizations.
    """

    def __init__(self, create_ns=8_782, release_ns=2_877, activate_ns=421,
                 freeze_ns=458, bind_ns=458, unbind_ns=495,
                 update_ns=364, update_contended_ns=525, library_ns=60):
        self.create_ns = create_ns
        self.release_ns = release_ns
        self.activate_ns = activate_ns
        self.freeze_ns = freeze_ns
        self.bind_ns = bind_ns
        self.unbind_ns = unbind_ns
        self.update_ns = update_ns
        self.update_contended_ns = update_contended_ns
        self.library_ns = library_ns

    @classmethod
    def zero(cls):
        """Costless configuration (for algorithm-focused tests)."""
        return cls(0, 0, 0, 0, 0, 0, 0, 0, 0)


class PBoxRuntime:
    """User-level library instance linked into one application.

    Parameters
    ----------
    manager:
        The kernel-side :class:`~repro.core.manager.PBoxManager`.
    costs:
        Per-operation CPU costs (see :class:`OperationCosts`).
    call_filter:
        Optional ``f(key, event) -> bool``; update_pbox calls for which
        it returns False are dropped *before* any processing.  Used by
        the Section 6.8 mistake-tolerance experiment to emulate missing
        annotations.
    enabled:
        When False the whole library is a no-op (zero cost): this is the
        "vanilla" build used for interference baselines.
    """

    def __init__(self, manager, costs=None, call_filter=None, enabled=True):
        self.manager = manager
        self.kernel = manager.kernel
        self.costs = costs or OperationCosts()
        self.call_filter = call_filter
        self.enabled = enabled
        self._detached = {}       # key -> pBox parked by unbind_pbox
        self._residual_ns = {}    # thread -> fractional cost carry
        self.stats = {
            "update_calls": 0,
            "update_syscalls": 0,
            "saved_syscalls": 0,
            "lazy_rebinds": 0,
        }

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------

    def _charge_ns(self, ns):
        """Charge a nanosecond cost, carrying sub-microsecond residue."""
        if ns <= 0:
            return
        thread = self.kernel.current_thread
        if thread is None:
            return
        total = self._residual_ns.get(thread.tid, 0) + ns
        whole_us, residue = divmod(total, 1_000)
        if whole_us:
            self.kernel.charge_current(whole_us)
        self._residual_ns[thread.tid] = residue

    def _current_pbox(self):
        thread = self.kernel.current_thread
        return None if thread is None else thread.pbox

    # ------------------------------------------------------------------
    # Figure 7 APIs
    # ------------------------------------------------------------------

    def create_pbox(self, rule):
        """Create a pBox bound to the current thread; returns its psid."""
        if not self.enabled:
            return -1
        self._charge_ns(self.costs.create_ns)
        pbox = self.manager.create(rule)
        return pbox.psid

    def release_pbox(self, psid):
        """Destroy the pBox identified by ``psid``."""
        if not self.enabled:
            return
        self._charge_ns(self.costs.release_ns)
        pbox = self.manager.get(psid)
        if pbox is not None:
            self.manager.release(pbox)
            # Drop any parked (unbound) reference so a later bind_pbox
            # cannot resurrect a destroyed pBox.
            self._detached = {
                key: parked
                for key, parked in self._detached.items()
                if parked is not pbox
            }

    def get_current_pbox(self):
        """psid of the pBox bound to the current thread (-1 if none)."""
        if not self.enabled:
            return -1
        pbox = self._current_pbox()
        return -1 if pbox is None else pbox.psid

    def activate_pbox(self, psid=None):
        """Begin an activity (start tracing) in the given/current pBox."""
        if not self.enabled:
            return
        self._charge_ns(self.costs.activate_ns)
        pbox = self._resolve(psid)
        if pbox is not None:
            self.manager.activate(pbox)

    def freeze_pbox(self, psid=None):
        """End the current activity (stop tracing)."""
        if not self.enabled:
            return
        self._charge_ns(self.costs.freeze_ns)
        pbox = self._resolve(psid)
        if pbox is not None:
            self.manager.freeze(pbox)

    def update_pbox(self, key, event):
        """Report a state event about virtual resource ``key``.

        Library-side filtering (Section 5): redundant HOLD/UNHOLD pairs
        and ENTER-without-PREPARE are answered without a kernel crossing.
        """
        if not self.enabled:
            return
        if self.call_filter is not None and not self.call_filter(key, event):
            return
        self.stats["update_calls"] += 1
        pbox = self._current_pbox()
        if pbox is None or pbox.detached:
            return
        if pbox.status is not ACTIVE and (event is PREPARE
                                          or event is ENTER):
            # Tracing only runs while active (Section 4.3.2); holder
            # bookkeeping still matters for safe penalty timing.
            self._charge_ns(self.costs.library_ns)
            return
        if event is HOLD and key in pbox.holders:
            self.stats["saved_syscalls"] += 1
            self._charge_ns(self.costs.library_ns)
            return
        if event is UNHOLD and key not in pbox.holders:
            self.stats["saved_syscalls"] += 1
            self._charge_ns(self.costs.library_ns)
            return
        contended = self.manager.contended(key)
        self._charge_ns(
            self.costs.update_contended_ns if contended else self.costs.update_ns
        )
        self.stats["update_syscalls"] += 1
        self.manager.update(pbox, key, event)

    def unbind_pbox(self, key, flags=BindFlag.DEDICATED_THREAD):
        """Detach the current thread's pBox and park it under ``key``.

        Implements the lazy-unbind optimization: the pBox is only marked
        detached in the library; the kernel unbind happens if a
        *different* pBox is bound to this thread later.
        """
        if not self.enabled:
            return -1
        pbox = self._current_pbox()
        if pbox is None:
            return -1
        self._charge_ns(self.costs.library_ns)
        pbox.detached = True
        pbox.shared_thread = flags is SHARED_THREAD
        self._detached[key] = pbox
        return pbox.psid

    def bind_pbox(self, key, flags=BindFlag.DEDICATED_THREAD):
        """Bind the pBox parked under ``key`` to the current thread."""
        if not self.enabled:
            return -1
        pbox = self._detached.get(key)
        if pbox is None:
            return -1
        thread = self.kernel.current_thread
        current = self._current_pbox()
        if current is pbox and pbox.detached:
            # Lazy path: same pBox, same thread -- no kernel crossing.
            pbox.detached = False
            self.stats["lazy_rebinds"] += 1
            self._charge_ns(self.costs.library_ns)
        else:
            self._charge_ns(self.costs.unbind_ns)
            self._charge_ns(self.costs.bind_ns)
            pbox.detached = False
            self.manager.bind(
                pbox, thread, shared=flags is SHARED_THREAD
            )
        del self._detached[key]
        return pbox.psid

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _resolve(self, psid):
        if psid is None:
            return self._current_pbox()
        return self.manager.get(psid)

    def syscall_savings(self):
        """Fraction of update calls answered without a kernel crossing."""
        calls = self.stats["update_calls"]
        if calls == 0:
            return 0.0
        return self.stats["saved_syscalls"] / calls
