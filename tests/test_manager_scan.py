"""Freeze-time detection and penalty arming.

The manager runs pBox-level detection at each freeze, on exactly the
frozen pBox: one evaluation per freeze, counted in ``scan_stats``
(outside ``stats``, which the golden corpus pins).  Also covered here:
the :class:`PenaltyArmer` batching semantics the penalty path arms
through.
"""

from repro.core import IsolationRule, PBoxManager
from repro.sim import Kernel, Sleep


def _spawned_manager(boxes=3):
    """Kernel + manager + ``boxes`` created-but-idle pBoxes."""
    kernel = Kernel(cores=2)
    manager = PBoxManager(kernel)
    rule = IsolationRule(isolation_level=50)
    made = {}

    def driver():
        made["boxes"] = [manager.create(rule) for _ in range(boxes)]
        yield Sleep(us=10)

    kernel.spawn(driver)
    kernel.run(until_us=100)
    return kernel, manager, made["boxes"]


# -- freeze-time detection --------------------------------------------------

def test_eager_policy_scans_at_freeze():
    _kernel, manager, boxes = _spawned_manager()
    pbox = boxes[0]
    manager.activate(pbox)
    manager.freeze(pbox)
    # The freeze evaluated exactly the frozen pBox, inline.
    assert manager.scan_stats == {"scans": 1, "evaluated": 1}


# -- PenaltyArmer batching --------------------------------------------------

def test_armer_batches_same_expiry_into_one_dispatch():
    kernel = Kernel(cores=1)
    fired = []
    for index in range(4):
        kernel.penalty_armer.arm(500, lambda index=index: fired.append(index))
    kernel.run(until_us=1_000)
    assert fired == [0, 1, 2, 3]                      # arm order preserved
    assert kernel.penalty_armer.stats == {
        "armed": 4, "batched": 3, "dispatches": 1}


def test_armer_entries_cancel_independently():
    kernel = Kernel(cores=1)
    fired = []
    kept = kernel.penalty_armer.arm(500, lambda: fired.append("kept"))
    dropped = kernel.penalty_armer.arm(500, lambda: fired.append("dropped"))
    dropped.cancel()
    kernel.run(until_us=1_000)
    assert fired == ["kept"]
    assert kept.cancelled is False


def test_armer_burns_seq_for_batched_entries():
    """Joining a bucket consumes a kernel seq, exactly like post().

    This is what keeps batched arming bit-identical to unbatched: every
    later timer keeps the tie-break rank it would have had, and event
    accounting (``next(kernel._seq)`` probes) sees the same count.
    """
    kernel = Kernel(cores=1)
    before = next(kernel._seq)
    kernel.penalty_armer.arm(500, lambda: None)   # posts a dispatch timer
    kernel.penalty_armer.arm(500, lambda: None)   # joins: burns one seq
    after = next(kernel._seq)
    # One post + one burn + the two probes themselves.
    assert after - before == 3
