"""The golden corpus at a second seed, with no subscriber attached.

The golden suite replays every corpus case at its committed seed, with
a ``TraceDigest`` on the bus, one case after another in one process.
This pins the same cases at seed 2 and with nothing on the bus, so a
change that alters the simulation only at another seed, or only when
no subscriber is attached, still fails tier-1.

Each case pins its timer arms (the benchmark's kernel events) and
``golden_stats`` of the run: kernel and manager stats, victim mean and
p95 latency, final virtual time and thread count.  The literals were
computed before the per-tenant manager facade and the inlined FIFO
pick were removed, so they hold the one-manager, one-dispatch-path
kernel to the schedule the old code made.  Changing the simulation on
purpose means updating them here and saying why in the change log.
"""

import json
import os

import pytest

from repro.cases import Solution, get_case, run_case
from repro.obs.golden import golden_stats
from repro.sim.thread import reset_thread_ids

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SEED = 2

KERNEL_KEYS = ("syscalls", "context_switches", "penalties", "penalty_us",
               "throttles", "crashes")
MANAGER_KEYS = ("events", "detections", "actions", "pbox_level_actions",
                "penalties_applied", "penalty_applied_us",
                "penalty_backoffs", "penalty_clamped", "penalty_reverts",
                "safe_mode_releases")

#: case -> (timer arms, kernel stats in KERNEL_KEYS order, manager stats
#: in MANAGER_KEYS order, victim mean us, victim p95 us, final time us,
#: threads), at seed 2 and each case's corpus duration.
PINS = {
    "c1": (3_043,
           (3_346, 2_451, 110, 675_411, 0, 0),
           (3_636, 55, 110, 55, 110, 675_411, 0, 0, 0, 0),
           1276.885906, 9_362, 1_500_000, 2),
    "c2": (15_047,
           (16_028, 15_041, 5, 53_104, 0, 0),
           (33_859, 0, 5, 5, 5, 53_104, 0, 0, 0, 0),
           6593.828947, 6_776, 1_500_000, 2),
    "c3": (13_938,
           (15_308, 10_904, 218, 879_214, 0, 0),
           (2_717, 168, 218, 77, 218, 879_214, 0, 0, 0, 0),
           580.115578, 2_381, 1_500_000, 5),
    "c4": (2_515,
           (2_600, 2_043, 81, 479_066, 0, 0),
           (1_564, 41, 81, 40, 81, 479_066, 0, 0, 0, 0),
           2119.837607, 14_618, 1_500_000, 2),
    "c5": (8_396,
           (9_284, 7_597, 0, 0, 0, 0),
           (22_828, 0, 0, 0, 0, 0, 0, 0, 0, 0),
           689.812155, 727, 1_500_000, 3),
    "c6": (3_085,
           (2_606, 2_520, 240, 501_600, 0, 0),
           (1_767, 121, 240, 119, 240, 501_600, 0, 0, 0, 0),
           2963.326531, 6_913, 1_500_000, 2),
    "c7": (1_812,
           (864, 1_669, 11, 123_625, 0, 0),
           (528, 6, 12, 6, 11, 123_625, 0, 0, 0, 0),
           16043.157895, 199_418, 1_500_000, 2),
    "c8": (3_092,
           (2_741, 2_605, 63, 1_426_659, 0, 0),
           (1_696, 34, 64, 31, 63, 1_426_659, 0, 0, 0, 0),
           1270.127517, 8_192, 1_500_000, 3),
    "c9": (2_283,
           (2_136, 1_878, 20, 542_878, 0, 0),
           (1_240, 20, 20, 20, 20, 542_878, 0, 0, 0, 0),
           2582.560748, 38_015, 1_500_000, 3),
    "c10": (2_716,
           (2_961, 2_011, 50, 829_992, 0, 0),
           (2_616, 21, 50, 29, 50, 829_992, 0, 0, 0, 0),
           3000.581633, 20_534, 1_500_000, 2),
    "c11": (425,
           (456, 310, 18, 27_103, 0, 0),
           (192, 15, 18, 10, 18, 27_103, 0, 0, 0, 0),
           137513.666667, 204_054, 1_500_000, 4),
    "c12": (1_388,
           (1_861, 1_076, 16, 1_063_398, 0, 0),
           (1_049, 10, 16, 10, 16, 1_063_398, 0, 0, 0, 0),
           2051.479675, 533, 1_500_000, 5),
    "c13": (675,
           (726, 494, 25, 583_494, 0, 0),
           (311, 20, 25, 19, 25, 583_494, 0, 0, 0, 0),
           29445.411765, 110_941, 1_500_000, 4),
    "c14": (3_277,
           (3_042, 2_227, 0, 0, 0, 0),
           (2_277, 24, 35, 14, 0, 0, 0, 0, 0, 0),
           2828.314286, 5_150, 1_500_000, 9),
    "c15": (55_453,
           (59_013, 42_782, 0, 0, 0, 0),
           (43_282, 39, 56, 37, 0, 0, 0, 0, 0, 0),
           903.847059, 1_098, 1_500_000, 13),
    "c16": (103_214,
           (132_710, 88_465, 0, 0, 0, 0),
           (117_989, 0, 0, 0, 0, 0, 0, 0, 0, 0),
           77.027313, 161, 1_500_000, 7),
    "c17": (10_101,
           (7_447, 7_178, 60, 328_050, 0, 0),
           (5_929, 17, 60, 43, 60, 328_050, 4, 0, 0, 0),
           2934.3, 4_329, 1_500_000, 2),
    "c18": (14_889,
           (11_464, 13_262, 0, 0, 0, 0),
           (8_214, 77, 151, 105, 0, 0, 0, 0, 0, 0),
           3319.792857, 22_290, 1_500_000, 1183),
    "c19": (99_621,
           (126_460, 86_197, 0, 0, 0, 0),
           (107_372, 0, 0, 0, 0, 0, 0, 0, 0, 0),
           113.238095, 240, 1_500_000, 13),
    "c20": (9_618,
           (6_703, 8_796, 0, 0, 0, 0),
           (4_922, 104, 155, 61, 0, 0, 0, 0, 0, 0),
           235149.0, 263_683, 1_500_000, 735),
}


def _duration_s(case_id):
    with open(os.path.join(GOLDEN_DIR, "%s.json" % case_id)) as handle:
        return json.load(handle)["duration_s"]


@pytest.mark.parametrize("case_id", sorted(PINS, key=lambda c: int(c[1:])))
def test_corpus_case_at_seed_2(case_id):
    reset_thread_ids()
    run = run_case(get_case(case_id), Solution.PBOX, seed=SEED,
                   duration_s=_duration_s(case_id))
    arms, kernel, manager, mean_us, p95_us, final_us, threads = \
        PINS[case_id]
    # repr(itertools.count(n)) is "count(n)"; next() would arm.
    assert int(repr(run.env.kernel._seq)[6:-1]) == arms
    assert golden_stats(run) == {
        "kernel": dict(zip(KERNEL_KEYS, kernel)),
        "manager": dict(zip(MANAGER_KEYS, manager)),
        "victim_mean_us": mean_us,
        "victim_p95_us": p95_us,
        "final_time_us": final_us,
        "threads": threads,
    }
