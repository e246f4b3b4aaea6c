"""Pinned verdict profile of the seed-7, n = 200 sweep on every stratum.

A drift from PASS to SKIPPED (or the reverse) passes every other gate, so
the PASS / FAIL / SKIPPED totals and the SKIPPED count of each statement are
pinned here exactly.
"""

from collections import Counter

import pytest

from ceviangeo.sampling import Stratum, sample_configurations
from ceviangeo.theorems import Status, run_suite

P_INFINITE_SKIPS = ("T2_5", "C2_6", "T2_7", "T3_11", "R3_11", "T3_12", "C3_14", "F1_F2")

PROFILE = {
    Stratum.GENERIC: ((4399, 0, 401), {"R3_11": 200, "C3_14": 200, "L3_4": 1}),
    Stratum.ON_STEINER: ((4600, 0, 200), {"T3_11": 200}),
    Stratum.P_INFINITE: ((3200, 0, 1600), {i: 200 for i in P_INFINITE_SKIPS}),
    Stratum.ON_MEDIAN: ((4395, 0, 405), {"R3_11": 200, "C3_14": 200, "L3_4": 5}),
}


@pytest.mark.parametrize("stratum", list(PROFILE), ids=lambda s: s.value)
def test_seed_7_verdict_profile(stratum):
    reports = run_suite(sample_configurations(7, 200, stratum))
    totals = Counter(r.status for r in reports)
    skipped = Counter(r.theorem_id for r in reports if r.status is Status.SKIPPED)
    expected_totals, expected_skips = PROFILE[stratum]
    assert (totals[Status.PASS], totals[Status.FAIL], totals[Status.SKIPPED]) == expected_totals
    assert dict(skipped) == expected_skips
