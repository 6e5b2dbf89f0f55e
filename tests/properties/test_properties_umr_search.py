"""Property tests: the lazy UMR round search selects the exhaustive search's plan.

:func:`repro.core.umr._search_subset` skips round counts that a closed-form
bound proves cannot win, decides the chunk-total check from an O(1) proxy,
and builds chunk rows only for the final winner.  The reference below is
the exhaustive loop it replaced: replay every round count, build the rows
of every would-be winner.  The two must return equal plans on homogeneous
and heterogeneous platforms, across workloads from 1e-6 to 1e7, for both
``allow_decreasing`` modes and for small ``max_rounds``.
"""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import umr
from repro.core.umr import MAX_ROUNDS, UMRPlan
from repro.platform import PlatformSpec, homogeneous_platform
from tests.properties.strategies import (
    finite,
    hetero_platforms,
    homogeneous_platforms,
    workloads,
)

pytestmark = pytest.mark.property


def exhaustive_search_subset(
    platform: PlatformSpec,
    total_work: float,
    max_rounds: int,
    allow_decreasing: bool,
) -> UMRPlan | None:
    """The exhaustive round search: every round count replayed in full."""
    d = umr._derive(platform)
    best: UMRPlan | None = None
    for m in range(1, max_rounds + 1):
        t0 = umr._t0_for_rounds(d, total_work, m)
        if t0 is None:
            break
        times = umr._valid_round_times(d, t0, m, allow_decreasing)
        if times is None:
            continue
        predicted = umr._objective(d, t0, sum(times))
        if best is not None and not predicted < best.predicted_makespan * (1.0 - 1e-9):
            continue
        plan = umr._plan_from_times(platform, d, times, predicted, "search", total_work)
        if plan is not None:
            best = plan
    return best


platforms = st.one_of(
    homogeneous_platforms(max_workers=32, max_latency=5.0),
    hetero_platforms,
)
#: Log-uniform over 1e-6 … 1e7, plus the shared strategy's own corners.
total_works = st.one_of(
    st.floats(min_value=-6.0, max_value=7.0, **finite).map(lambda e: 10.0**e),
    workloads(min_work=1e-6, max_work=1e7),
)
round_caps = st.one_of(st.integers(min_value=1, max_value=6), st.just(MAX_ROUNDS))

# Tiny W against large latencies: s_tot·ΣT and M·c_sum cancel to W.
_latency_bound = homogeneous_platform(8, bandwidth_factor=1.5, cLat=1.0, nLat=0.5)
_single_worker = homogeneous_platform(1, bandwidth_factor=1.2, cLat=1.0)
# Zero latencies: F(M) is asymptotically flat, so many round counts tie.
_wide_fast = homogeneous_platform(20, bandwidth_factor=2.0)


@given(
    platform=platforms,
    total_work=total_works,
    max_rounds=round_caps,
    allow_decreasing=st.booleans(),
)
@example(_latency_bound, 1e-6, MAX_ROUNDS, False)
@example(_latency_bound, 1e-6, MAX_ROUNDS, True)
@example(_single_worker, 1e-6, MAX_ROUNDS, False)
@example(_wide_fast, 1e7, MAX_ROUNDS, False)
def test_lazy_search_equals_exhaustive(platform, total_work, max_rounds, allow_decreasing):
    lazy = umr._search_subset(platform, total_work, max_rounds, allow_decreasing)
    reference = exhaustive_search_subset(platform, total_work, max_rounds, allow_decreasing)
    assert lazy == reference


@given(
    platform=platforms,
    total_work=total_works,
    m=st.integers(min_value=1, max_value=MAX_ROUNDS),
    allow_decreasing=st.booleans(),
)
def test_total_proxy_agrees_with_chunk_rows(platform, total_work, m, allow_decreasing):
    """A decided proxy verdict equals the rows' check; an accepted plan's
    objective lies within the skip slack of the closed form."""
    d = umr._derive(platform)
    t0 = umr._t0_for_rounds(d, total_work, m)
    if t0 is None:
        return
    times = umr._valid_round_times(d, t0, m, allow_decreasing)
    if times is None:
        return
    sum_t = sum(times)
    predicted = umr._objective(d, t0, sum_t)
    plan = umr._plan_from_times(platform, d, times, predicted, "search", total_work)
    verdict = umr._rows_total_ok(d, times, sum_t, total_work)
    if verdict is not None:
        assert verdict == (plan is not None)
    if plan is not None:
        f_c = umr._objective(d, t0, (total_work + m * d.c_sum) / d.s_tot)
        slack = umr._objective_slack(d, total_work, t0, m, f_c)
        assert math.isfinite(slack)
        assert abs(predicted - f_c) <= slack
