"""Tests for SimResult accessors and schedule validation."""

import dataclasses

import pytest

from repro.core import RUMR, UMR
from repro.errors import NormalErrorModel
from repro.platform import homogeneous_platform
from repro.sim import simulate, validate_schedule

W = 1000.0


@pytest.fixture
def result(paper_platform):
    return simulate(paper_platform, W, RUMR(known_error=0.3), NormalErrorModel(0.3), seed=5)


def test_dispatched_work_matches_total(result):
    assert result.dispatched_work == pytest.approx(W, rel=1e-9)


def test_worker_records_partition_all_records(result):
    total = sum(len(result.worker_records(w)) for w in range(result.platform.N))
    assert total == result.num_chunks


def test_worker_busy_time_positive(result):
    assert all(result.worker_busy_time(w) > 0 for w in range(result.platform.N))


def test_utilization_in_unit_interval(result):
    assert 0.0 < result.utilization() <= 1.0


def test_phase_work_sums_to_total(result):
    assert sum(result.phase_work().values()) == pytest.approx(W, rel=1e-9)


def test_provenance_fields(result, paper_platform):
    assert result.scheduler_name == "RUMR"
    assert result.seed == 5
    assert result.platform == paper_platform
    assert result.total_work == W


def test_validate_catches_link_overlap(paper_platform):
    good = simulate(paper_platform, W, UMR())
    bad_records = list(good.records)
    r = bad_records[1]
    bad_records[1] = r._replace(send_start=r.send_start - 1.0)
    bad = dataclasses.replace(good, records=tuple(bad_records))
    with pytest.raises(AssertionError, match="link overlap"):
        validate_schedule(bad)


def test_validate_catches_compute_before_arrival(paper_platform):
    good = simulate(paper_platform, W, UMR())
    bad_records = list(good.records)
    r = bad_records[0]
    bad_records[0] = r._replace(comp_start=r.arrival - 0.5)
    bad = dataclasses.replace(good, records=tuple(bad_records))
    with pytest.raises(AssertionError):
        validate_schedule(bad)


def test_validate_catches_lost_work(paper_platform):
    good = simulate(paper_platform, W, UMR())
    bad = dataclasses.replace(good, total_work=W * 2)
    with pytest.raises(AssertionError, match="dispatched"):
        validate_schedule(bad)


def test_validate_catches_wrong_makespan(paper_platform):
    good = simulate(paper_platform, W, UMR())
    bad = dataclasses.replace(good, makespan=good.makespan / 2)
    with pytest.raises(AssertionError, match="makespan"):
        validate_schedule(bad)
