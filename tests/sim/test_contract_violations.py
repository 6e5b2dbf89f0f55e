"""Tests that the engines reject scheduler contract violations loudly."""

import pytest

from repro.core.base import Dispatch, DispatchSource, Scheduler
from repro.platform import homogeneous_platform
from repro.sim import simulate


def make_scheduler(source_factory):
    class Bad(Scheduler):
        name = "bad"

        def create_source(self, platform, total_work):
            return source_factory()

    return Bad()


class _OutOfRange(DispatchSource):
    def __init__(self):
        self.fired = False

    def next_dispatch(self, view):
        if self.fired:
            return None
        self.fired = True
        return Dispatch(worker=99, size=1.0)


class _WrongType(DispatchSource):
    def next_dispatch(self, view):
        return "send something somewhere"


@pytest.mark.parametrize("engine", ["fast", "des"])
class TestContractViolations:
    def test_out_of_range_worker_rejected(self, engine):
        p = homogeneous_platform(4, S=1.0, B=8.0)
        with pytest.raises(ValueError, match="outside the platform"):
            simulate(p, 10.0, make_scheduler(_OutOfRange), engine=engine)

    def test_wrong_return_type_rejected(self, engine):
        p = homogeneous_platform(4, S=1.0, B=8.0)
        with pytest.raises(TypeError, match="expected Dispatch"):
            simulate(p, 10.0, make_scheduler(_WrongType), engine=engine)

    def test_zero_size_dispatch_rejected_at_construction(self, engine):
        with pytest.raises(ValueError):
            Dispatch(worker=0, size=0.0)
        with pytest.raises(ValueError):
            Dispatch(worker=0, size=float("nan"))
