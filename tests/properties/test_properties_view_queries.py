"""Property tests: the engines' master-view queries equal their definitions.

Both scalar engines answer ``is_idle``, ``idle_workers``, ``first_idle``,
``any_pending`` and ``crashed_workers`` without scanning every worker
(see ``docs/performance.md``).  A recording source wraps each dynamic
scheduler's real source and, at every decision of random runs — fast and
DES engines, star / chain / tree topologies, with and without crashes —
checks every query against the :class:`~repro.core.base.MasterView`
definition, computed from ``pending_chunks`` and the raw crash times.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.base import DispatchSource, Scheduler
from repro.errors import NormalErrorModel
from repro.errors.faults import FaultSchedule, FrozenFaults
from repro.sim import simulate
from tests.properties.strategies import (
    dynamic_scheduler_cases,
    finite,
    homogeneous_platforms,
    seeds as make_seeds,
    workloads as make_workloads,
)

pytestmark = pytest.mark.property

platforms = homogeneous_platforms(min_workers=1, max_workers=10, max_latency=0.6)
workloads = make_workloads(min_work=20.0, max_work=2000.0)
topologies = st.sampled_from(("star", "chain:relay=sf", "tree:fanout=4"))
engines = st.sampled_from(("fast", "des"))
crash_instants = st.none() | st.floats(min_value=0.0, max_value=300.0, **finite)


class _CheckingSource(DispatchSource):
    """Checks the view's queries at every decision, then delegates."""

    def __init__(self, inner: DispatchSource, crash_times, log: list):
        self._inner = inner
        self._crash_times = crash_times
        self._log = log

    def next_dispatch(self, view):
        n = view.num_workers
        idle = [i for i in range(n) if view.pending_chunks(i) == 0]
        assert [view.is_idle(i) for i in range(n)] == [i in idle for i in range(n)]
        assert view.idle_workers() == idle
        assert view.first_idle(range(n)) == (idle[0] if idle else None)
        backwards = [i for i in reversed(range(n)) if i in idle]
        assert view.first_idle(reversed(range(n))) == (backwards[0] if backwards else None)
        odd = [i for i in idle if i % 2]
        assert view.first_idle(range(1, n, 2)) == (odd[0] if odd else None)
        assert view.first_idle(()) is None
        assert view.any_pending() == (len(idle) < n)
        if view.faults_possible:
            crashed = tuple(i for i in range(n) if self._crash_times[i] <= view.now)
        else:
            crashed = ()
        assert view.crashed_workers() == crashed
        self._log.append(view.now)
        return self._inner.next_dispatch(view)


class _Checked(Scheduler):
    """A scheduler whose sources are wrapped in :class:`_CheckingSource`."""

    def __init__(self, inner: Scheduler, crash_times):
        self.name = inner.name
        self._inner = inner
        self._crash_times = crash_times
        self.decisions: list[float] = []

    def create_source(self, platform, total_work):
        return _CheckingSource(
            self._inner.create_source(platform, total_work),
            self._crash_times,
            self.decisions,
        )


@given(
    platform=platforms,
    work=workloads,
    factory=dynamic_scheduler_cases,
    engine=engines,
    topology=topologies,
    crashes=st.lists(crash_instants, min_size=10, max_size=10),
    seed=make_seeds(2**31 - 1),
)
def test_view_queries_match_definitions(
    platform, work, factory, engine, topology, crashes, seed
):
    crash_times = tuple(
        math.inf if c is None else c for c in crashes[: platform.N]
    )
    faults = None
    if any(math.isfinite(c) for c in crash_times):
        faults = FrozenFaults(
            FaultSchedule(
                crash_times=crash_times,
                pauses=((0.0, 0.0),) * platform.N,
                slowdowns=((0.0, 1.0),) * platform.N,
            )
        )
    scheduler = _Checked(factory(0.2), crash_times)
    simulate(
        platform, work, scheduler, NormalErrorModel(0.2), seed=seed,
        engine=engine, topology=topology, faults=faults,
    )
    assert scheduler.decisions
