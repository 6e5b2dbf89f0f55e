"""Shared Hypothesis strategies for the property-test suite.

Every ``test_properties*`` module used to carry its own copy of the
platform/workload strategies, and the copies had quietly drifted (worker
ranges, latency caps, presence of ``tLat``).  This module is the single
source: strategy *factories* parameterised by the ranges a module needs,
plus ready-made defaults covering (and exceeding) the paper's Table 1 —
including degenerate corners: zero latencies, tiny workloads, single
workers, heterogeneous rates.

Factories return fresh strategies, so callers can narrow ranges without
affecting anyone else::

    from tests.properties.strategies import homogeneous_platforms, workloads

    platforms = homogeneous_platforms(max_workers=12)

    @given(platform=platforms, work=workloads())
    def test_something(platform, work): ...
"""

import dataclasses
import typing

from hypothesis import strategies as st

from repro.core import (
    RUMR,
    AdaptiveRUMR,
    Factoring,
    FixedSizeChunking,
    WeightedFactoring,
)
from repro.errors import (
    CrashFaults,
    LinkSpikeFaults,
    PauseFaults,
    SlowdownFaults,
    make_fault_model,
)
from repro.platform import (
    ChainTopology,
    PlatformSpec,
    SharedBandwidthTopology,
    StarTopology,
    TreeTopology,
    WorkerSpec,
    homogeneous_platform,
    make_topology,
)
from repro.sim.multijob import (
    DropFailurePolicy,
    FCFSPolicy,
    InterleavedPolicy,
    PartitionedPolicy,
    ResubmitFailurePolicy,
    RetryFailurePolicy,
    make_failure_policy,
    make_stream_policy,
)
from repro.workloads import (
    BurstyArrivals,
    PoissonArrivals,
    make_arrival_process,
)

__all__ = [
    "finite",
    "latencies",
    "homogeneous_platforms",
    "worker_specs",
    "hetero_platforms",
    "workloads",
    "seeds",
    "error_magnitudes",
    "SchedulerCase",
    "recovering_scheduler_cases",
    "dynamic_scheduler_cases",
    "SpecCase",
    "fault_spec_cases",
    "topology_spec_cases",
    "stream_policy_spec_cases",
    "failure_policy_spec_cases",
    "arrival_spec_cases",
    "spec_cases",
]

# Keyword bundle for st.floats: simulator inputs are always finite.
finite = dict(allow_nan=False, allow_infinity=False)

#: Per-chunk latencies (cLat / nLat), including the zero corner.
latencies = st.floats(min_value=0.0, max_value=1.0, **finite)


def homogeneous_platforms(
    min_workers: int = 1,
    max_workers: int = 30,
    min_factor: float = 1.05,
    max_factor: float = 3.0,
    max_latency: float = 1.0,
    with_tlat: bool = True,
):
    """Homogeneous platforms over (and beyond) the Table-1 ranges.

    ``bandwidth_factor`` stays above 1 so the single-port master link is
    never the trivially-saturated bottleneck; ``with_tlat=False`` drops
    the fixed per-transfer latency for modules that do not model it.
    """
    lat = st.floats(min_value=0.0, max_value=max_latency, **finite)
    tlat = (
        st.floats(min_value=0.0, max_value=0.5, **finite)
        if with_tlat
        else st.just(0.0)
    )
    return st.builds(
        lambda n, factor, clat, nlat, tl: homogeneous_platform(
            n, S=1.0, bandwidth_factor=factor, cLat=clat, nLat=nlat, tLat=tl
        ),
        n=st.integers(min_value=min_workers, max_value=max_workers),
        factor=st.floats(min_value=min_factor, max_value=max_factor, **finite),
        clat=lat,
        nlat=lat,
        tl=tlat,
    )


#: Individual heterogeneous workers: rates, bandwidths and latencies all vary.
worker_specs = st.builds(
    WorkerSpec,
    S=st.floats(min_value=0.1, max_value=5.0, **finite),
    B=st.floats(min_value=5.0, max_value=200.0, **finite),
    cLat=latencies,
    nLat=latencies,
    tLat=st.floats(min_value=0.0, max_value=0.5, **finite),
)

#: Small heterogeneous platforms (1–8 workers, arbitrary specs).
hetero_platforms = st.lists(worker_specs, min_size=1, max_size=8).map(PlatformSpec)


def workloads(min_work: float = 1.0, max_work: float = 10000.0):
    """Total workloads W_total; defaults span tiny through Table-1 scale."""
    return st.floats(min_value=min_work, max_value=max_work, **finite)


def seeds(max_value: int = 2**31):
    """RNG seeds for the error/fault streams."""
    return st.integers(min_value=0, max_value=max_value)


def error_magnitudes(max_magnitude: float = 0.8):
    """Prediction-error magnitudes (the sweep's epsilon axis)."""
    return st.floats(min_value=0.0, max_value=max_magnitude, **finite)


# -- batch-dynamic schedulers --------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SchedulerCase:
    """A batch-dynamic scheduler class plus drawn constructor parameters.

    Calling it with a cell's error magnitude builds the scheduler, passing
    the error as ``error_param`` for algorithms that consume it (RUMR's
    ``known_error``) — the registry's factory contract.
    """

    cls: type
    params: tuple = ()
    error_param: "str | None" = None

    def __call__(self, error: float):
        kwargs = dict(self.params)
        if self.error_param is not None:
            kwargs[self.error_param] = error
        return self.cls(**kwargs)


def _scheduler_case(cls, error_param=None, **params):
    return st.fixed_dictionaries(params).map(
        lambda drawn: SchedulerCase(cls, tuple(sorted(drawn.items())), error_param)
    )


_factors = st.floats(min_value=1.0, max_value=4.0, exclude_min=True, **finite)
_min_chunks = st.floats(min_value=0.0, max_value=20.0, **finite)

#: Schedulers that re-dispatch every lost chunk: Factoring, Weighted
#: Factoring and RUMR over their parameter domains (RUMR's split, phase-1
#: order and phase-2 kind included).
recovering_scheduler_cases = st.one_of(
    _scheduler_case(Factoring, factor=_factors, min_chunk=_min_chunks),
    _scheduler_case(WeightedFactoring, factor=_factors, min_chunk=_min_chunks),
    _scheduler_case(
        RUMR,
        "known_error",
        factor=_factors,
        # The whole [0, 1] domain: 0 covers the empty phase 1, and tiny
        # fractions a phase 1 so small that its plan is one chunk on one
        # worker.
        phase1_fraction=st.none()
        | st.sampled_from((0.0, 5e-324, 1e-300, 1e-93, 1e-20))
        | st.floats(min_value=0.0, max_value=1.0, **finite),
        out_of_order=st.booleans(),
        phase2_weighted=st.booleans(),
    ),
)

#: Every batch-dynamic scheduler: the recovering ones plus FSC (explicit
#: or Kruskal–Weiss chunk) and AdaptiveRUMR.
dynamic_scheduler_cases = st.one_of(
    recovering_scheduler_cases,
    _scheduler_case(
        FixedSizeChunking,
        "known_error",
        chunk_size=st.none() | st.floats(min_value=10.0, max_value=500.0, **finite),
    ),
    _scheduler_case(
        AdaptiveRUMR, factor=_factors, min_samples=st.integers(min_value=2, max_value=20)
    ),
)


# -- spec strings --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SpecCase:
    """A ``kind[:key=value,...]`` spec built from typed, in-range values.

    ``items`` holds each ``(key, value text, numeric)`` parameter in spec
    order; ``expected`` is what ``make(text)`` must return.
    """

    make: typing.Callable[[str], typing.Any]
    kind: str
    items: tuple[tuple[str, str, bool], ...]
    expected: typing.Any

    @property
    def text(self) -> str:
        return spec_text(self.kind, [f"{k}={v}" for k, v, _ in self.items])


def spec_text(kind: str, items: typing.Sequence[str]) -> str:
    """Join a kind and its raw parameter items into a spec string."""
    return f"{kind}:{','.join(items)}" if items else kind


def _family(make, kind, cls, **fields):
    """Cases of one spec kind.

    ``fields`` maps each spec key to ``(constructor argument, value
    strategy, optional)``; optional keys are sometimes left out, so the
    constructor default must be what the parser fills in.  Keys come out
    in a drawn order: the grammar is order-free.
    """

    @st.composite
    def cases(draw):
        kwargs, items = {}, []
        for key, (arg, values, optional) in fields.items():
            if optional and draw(st.booleans()):
                continue
            value = draw(values)
            kwargs[arg] = value
            text = value if isinstance(value, str) else repr(value)
            items.append((key, text, not isinstance(value, str)))
        items = draw(st.permutations(items))
        return SpecCase(make, kind, tuple(items), cls(**kwargs))

    return cases()


_unit = st.floats(min_value=0.0, max_value=1.0, **finite)
_horizon = st.floats(min_value=0.0, max_value=1e4, **finite)
_counts = st.integers(min_value=1, max_value=64)
_positive = st.floats(min_value=1e-3, max_value=1e4, **finite)

fault_spec_cases = st.one_of(
    _family(make_fault_model, "crash", CrashFaults,
            p=("prob", _unit, False), tmax=("tmax", _horizon, False)),
    _family(make_fault_model, "crash", CrashFaults,
            worker=("worker", st.integers(0, 64), False), at=("at", _horizon, False)),
    _family(make_fault_model, "pause", PauseFaults, p=("prob", _unit, False),
            tmax=("tmax", _horizon, False), dur=("duration", _horizon, False)),
    _family(make_fault_model, "slow", SlowdownFaults, p=("prob", _unit, False),
            tmax=("tmax", _horizon, False),
            factor=("factor", st.floats(1.0, 10.0, **finite), False)),
    _family(make_fault_model, "spike", LinkSpikeFaults,
            p=("prob", _unit, False), delay=("delay", _horizon, False)),
)

topology_spec_cases = st.one_of(
    _family(make_topology, "star", StarTopology, n=("n", _counts, True)),
    _family(make_topology, "chain", ChainTopology, n=("n", _counts, True),
            relay=("relay", st.sampled_from(["sf", "ct"]), True)),
    _family(make_topology, "tree", TreeTopology,
            fanout=("fanout", _counts, False), n=("n", _counts, True)),
    _family(make_topology, "sharedbw", SharedBandwidthTopology,
            cap=("cap", _positive, False), n=("n", _counts, True)),
)

stream_policy_spec_cases = st.one_of(
    _family(make_stream_policy, "fcfs", FCFSPolicy),
    _family(make_stream_policy, "partitioned", PartitionedPolicy,
            parts=("parts", _counts, True)),
    _family(make_stream_policy, "interleaved", InterleavedPolicy,
            slices=("slices", _counts, True)),
)

failure_policy_spec_cases = st.one_of(
    _family(make_failure_policy, "drop", DropFailurePolicy),
    _family(make_failure_policy, "retry", RetryFailurePolicy,
            attempts=("max_attempts", _counts, True),
            backoff=("backoff_base", _horizon, True),
            mult=("backoff_multiplier", st.floats(1.0, 10.0, **finite), True),
            jitter=("jitter_fraction",
                    st.floats(0.0, 1.0, exclude_max=True, **finite), True)),
    _family(make_failure_policy, "resubmit", ResubmitFailurePolicy,
            attempts=("max_attempts", _counts, True)),
)

arrival_spec_cases = st.one_of(
    _family(make_arrival_process, "poisson", PoissonArrivals,
            rate=("rate", _positive, False), jobs=("jobs", _counts, False),
            work=("work", _positive, False),
            work_cv=("work_cv", st.floats(0.0, 2.0, **finite), True)),
    _family(make_arrival_process, "bursty", BurstyArrivals,
            bursts=("bursts", _counts, False), size=("size", _counts, False),
            gap=("gap", _positive, False), work=("work", _positive, False),
            spread=("spread", _horizon, True),
            work_cv=("work_cv", st.floats(0.0, 2.0, **finite), True)),
)

#: Every spec family the package parses.
spec_cases = st.one_of(
    fault_spec_cases,
    topology_spec_cases,
    stream_policy_spec_cases,
    failure_policy_spec_cases,
    arrival_spec_cases,
)
