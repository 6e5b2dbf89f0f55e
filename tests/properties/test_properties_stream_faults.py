"""Properties of the stream-level fault plane.

Three invariants the plane must hold for *any* platform, arrival mix,
crash realization and failure policy:

* **Work conservation across failures** — every unit of dispatched work
  is either delivered or on the loss ledger, failed jobs included; and
  each completed job received exactly what it asked for.
* **No dispatch to the dead** — once a worker's stream-clock crash time
  has passed, no later grant includes it: every chunk sent to a worker
  starts strictly before that worker's death.
* **Determinism in the stream seed** — the whole faulty stream (grants,
  retries, backoff timings, exclusion ledger) is a pure function of
  ``(platform, arrivals, seed, policy, failure_policy)``.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

import pytest

from repro.errors import CrashFaults
from repro.sim import simulate_stream
from repro.workloads import JobArrival

from tests.properties.strategies import homogeneous_platforms, seeds

pytestmark = [pytest.mark.property, pytest.mark.multijob, pytest.mark.stream_faults]

platforms = homogeneous_platforms(
    min_workers=2, max_workers=8, min_factor=1.1, max_factor=2.5,
    max_latency=0.5, with_tlat=False,
)

#: Sparse-to-dense arrival patterns as (gap, work) pairs.
job_streams = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=80.0, allow_nan=False, allow_infinity=False),
        st.floats(min_value=20.0, max_value=200.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=5,
)

failure_policies = st.sampled_from(
    ("drop", "retry:attempts=2,backoff=4", "resubmit:attempts=3")
)

stream_policies = st.sampled_from(
    ("fcfs", "partitioned:parts=2", "interleaved:slices=2")
)


def make_jobs(pattern):
    jobs, t = [], 0.0
    for i, (gap, work) in enumerate(pattern):
        t += gap
        jobs.append(JobArrival(job_id=i, time=t, work=work))
    return jobs


def run(platform, pattern, seed, policy, failure_policy):
    return simulate_stream(
        platform,
        make_jobs(pattern),
        seed=seed,
        policy=policy,
        faults=crash_model_for(seed),
        failure_policy=failure_policy,
    )


def crash_model_for(seed):
    # Vary sparing with the seed so both regimes (whole-star death vs a
    # guaranteed survivor) are exercised without a second @given axis.
    return CrashFaults(prob=0.9, tmax=40.0, spare_one=bool(seed % 2))


@given(
    platform=platforms,
    pattern=job_streams,
    seed=seeds(2**31 - 1),
    policy=stream_policies,
    failure_policy=failure_policies,
)
def test_work_is_conserved_including_failed_jobs(
    platform, pattern, seed, policy, failure_policy
):
    stream = run(platform, pattern, seed, policy, failure_policy)
    assert stream.dispatched_work == pytest.approx(
        stream.delivered_work + stream.work_lost, rel=1e-9, abs=1e-9
    )
    for rec in stream.completed_jobs:
        assert rec.delivered_work == pytest.approx(rec.job.work, rel=1e-9)
    # Every job is accounted for: completed or explicitly failed.
    assert len(stream.completed_jobs) + stream.jobs_failed == len(stream.jobs)


@given(
    platform=platforms,
    pattern=job_streams,
    seed=seeds(2**31 - 1),
    policy=stream_policies,
    failure_policy=failure_policies,
)
def test_no_chunk_is_sent_to_an_excluded_worker(
    platform, pattern, seed, policy, failure_policy
):
    stream = run(platform, pattern, seed, policy, failure_policy)
    deaths = dict(stream.excluded)
    for rec in stream.jobs:
        for i, result in enumerate(rec.results):
            workers = rec.slice_workers[i]
            offset = rec.slice_starts[i]
            for r in result.records:
                w = workers[r.worker]
                assert offset + r.send_start < deaths.get(w, math.inf), (
                    f"chunk sent to worker {w} at "
                    f"t={offset + r.send_start} after its death at "
                    f"{deaths.get(w)}"
                )


@given(
    platform=platforms,
    pattern=job_streams,
    seed=seeds(2**31 - 1),
    policy=stream_policies,
    failure_policy=failure_policies,
)
def test_faulty_streams_are_deterministic_in_the_seed(
    platform, pattern, seed, policy, failure_policy
):
    a = run(platform, pattern, seed, policy, failure_policy)
    b = run(platform, pattern, seed, policy, failure_policy)
    assert a.jobs == b.jobs
    assert a.excluded == b.excluded
    assert a.stream_events == b.stream_events
