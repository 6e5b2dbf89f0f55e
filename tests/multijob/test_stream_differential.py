"""Differential: an N-job stream is byte-identical on the fast and DES engines.

``test_conformance.py`` pins a 1-job stream to a direct ``simulate()``
call.  This module checks whole streams: twenty Poisson jobs with variable
sizes, contending for sixteen workers under every inter-job policy, with
and without a crash plane, under each failure policy that reacts to
crashes.  Each grant runs through the fast engine on one side and the DES
engine on the other; the queueing metrics (health block included) must
serialize to the same bytes.
"""

import pytest

from repro.experiments.queueing import metrics_to_json, queueing_metrics
from repro.platform import homogeneous_platform
from repro.sim import simulate_stream

pytestmark = pytest.mark.multijob

ARRIVALS = "poisson:rate=0.01,jobs=20,work=500,work_cv=0.5"
ERROR = 0.3
CRASH = "crash:p=0.3,tmax=3000"

POLICIES = ("fcfs", "partitioned:parts=2", "interleaved:slices=3")
#: (fault spec, failure policy): fault-free, and crashes under the two
#: policies that re-run a failed job.
FAULT_CASES = ((None, "drop"), (CRASH, "resubmit"), (CRASH, "retry"))
SCHEDULERS = ("RUMR", "Factoring", "UMR")
SEEDS = (1, 2)


@pytest.fixture(scope="module")
def platform():
    return homogeneous_platform(16, S=1.0, bandwidth_factor=1.5, cLat=0.2, nLat=0.1)


def stream_metrics(platform, engine, policy, faults, failure_policy, scheduler, seed):
    stream = simulate_stream(
        platform,
        ARRIVALS,
        scheduler=scheduler,
        error=ERROR,
        seed=seed,
        policy=policy,
        engine=engine,
        faults=faults,
        failure_policy=failure_policy,
    )
    return metrics_to_json(queueing_metrics(stream))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize(
    "faults,failure_policy", FAULT_CASES, ids=lambda v: v or "none"
)
@pytest.mark.parametrize("policy", POLICIES)
def test_stream_fast_equals_des(platform, policy, faults, failure_policy, scheduler, seed):
    args = (policy, faults, failure_policy, scheduler, seed)
    fast = stream_metrics(platform, "fast", *args)
    des = stream_metrics(platform, "des", *args)
    assert fast == des
