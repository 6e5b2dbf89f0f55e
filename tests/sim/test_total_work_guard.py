"""simulate() rejects a total workload that is not finite and positive.

An infinite workload used to pass the ``> 0`` guard: Factoring, MI-2 and
RUMR then dispatched nothing and reported a makespan of 0.0.
"""

import math

import pytest

from repro.core import make_scheduler
from repro.platform import homogeneous_platform
from repro.sim import simulate

PLATFORM = homogeneous_platform(4, bandwidth_factor=1.5, cLat=0.1, nLat=0.1)


@pytest.mark.parametrize("engine", ["fast", "des"])
@pytest.mark.parametrize("algorithm", ["Factoring", "MI-2", "RUMR", "UMR"])
@pytest.mark.parametrize("total_work", [math.inf, -math.inf, math.nan])
def test_bad_total_work_rejected(engine, algorithm, total_work):
    with pytest.raises(ValueError, match="total_work"):
        simulate(PLATFORM, total_work, make_scheduler(algorithm, 0.3), engine=engine)
