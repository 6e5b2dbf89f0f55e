"""Error models reject non-finite magnitudes and drifts at construction.

A NaN magnitude never passes the truncation test, so the normal model's
resampling loop would spin forever; an infinite one makes every duration
infinite.  Each model must raise a ValueError naming the parameter before
any engine sees the value.
"""

import math

import pytest

from repro.errors import DriftingErrorModel, NormalErrorModel, UniformErrorModel

BAD_MAGNITUDES = [math.nan, math.inf, -math.inf, -0.1]


@pytest.mark.parametrize("magnitude", BAD_MAGNITUDES)
def test_normal_rejects_bad_magnitude(magnitude):
    with pytest.raises(ValueError, match="magnitude"):
        NormalErrorModel(magnitude)


@pytest.mark.parametrize("magnitude", BAD_MAGNITUDES)
def test_uniform_rejects_bad_magnitude(magnitude):
    with pytest.raises(ValueError, match="magnitude"):
        UniformErrorModel(magnitude)


@pytest.mark.parametrize("magnitude", BAD_MAGNITUDES)
def test_drifting_rejects_bad_magnitude(magnitude):
    with pytest.raises(ValueError, match="magnitude"):
        DriftingErrorModel(magnitude)


@pytest.mark.parametrize("drift", [math.nan, math.inf, -math.inf])
def test_drifting_rejects_bad_drift(drift):
    with pytest.raises(ValueError, match="drift_per_step"):
        DriftingErrorModel(0.1, drift_per_step=drift)


def test_drifting_accepts_negative_drift():
    assert DriftingErrorModel(0.1, drift_per_step=-0.01).drift_per_step == -0.01
