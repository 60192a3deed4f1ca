import math
from types import SimpleNamespace

import numpy as np
import pytest

from handdepth.calibration import (
    CalibrationParams,
    DEFAULT_CALIBRATION,
    RAW_SENTINEL,
    cm_per_raw,
    cm_to_raw,
    depth_image_cm,
    raw_to_cm,
    valid_domain,
)
from handdepth.errors import DomainError


def reference_depth(raw: int, p: CalibrationParams = DEFAULT_CALIBRATION) -> float:
    # the model evaluated directly, independent of the implementation's code path
    return p.k_cm * math.tan(p.h_rad * raw + p.l_rad) - p.o_cm


def test_known_depths():
    assert raw_to_cm(0) == pytest.approx(26.30, abs=0.05)
    assert raw_to_cm(800) == pytest.approx(107.40, abs=0.05)
    assert raw_to_cm(0) == pytest.approx(reference_depth(0), abs=1e-9)
    assert raw_to_cm(800) == pytest.approx(reference_depth(800), abs=1e-9)


def test_sentinel_and_out_of_domain_rejected():
    with pytest.raises(DomainError):
        raw_to_cm(RAW_SENTINEL)
    with pytest.raises(DomainError):
        raw_to_cm(1101)
    with pytest.raises(DomainError):
        raw_to_cm(-1)


def test_monotonic_and_positive_steps():
    depths = [raw_to_cm(r) for r in range(0, 1101)]
    steps = np.diff(depths)
    assert (steps > 0).all()


def test_round_trip_within_one_step():
    for r in range(0, 1101):
        assert abs(cm_to_raw(raw_to_cm(r)) - r) <= 1
    assert cm_to_raw(raw_to_cm(500)) == 500


def test_inverse_of_near_limit():
    assert cm_to_raw(26.301012226906757) == 0


def test_depth_beyond_pole_rejected():
    with pytest.raises(DomainError):
        cm_to_raw(10_000.0)
    with pytest.raises(DomainError):
        cm_to_raw(-30.0)
    with pytest.raises(DomainError):
        cm_to_raw(float("nan"))


def test_valid_domain_default_constants():
    assert valid_domain(DEFAULT_CALIBRATION) == 1116


def test_valid_domain_clamps_to_raw_ceiling():
    params = CalibrationParams(h_rad=1e-6, l_rad=0.0)
    assert valid_domain(params) == 2046


def test_valid_domain_degenerate():
    degenerate = SimpleNamespace(h_rad=3.5e-4, l_rad=math.pi / 2)
    with pytest.raises(DomainError):
        valid_domain(degenerate)
    # unrepresentable as real params: no raw_valid_max can satisfy the bound
    with pytest.raises(DomainError):
        CalibrationParams(l_rad=math.pi / 2)


def test_second_pole_below_the_domain_rejected():
    # h*raw + l would cross -pi/2 inside [0, raw_valid_max], where cm jumps from +inf to -inf
    for l_rad in (-1.6, -math.pi / 2):
        with pytest.raises(DomainError):
            CalibrationParams(l_rad=l_rad)
    params = CalibrationParams(l_rad=-math.pi / 2 + 1e-3)
    assert (np.diff(params.cm_table[:params.raw_valid_max + 1]) > 0).all()


def test_params_validation():
    with pytest.raises(DomainError):
        CalibrationParams(h_rad=0.0)
    with pytest.raises(DomainError):
        CalibrationParams(k_cm=-1.0)
    with pytest.raises(DomainError):
        CalibrationParams(o_cm=math.nan)
    with pytest.raises(DomainError):
        CalibrationParams(raw_valid_max=2047)
    with pytest.raises(DomainError):
        CalibrationParams(raw_valid_max=1117)  # past the pole bound


def test_cm_per_raw_matches_finite_differences():
    # a one-step secant, so only first-order agreement is expected
    for raw in (0, 300, 700, 1050):
        fd = raw_to_cm(raw + 1) - raw_to_cm(raw)
        assert cm_per_raw(raw) == pytest.approx(fd, rel=2e-2)


def test_depth_image_matches_scalar_path():
    samples = np.array([[0, 800, 1100], [1101, RAW_SENTINEL, 500]], dtype=np.uint16)
    cm, valid = depth_image_cm(samples)
    assert valid.tolist() == [[True, True, True], [False, False, True]]
    assert cm[0, 0] == pytest.approx(raw_to_cm(0))
    assert cm[0, 1] == pytest.approx(raw_to_cm(800))
    assert cm[1, 2] == pytest.approx(raw_to_cm(500))
    assert np.isnan(cm[1, 0]) and np.isnan(cm[1, 1])
