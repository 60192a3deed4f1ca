import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from handdepth.calibration import (
    CalibrationParams,
    DEFAULT_CALIBRATION,
    RAW_CEILING,
    RAW_SENTINEL,
    cm_per_raw,
    cm_to_raw,
    raw_to_cm,
    valid_domain,
)
from handdepth.errors import DomainError

from reference import deterministic, valid_domain_stepping


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


@pytest.mark.parametrize("params", [
    DEFAULT_CALIBRATION,
    CalibrationParams(h_rad=3.6e-4, k_cm=12.5, l_rad=1.2, o_cm=3.5, raw_valid_max=1000),
    CalibrationParams(h_rad=1e-5, k_cm=20.0, l_rad=0.3, o_cm=-2.0, raw_valid_max=2046),
])
def test_scalar_depth_is_the_table_entry(params):
    # one evaluation of the model: a scalar depth and a table entry never differ by round-off
    for raw in range(params.raw_valid_max + 1):
        assert raw_to_cm(raw, params) == params.cm_table[raw]
        assert raw_to_cm(np.uint16(raw), params) == params.cm_table[raw]


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


def test_valid_domain_of_a_tiny_h_is_the_whole_range():
    # the pole sits ~4e299 codes out, or past any float (h subnormal); no stepping down to it
    for h_rad in (1e-300, 5e-324):
        params = CalibrationParams(h_rad=h_rad, raw_valid_max=2046)
        assert valid_domain(params) == 2046
        table = params.cm_table[:2047]
        assert np.isfinite(table).all() and np.ptp(table) == 0  # flat: every code one depth
    with pytest.raises(DomainError):
        cm_to_raw(150.0, CalibrationParams(h_rad=5e-324))  # maps to an infinite raw code


def test_valid_domain_matches_the_stepping_oracle():
    rng = np.random.default_rng(61)
    cases = []
    for _ in range(3000):  # the pole anywhere from below code 1 to 1e7 codes out, or before 0
        l_rad = rng.uniform(-1.55, 1.6)
        cases.append((abs(math.pi / 2 - l_rad) / 10 ** rng.uniform(-2, 7), l_rad))
    for code in rng.integers(1, 2200, 1000):  # the pole at an integer code, and just off it
        l_rad = rng.uniform(-1.55, 1.5)
        h_rad = (math.pi / 2 - l_rad) / code
        cases += [(h, l_rad) for h in (h_rad, h_rad * (1 + 1e-16), h_rad * (1 - 1e-16),
                                       np.nextafter(h_rad, 0), np.nextafter(h_rad, 1))]
    short = 0
    for h_rad, l_rad in cases:
        h_rad, l_rad = float(h_rad), float(l_rad)
        limit = (math.pi / 2 - l_rad) / h_rad
        if limit > 1e7:
            continue
        params = SimpleNamespace(h_rad=h_rad, l_rad=l_rad)
        try:
            want = valid_domain_stepping(h_rad, l_rad)
        except DomainError:
            with pytest.raises(DomainError):
                valid_domain(params)
            continue
        got = valid_domain(params)
        # the largest code before the pole, in the arithmetic the conversions use
        assert h_rad * got + l_rad < math.pi / 2, (h_rad, l_rad)
        assert got == RAW_CEILING or h_rad * (got + 1) + l_rad >= math.pi / 2, (h_rad, l_rad)
        # The loop never tries codes past ceil(limit) - 1, so where round-off
        # leaves ceil(limit) itself before the pole it stops one code short.
        assert got == want or want == math.ceil(limit) - 1 == got - 1, (h_rad, l_rad)
        short += got != want
    assert 0 < short < len(cases) // 10  # only poles that land on a code


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


@deterministic
@given(
    st.floats(-1.5707, 1.5707),
    st.floats(-8, 70),
    st.sampled_from([None, 1e-300, 5e-324]),
    st.floats(1e-3, 1e4),
    st.floats(-1e3, 1e3),
)
def test_every_calibration_at_its_pole_bound_has_a_depth_table_that_never_falls(
    l_rad, scale, tiny_h, k_cm, o_cm
):
    # The angle step runs from below one ulp of l_rad (scale < 0: many codes
    # share one angle) to far past it (the pole before code 1), or is tiny.
    h_rad = tiny_h or max(math.ulp(l_rad) * 2.0 ** scale, 5e-324)
    bound = valid_domain(SimpleNamespace(h_rad=h_rad, l_rad=l_rad))
    params = CalibrationParams(h_rad=h_rad, k_cm=k_cm, l_rad=l_rad, o_cm=o_cm, raw_valid_max=bound)
    table = params.cm_table[:bound + 1]
    assert not (table[1:] < table[:-1]).any()


def test_a_falling_depth_table_is_refused(monkeypatch):
    tan = np.tan

    def swapped(angle):  # codes 7 and 8 trade depths: one fall
        out = tan(angle)
        out[[7, 8]] = out[[8, 7]]
        return out

    monkeypatch.setattr(np, "tan", swapped)
    with pytest.raises(DomainError, match="falls"):
        CalibrationParams(k_cm=12.5)
    monkeypatch.setattr(np, "tan", lambda angle: -tan(angle))
    with pytest.raises(DomainError, match="falls"):
        CalibrationParams(k_cm=12.5)
    monkeypatch.setattr(np, "tan", np.zeros_like)  # flat: it never falls
    assert (CalibrationParams(k_cm=12.5).cm_table[:1101] == -3.7).all()


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
    for name in ("h_rad", "k_cm", "l_rad", "o_cm"):
        for value in (True, False, "1.0", None, [1.0]):  # bool is an int subclass
            with pytest.raises(DomainError, match=name):
                CalibrationParams(**{name: value})
    numpy_values = CalibrationParams(k_cm=np.float64(12.36), o_cm=np.int64(4))
    assert numpy_values.cm_table[700] == pytest.approx(raw_to_cm(700) - 0.3)


def test_cm_per_raw_matches_finite_differences():
    # a one-step secant, so only first-order agreement is expected
    for raw in (0, 300, 700, 1050):
        fd = raw_to_cm(raw + 1) - raw_to_cm(raw)
        assert cm_per_raw(raw) == pytest.approx(fd, rel=2e-2)


def test_depth_image_matches_scalar_path():
    samples = np.array([[0, 800, 1100], [1101, RAW_SENTINEL, 500]], dtype=np.uint16)
    cm = DEFAULT_CALIBRATION.cm_table[samples]
    valid = ~np.isnan(cm)
    assert valid.tolist() == [[True, True, True], [False, False, True]]
    assert cm[0, 0] == pytest.approx(raw_to_cm(0))
    assert cm[0, 1] == pytest.approx(raw_to_cm(800))
    assert cm[1, 2] == pytest.approx(raw_to_cm(500))
    assert np.isnan(cm[1, 0]) and np.isnan(cm[1, 1])
