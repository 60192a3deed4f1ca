"""Conversion between 11-bit raw disparity and metric depth.

The sensor reports 2048 disparity levels per pixel.  Metric depth follows
a tangent model, ``depth_cm = k * tan(h * raw + l) - o``, which has a pole
inside the 11-bit range (raw ~1116.6 with the default constants), so all
conversions are restricted to an explicit valid domain.  Raw value 2047
is reserved as the "no measurement" sentinel and never converts.

The model is evaluated in one place: a calibration's cm_table holds the
depth of all 2048 raw codes (NaN past raw_valid_max), and raw_to_cm reads
its depth from that table, so a scalar depth and a table entry never
differ by round-off.  The detection path never converts a frame: a metric
threshold is a test on the table, compared with the frame in raw space.
A tiny h_rad puts the pole far past the 11-bit range: every code up to
2046 is then in the domain, and the table is close to flat.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import DomainError

RAW_SENTINEL = 2047
RAW_CEILING = 2046  # largest raw value that could ever carry a measurement


@dataclass(frozen=True)
class CalibrationParams:
    """Tangent-model constants plus the usable raw range.

    Defaults are the published constants for this sensor class.  The model
    is only trusted up to ``raw_valid_max``; disparities beyond it sit too
    close to the tangent pole to convert into meaningful depths.
    """

    h_rad: float = 3.5e-4  # radians per raw unit
    k_cm: float = 12.36
    l_rad: float = 1.18
    o_cm: float = 3.7
    raw_valid_max: int = 1100

    def __post_init__(self) -> None:
        for name in ("h_rad", "k_cm", "l_rad", "o_cm"):
            value = getattr(self, name)
            # bool is an int subclass, so True would pass as 1
            if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
                raise DomainError(f"calibration parameter {name} must be a finite number, "
                                  f"not {value!r}")
        if self.h_rad <= 0 or self.k_cm <= 0:
            raise DomainError("h_rad and k_cm must be positive")
        if self.l_rad <= -math.pi / 2:
            # a second pole at h*raw + l = -pi/2 would break monotonicity
            raise DomainError("l_rad must exceed -pi/2")
        # cm_table takes the codes 0..raw_valid_max
        if isinstance(self.raw_valid_max, bool) or not isinstance(self.raw_valid_max, Integral):
            raise DomainError(f"raw_valid_max must be an integer, not {self.raw_valid_max!r}")
        if not 0 <= self.raw_valid_max <= RAW_CEILING:
            raise DomainError("raw_valid_max must lie in [0, 2046]")
        bound = valid_domain(self)
        if self.raw_valid_max > bound:
            raise DomainError(
                f"raw_valid_max={self.raw_valid_max} exceeds the tangent-pole bound {bound}"
            )

    @functools.cached_property
    def cm_table(self) -> np.ndarray:
        """Depth of every raw code 0..2047, NaN past raw_valid_max; read-only."""
        valid = np.arange(self.raw_valid_max + 1, dtype=np.float64)
        cm = np.full(RAW_SENTINEL + 1, np.nan)
        cm[:valid.size] = self.k_cm * np.tan(self.h_rad * valid + self.l_rad) - self.o_cm
        cm.flags.writeable = False
        return cm


def valid_domain(params: CalibrationParams) -> int:
    """Largest raw value that still converts to a finite depth.

    The largest code in 0..2046 with ``h*raw + l < pi/2``, taken in the
    same float arithmetic the conversions use, so round-off at the pole
    cannot put a code on the wrong side.  Raises DomainError when even
    raw 0 sits past the pole.
    """
    below = np.flatnonzero(params.h_rad * np.arange(RAW_CEILING + 1) + params.l_rad < math.pi / 2)
    if not below.size:
        raise DomainError("empty calibration domain: l_rad is at or past pi/2")
    return int(below[-1])


DEFAULT_CALIBRATION = CalibrationParams()


def raw_to_cm(raw: int, params: CalibrationParams = DEFAULT_CALIBRATION) -> float:
    """Convert one raw disparity sample to depth in centimeters.

    The value is ``params.cm_table[raw]``.  Strictly increasing over the
    valid domain, so raw-space comparisons and metric comparisons agree.
    """
    if raw == RAW_SENTINEL:
        raise DomainError("raw 2047 is the no-measurement sentinel")
    if not 0 <= raw <= params.raw_valid_max:
        raise DomainError(
            f"raw disparity {raw} outside valid domain [0, {params.raw_valid_max}]"
        )
    return float(params.cm_table[raw])


def cm_to_raw(depth_cm: float, params: CalibrationParams = DEFAULT_CALIBRATION) -> int:
    """Inverse of raw_to_cm, rounded to the nearest raw step.

    Round-trips with raw_to_cm to within one raw unit.  Raises DomainError
    for a non-finite depth or one whose disparity falls outside the valid
    domain.
    """
    if not math.isfinite(depth_cm):
        raise DomainError(f"depth {depth_cm} cm is not finite")
    raw = (math.atan((depth_cm + params.o_cm) / params.k_cm) - params.l_rad) / params.h_rad
    if math.isfinite(raw):  # a tiny h_rad can overflow it
        raw = round(raw)
    if not 0 <= raw <= params.raw_valid_max:
        raise DomainError(
            f"depth {depth_cm} cm maps to raw {raw:.6g}, outside [0, {params.raw_valid_max}]"
        )
    return raw


def cm_per_raw(raw: int, params: CalibrationParams = DEFAULT_CALIBRATION) -> float:
    """Metric size of one raw step at the given disparity (the model's slope).

    Grows quickly toward the pole: a raw unit spans ~0.12 cm at 60 cm but
    ~0.67 cm at 150 cm.
    """
    if not 0 <= raw <= params.raw_valid_max:
        raise DomainError(
            f"raw disparity {raw} outside valid domain [0, {params.raw_valid_max}]"
        )
    return params.k_cm * params.h_rad / math.cos(params.h_rad * raw + params.l_rad) ** 2
