"""Fingertip extraction: the minimum-depth pixel of each finger mask.

Fingers angled toward the camera are closest at the tip, so within each
finger mask the pixel with the smallest depth is taken as the fingertip.
The minimum is computed on raw values, not centimeters: calibration is
strictly increasing, so the argmin is the same pixel, and integer
comparison sidesteps float ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationParams, DEFAULT_CALIBRATION, raw_to_cm
from .errors import NoValidDepthError
from .frame_io import DepthFrame

_NO_DEPTH = 4096  # larger than any raw sample; stands in for "unusable"


@dataclass(frozen=True)
class Fingertip:
    x: int
    y: int
    depth_cm: float
    finger_index: int


def detect_fingertips(
    frame: DepthFrame,
    finger_masks: list[np.ndarray],
    params: CalibrationParams = DEFAULT_CALIBRATION,
) -> list[Fingertip]:
    """One fingertip per finger mask, indexed by position in the input list.

    Ties on the minimum resolve to the smallest y, then smallest x.
    Sentinel dropouts inside a mask are skipped; a mask with no usable
    sample at all contributes no tip (the finger is omitted, not fatal).
    """
    samples = frame.samples
    usable = samples <= params.raw_valid_max
    tips = []
    for index, mask in enumerate(finger_masks):
        if mask.shape != samples.shape:
            raise ValueError("finger mask shape differs from the frame")
        if not mask.any():
            raise ValueError("finger masks must be nonempty")
        vals = np.where(mask & usable, samples, _NO_DEPTH)
        lowest = int(vals.min())
        if lowest == _NO_DEPTH:
            continue
        flat = int(np.argmin(vals))  # first min in raster order: min y, then min x
        y, x = divmod(flat, vals.shape[1])
        tips.append(Fingertip(x=x, y=y, depth_cm=raw_to_cm(lowest, params), finger_index=index))
    return tips


def tips_toward_camera_margin(
    frame: DepthFrame,
    finger_mask: np.ndarray,
    params: CalibrationParams = DEFAULT_CALIBRATION,
) -> int:
    """Gap in raw units between a finger's two shallowest distinct depths.

    Zero flags an ambiguous minimum (a flat or fully bent finger whose
    tip cannot be trusted); diagnostics use it to explain misses.
    """
    samples = frame.samples
    usable = finger_mask & (samples <= params.raw_valid_max)
    vals = samples[usable]
    if vals.size == 0:
        raise NoValidDepthError("finger mask has no usable depth samples")
    distinct = np.unique(vals)
    if distinct.size < 2:
        return 0
    return int(distinct[1]) - int(distinct[0])
