"""Fingertip extraction: the minimum-depth pixel of each finger.

Fingers angled toward the camera are closest at the tip, so within each
finger (a Blob, searched inside its own bbox) the pixel with the
smallest depth is taken as the fingertip.  The minimum is computed on
raw values, not centimeters: calibration is strictly increasing, so the
argmin is the same pixel, and integer comparison sidesteps float ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationParams, DEFAULT_CALIBRATION, raw_to_cm
from .segmentation import Blob


@dataclass(frozen=True)
class Fingertip:
    """A finger's minimum-depth pixel; ``finger_index`` is the finger's rank by area."""

    x: int
    y: int
    depth_cm: float
    finger_index: int


def detect_fingertips(
    samples: np.ndarray,
    fingers: list[Blob],
    params: CalibrationParams = DEFAULT_CALIBRATION,
) -> list[Fingertip]:
    """One fingertip per finger, indexed by position in the input list.

    On finger_masks' list, largest first, ``finger_index`` is the
    finger's rank by area (0 for the largest).

    ``samples`` holds the raw depths of the array the fingers were
    labelled in (a hand's crop of a DepthFrame's samples).

    Each tip is the minimum within its finger's bbox, over the finger's
    pixels; ties on the minimum resolve to the smallest y, then smallest x.
    Sentinel dropouts inside a finger are skipped; a finger with no usable
    sample at all contributes no tip (the finger is omitted, not fatal).
    """
    tips = []
    for index, finger in enumerate(fingers):
        # Unusable samples are exactly the codes above raw_valid_max, so the
        # raw minimum is usable whenever any sample of the finger is, and
        # every pixel tied at it is usable too.
        x, y, lowest = finger.lowest(samples)
        if lowest > params.raw_valid_max:
            continue
        tips.append(Fingertip(x=x, y=y, depth_cm=raw_to_cm(lowest, params), finger_index=index))
    return tips
