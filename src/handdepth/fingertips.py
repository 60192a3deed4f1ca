"""Finger split and fingertips: the minimum-depth pixel of each finger.

The fingers are the components of the hand minus its palm: a set, kept
largest first.  Fingers angled toward the camera are closest at the
tip, so each finger's smallest-depth pixel is its fingertip.  One run
labelling gives the areas and one keyed minimum all the tips.  Minima
are taken on raw values: calibration is non-decreasing (checked at
construction), so no code is nearer than the least raw code, and
integer comparison sidesteps float ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationParams, DEFAULT_CALIBRATION, raw_to_cm
from .segmentation import _link, _pixels, _runs


@dataclass(frozen=True)
class Fingertip:
    """A finger's minimum-depth pixel; ``finger_index`` is the finger's rank by area."""

    x: int
    y: int
    depth_cm: float
    finger_index: int


def detect_fingertips(
    hand: np.ndarray,
    palm: np.ndarray,
    samples: np.ndarray,
    params: CalibrationParams = DEFAULT_CALIBRATION,
) -> list[Fingertip]:
    """One fingertip per finger of ``hand & ~palm``, ``finger_index`` its rank by area.

    ``samples`` holds the raw depths of the masks' array (a hand's crop).
    Components below 1 % of the hand's area (at least 4 px) are palm-rim
    slivers; at most the five largest others are fingers, ties on area in
    the raster order of their first pixels.  A fist has none.  Each tip
    is the finger's least raw sample, ties to the smallest y, then x.  A
    finger with no usable sample gives no tip; the others keep their ranks.
    """
    remnant = hand > palm  # hand and not palm, in one ufunc
    h, w = remnant.shape
    run_y, start, end = _runs(remnant)
    roots, component = _link(run_y, start, end, h, 8)
    length = end - start
    area = np.bincount(component, weights=length, minlength=len(roots))
    kept = (area >= max(4, round(0.05 * int(hand.sum()) / 5))).nonzero()[0]
    kept = kept[(-area[kept]).argsort(kind="stable")[:5]]  # stable: ties stay in raster order
    # The least key raw * size + flat index is the least raw, ties to the
    # first pixel in raster order.
    size, flat = remnant.size, _pixels(run_y, start, end, w)
    key = np.full(len(roots), 2**63 - 1)  # int64 max
    np.minimum.at(key, component.repeat(length), samples.take(flat).astype(np.int64) * size + flat)
    tips = []
    for rank, lowest in enumerate(key[kept].tolist()):
        raw, index = divmod(lowest, size)
        # Unusable samples are exactly the codes above raw_valid_max, so the
        # raw minimum is usable whenever any sample of the finger is.
        if raw > params.raw_valid_max:
            continue
        y, x = divmod(index, w)
        tips.append(Fingertip(x=x, y=y, depth_cm=raw_to_cm(raw, params), finger_index=rank))
    return tips
