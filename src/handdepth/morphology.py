"""Palm opening.

The palm is the hand's opening by a closed disk of radius r (integer
offsets with dx^2 + dy^2 <= r^2), taken as two thresholds on exact
squared distances.  The erosion keeps the pixels whose squared distance
to background, the hand's distance_transform, exceeds r*r.  The
dilation marks the pixels whose squared distance to that core, from
sq_edt, is at most r*r.  Both thresholds are exact for closed disks.
The dilation caps its transform at r*r, so it stops after r offsets,
and it runs only on the core's bbox grown by r.  Out-of-frame pixels
count as background.

One distance map per hand gives the palm inradius, the erosion and the
palm-center argmax.  The fingers are what the opening strips off the
hand; fingertips.detect_fingertips splits them.
"""

from __future__ import annotations

import numpy as np

from .distance import sq_edt
from .errors import EmptyResultError


def extract_palm(hand_dist: np.ndarray, radius: int) -> np.ndarray:
    """Strip everything thinner than the disk (the fingers), keeping the palm body.

    Takes the hand's distance_transform and returns the hand's opening by
    the disk.  Raises EmptyResultError when the radius exceeds the palm
    inradius and the opening annihilates the hand entirely.
    """
    if radius < 1:
        raise ValueError("palm extraction radius must be >= 1")
    rr = radius * radius
    core = hand_dist > rr
    rows, cols = np.flatnonzero(core.any(axis=1)), np.flatnonzero(core.any(axis=0))
    if rows.size == 0:
        raise EmptyResultError(f"opening by radius {radius} left no palm")
    # A pixel more than r outside the core's bbox is more than r from the
    # core, so the dilation runs on that bbox grown by r (clipped).
    window = (slice(max(rows[0] - radius, 0), rows[-1] + radius + 1),
              slice(max(cols[0] - radius, 0), cols[-1] + radius + 1))
    opened = np.zeros_like(core)
    opened[window] = sq_edt(core[window], limit=rr) <= rr
    return opened


def auto_radius(palm_inradius: float) -> int:
    """Structuring-element radius: 0.7 of the measured palm inradius, at least 1.

    A fixed radius would break as the hand moves nearer or farther; a
    fraction of the inradius tracks the hand's apparent size.
    """
    if palm_inradius < 1:
        raise ValueError("palm inradius must be >= 1")
    return max(1, round(0.7 * palm_inradius))

