"""Palm opening.

The palm is the hand's opening by a closed disk of radius r (integer
offsets with dx^2 + dy^2 <= r^2).  The erosion keeps the pixels whose
squared distance to background, the hand's distance_transform, exceeds
r*r: an exact threshold.  The dilation is painted from the core's runs,
found by segmentation._runs.  A core pixel's disk covers, on the row dy
away, the columns within a = isqrt(r*r - dy*dy) of it, so a run [s, e)
covers [s - a, e + a) there; the 2r + 1 half-widths a of each radius
are computed once and cached.  Every run and every dy in [-r, r] marks
+1 at the start and -1 at the end of its span, and one prefix sum,
positive exactly where some span covers, is the union of the disks.
The marks go on a canvas of the core's bbox grown by r, large enough
that no span needs clipping; its in-crop part is the dilation.
Out-of-crop pixels count as background.

One distance map per hand gives the palm inradius, the erosion and the
palm-center argmax.  The fingers are what the opening strips off the
hand; fingertips.detect_fingertips splits them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import EmptyResultError
from .segmentation import _runs


@functools.lru_cache(maxsize=128)
def _reach(radius: int) -> np.ndarray:
    """isqrt(r*r - dy*dy) for dy in [-r, r]: the disk's half-width dy rows away; read-only."""
    rr = radius * radius
    reach = np.array([math.isqrt(rr - dy * dy) for dy in range(-radius, radius + 1)])
    reach.flags.writeable = False
    return reach


def extract_palm(hand_dist: np.ndarray, radius: int) -> np.ndarray:
    """Strip everything thinner than the disk (the fingers), keeping the palm body.

    Takes the hand's distance_transform and returns the hand's opening by
    the disk.  Raises EmptyResultError when the radius exceeds the palm
    inradius and the opening annihilates the hand entirely.
    """
    if radius < 1:
        raise ValueError("palm extraction radius must be >= 1")
    core = hand_dist > radius * radius
    h, w = core.shape
    run_y, start, end = _runs(core)
    if run_y.size == 0:
        raise EmptyResultError(f"opening by radius {radius} left no palm")
    # The canvas spans the core's bbox grown by r, plus a column that takes
    # the -1 of spans reaching its right edge; (x0, y0) is its corner.
    x0, y0 = int(start.min()) - radius, int(run_y[0]) - radius
    cw, ch = int(end.max()) + radius - x0 + 1, int(run_y[-1]) + radius - y0 + 1
    reach = _reach(radius)
    base = (run_y[:, None] + np.arange(-radius - y0, radius - y0 + 1)) * cw - x0
    n = ch * cw
    marks = (np.bincount((base + (start[:, None] - reach)).ravel(), minlength=n)
             - np.bincount((base + (end[:, None] + reach)).ravel(), minlength=n))
    canvas = (marks.cumsum() > 0).reshape(ch, cw)
    opened = np.zeros((h, w), dtype=bool)
    ya, xa, yb, xb = max(y0, 0), max(x0, 0), min(y0 + ch, h), min(x0 + cw - 1, w)
    opened[ya:yb, xa:xb] = canvas[ya - y0:yb - y0, xa - x0:xb - x0]
    return opened


def auto_radius(palm_inradius: float) -> int:
    """Structuring-element radius: 0.7 of the measured palm inradius, at least 1.

    A fixed radius would break as the hand moves nearer or farther; a
    fraction of the inradius tracks the hand's apparent size.
    """
    if palm_inradius < 1:
        raise ValueError("palm inradius must be >= 1")
    return max(1, round(0.7 * palm_inradius))

