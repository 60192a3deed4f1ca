"""Exact squared Euclidean distance transform and palm-center extraction.

The transform is separable and runs as whole-array numpy passes.  The
row pass finds, for every pixel, the nearest target column to its left
(a running maximum of target column indices along each row) and to its
right (a running minimum from the right); the smaller gap is the exact
1-D row distance g.  The offset pass starts from g and, for each offset
k = 1, 2, ... down the columns, lowers every entry to g[y - k, x] + k^2
or g[y + k, x] + k^2 where that is smaller.  g sits between rows of a
large pad value in one buffer gp, so both neighbours of every entry are
contiguous blocks of whole rows of gp, and an offset costs three calls:
the smaller neighbour into one scratch buffer, plus k^2, then the
minimum into the result.  No offset can lower an entry once k^2 reaches
the largest current value, so the pass stops there: for a hand mask
after about inradius offsets.  The offset pass runs in the narrowest
of uint16, int32 and int64 that holds twice the largest row distance
squared, which on a hand crop is uint16: its 1-px background border
meets every row.  Cost is O(pixels * offsets), with the offsets
running along axis 0 up to h, and O(pixels) memory.  Everything stays
in integers; the square root is taken only when a radius is reported,
so comparisons, such as extract_palm's r*r threshold, are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHandError


@dataclass(frozen=True)
class PalmCenter:
    """Deepest point of a hand mask: the distance-transform argmax."""

    x: int
    y: int
    inradius_px: float


def sq_edt(target: np.ndarray) -> np.ndarray:
    """Exact squared distance from every pixel to the nearest True pixel.

    If no pixel is True, every entry holds a value strictly larger than
    any squared distance realizable on the grid.

    The offset pass reads g from gp, padded with rows of ``iinfo.max // 2``
    of the first of uint16, int32 and int64 whose ``max // 2`` is at
    least g.max(), at three calls per offset, and stops once k^2 reaches
    the largest remaining value.  The pad is at least every true value,
    and pad + k^2 <= 2 * (max // 2) because k^2 <= g.max(), so nothing
    wraps and a pad row never lowers an entry.
    """
    h, w = target.shape
    far = h + w + 1
    if not target.any():
        return np.full((h, w), far * far, dtype=np.int64)
    # row * row < far**2 fits the row pass's dtype on any realistic frame.
    dtype = np.int32 if 2 * far * far <= np.iinfo(np.int32).max else np.int64
    cols = np.arange(w, dtype=dtype)
    left = np.maximum.accumulate(np.where(target, cols, -far), axis=1)
    right = np.minimum.accumulate(np.where(target, cols, w + far)[:, ::-1], axis=1)[:, ::-1]
    row = np.minimum(np.minimum(cols - left, right - cols), far)
    top = int(row.max()) ** 2  # g.max()
    # A hand crop's 1-px background border meets every row, so there top is
    # about (w / 2)**2 at most, and uint16 holds it below ~360 px of width.
    dtype = next(t for t in (np.uint16, np.int32, np.int64) if top <= np.iinfo(t).max // 2)
    last = min(h - 1, math.isqrt(top))
    gp = np.full((h + 2 * last, w), np.iinfo(dtype).max // 2, dtype=dtype)
    g = gp[last:last + h]
    np.multiply(row, row, out=g, casting="unsafe")  # exact: row * row <= top <= the pad
    out = g.copy()
    tmp = np.empty_like(out)
    for k in range(1, last + 1):
        if k * k >= out.max():
            break
        np.minimum(gp[last - k:last - k + h], gp[last + k:last + k + h], out=tmp)
        tmp += k * k
        np.minimum(out, tmp, out=out)
    return out.astype(np.int64, copy=False)


def distance_transform(mask: np.ndarray) -> np.ndarray:
    """Squared distance from each pixel to the nearest background pixel.

    The mask is treated as if surrounded by background, so foreground
    touching the frame edge still gets a finite distance.  Background
    pixels hold exactly 0, foreground pixels at least 1.
    """
    h, w = mask.shape
    target = np.ones((h + 2, w + 2), dtype=bool)
    np.logical_not(mask, out=target[1:-1, 1:-1])
    return sq_edt(target)[1:-1, 1:-1]


def find_palm_center(dist: np.ndarray) -> PalmCenter:
    """Argmax of a hand's distance_transform.

    Ties resolve to the smallest y, then the smallest x.  The map holds
    0 off the hand and at least 1 on it, so a maximum above 1 lies on the
    hand.  Raises DegenerateHandError when the hand is nowhere farther
    than one pixel from background (no palm body to speak of).
    """
    flat = int(np.argmax(dist))  # first max in row-major order: min y, then min x
    y, x = divmod(flat, dist.shape[1])
    best = int(dist[y, x])
    if best <= 1:
        raise DegenerateHandError("hand mask is thinner than 2 px everywhere")
    return PalmCenter(x=x, y=y, inradius_px=math.sqrt(best))
