"""Exact squared Euclidean distance transform and palm-center extraction.

The transform is separable and runs as whole-array numpy passes.  The
row pass finds, for every pixel, the nearest target column to its left
(a running maximum of target column indices along each row) and to its
right (a running minimum from the right); the smaller gap is the exact
1-D row distance g.  The offset pass starts from g and, for each offset
k = 1, 2, ... down the columns, lowers every entry to g[y - k, x] + k^2
and g[y + k, x] + k^2 where those are smaller; each update is one
contiguous block of whole rows.  No offset can lower an entry once k^2
reaches the largest current value, so the pass stops there: for a hand
mask after about inradius offsets.  Cost is O(pixels * offsets), with
the offsets running along axis 0 up to h, and O(pixels) memory.
Everything stays in integers; the square root is taken only when a
radius is reported, so comparisons, such as extract_palm's two r*r
thresholds, are exact.
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


def sq_edt(target: np.ndarray, *, limit: int | None = None) -> np.ndarray:
    """Exact squared distance from every pixel to the nearest True pixel.

    If no pixel is True, every entry holds a value strictly larger than
    any squared distance realizable on the grid.  With ``limit``, entries
    up to ``limit`` are exact and every other entry is only guaranteed to
    exceed it, which is all a threshold at ``limit`` needs.
    """
    h, w = target.shape
    far = h + w + 1
    if not target.any():
        return np.full((h, w), far * far, dtype=np.int64)
    # Every intermediate stays below 2 * far**2, so int32 holds it on any
    # realistic frame; int32 halves the memory traffic of the offset pass.
    dtype = np.int32 if 2 * far * far <= np.iinfo(np.int32).max else np.int64
    cols = np.arange(w, dtype=dtype)
    left = np.maximum.accumulate(np.where(target, cols, -far), axis=1)
    right = np.minimum.accumulate(np.where(target, cols, w + far)[:, ::-1], axis=1)[:, ::-1]
    row = np.minimum(np.minimum(cols - left, right - cols), far)
    g = row * row
    out = g.copy()
    k = 1
    while k < h and k * k < out.max() and (limit is None or k * k <= limit):
        kk = k * k
        np.minimum(out[k:], g[:-k] + kk, out=out[k:])
        np.minimum(out[:-k], g[k:] + kk, out=out[:-k])
        k += 1
    return out.astype(np.int64, copy=False)


def distance_transform(mask: np.ndarray) -> np.ndarray:
    """Squared distance from each pixel to the nearest background pixel.

    The mask is treated as if surrounded by background, so foreground
    touching the frame edge still gets a finite distance.  Background
    pixels hold exactly 0, foreground pixels at least 1.
    """
    padded = np.pad(mask, 1, constant_values=False)
    return sq_edt(~padded)[1:-1, 1:-1]


def find_palm_center(dist: np.ndarray, hand_mask: np.ndarray) -> PalmCenter:
    """Argmax of the distance map over the hand's pixels.

    Ties resolve to the smallest y, then the smallest x.  Raises
    DegenerateHandError when the hand is nowhere farther than one pixel
    from background (no palm body to speak of).
    """
    if dist.shape != hand_mask.shape:
        raise ValueError("distance map and hand mask shapes differ")
    vals = np.where(hand_mask, dist, -1)
    best = int(vals.max())
    if best <= 1:
        raise DegenerateHandError("hand mask is thinner than 2 px everywhere")
    flat = int(np.argmax(vals))  # first max in row-major order: min y, then min x
    y, x = divmod(flat, vals.shape[1])
    return PalmCenter(x=x, y=y, inradius_px=math.sqrt(best))
