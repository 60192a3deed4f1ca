"""Exact squared Euclidean distance transform and palm-center extraction.

The transform is separable and runs as whole-array numpy passes.  The
column pass finds, for every pixel, the nearest target row above it (a
running maximum of target row indices down each column) and below it (a
running minimum up each column); the smaller gap is the exact 1-D
column distance g.  The row pass starts from g and, for each offset
k = 1, 2, ..., lowers every entry to g[y, x - k] + k^2 and
g[y, x + k] + k^2 where those are smaller.  No offset can lower an
entry once k^2 reaches the largest current value, so the pass stops
there: for a hand mask after about inradius offsets.  Cost is
O(pixels * offsets) with O(pixels) memory.  Everything stays in
integers; the square root is taken only when a radius is reported, so
comparisons, such as extract_palm's two r*r thresholds, are exact.
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
    # realistic frame; int32 halves the memory traffic of the row pass.
    dtype = np.int32 if 2 * far * far <= np.iinfo(np.int32).max else np.int64
    rows = np.arange(h, dtype=dtype)[:, None]
    above = np.maximum.accumulate(np.where(target, rows, -far), axis=0)
    below = np.minimum.accumulate(np.where(target, rows, h + far)[::-1], axis=0)[::-1]
    col = np.minimum(np.minimum(rows - above, below - rows), far)
    g = col * col
    out = g.copy()
    k = 1
    while k < w and k * k < out.max() and (limit is None or k * k <= limit):
        kk = k * k
        np.minimum(out[:, k:], g[:, :-k] + kk, out=out[:, k:])
        np.minimum(out[:, :-k], g[:, k:] + kk, out=out[:, :-k])
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
