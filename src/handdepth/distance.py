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
after about inradius offsets.  Under a limit the last offset is fixed
before the loop, from the limit and the largest row distance, so the
loop takes no reduction.  Cost is O(pixels * offsets), with the offsets
running along axis 0 up to h, and O(pixels) memory.  Everything stays
in integers; the square root is taken only when a radius is reported,
so comparisons, such as extract_palm's two r*r thresholds, are exact.
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

    The offset pass reads g from gp, padded with rows of ``iinfo.max // 2``,
    at three calls per offset.  Without a limit it stops once k^2 reaches
    the largest remaining value.  With one it runs k = 1 ..
    ``isqrt(min(limit, g.max()))`` (at most h - 1), fixed up front, with no
    reduction in the loop.  An entry's minimising offset k has
    k^2 <= its value <= g.max(), and no offset past the uncapped stop
    lowers an entry, so the whole array equals that of a capped loop
    that also stops on the largest remaining value.
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
    top = int(row.max()) ** 2  # g.max()
    last = min(h - 1, math.isqrt(top if limit is None else max(0, min(limit, top))))
    # The pad is at least far**2, above every g, and pad + k*k still fits
    # the dtype because 2 * far**2 does, so a pad row never lowers an entry.
    gp = np.full((h + 2 * last, w), np.iinfo(dtype).max // 2, dtype=dtype)
    g = gp[last:last + h]
    np.multiply(row, row, out=g)
    out = g.copy()
    tmp = np.empty_like(out)
    for k in range(1, last + 1):
        if limit is None and k * k >= out.max():
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
