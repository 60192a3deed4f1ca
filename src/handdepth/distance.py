"""Exact squared Euclidean distance transform and palm-center extraction.

The transform is separable and runs as whole-array numpy passes over
the hand's crop padded by one background pixel all round.  The row
pass comes from the filled hand's runs: pixel x of a run [s, e) lies
min(x - s + 1, e - x) from background along its row, written for all
the runs' pixels at once, and every other pixel is background, 0.  The
offset pass starts from g = row**2 and, for each offset k = 1, 2, ...
down the columns, lowers every entry to g[y - k, x] + k^2 or
g[y + k, x] + k^2 where that is smaller.  g sits between rows of a
large pad value in one buffer gp, so both neighbours of every entry are
contiguous blocks of whole rows of gp, and an offset costs three calls:
the smaller neighbour into one scratch buffer, plus k^2, then the
minimum into the result.  No offset can lower an entry once k^2 reaches
the largest current value, so the pass stops there: for a hand mask
after about inradius offsets.  The stop is checked on odd k only, one
max call per two offsets, and stays exact: if k^2 reaches the maximum
at an even k, offset k lowers nothing, the maximum stays, and the
check at k + 1 stops the pass, so the result is the same and at most
one offset more runs.  The offset pass runs in the narrowest of uint16,
int32 and int64 that holds twice the largest row distance squared,
which on a hand crop is uint16: its 1-px background border meets every
row.  Cost is O(pixels * offsets), with the offsets running along axis
0 up to h, and O(pixels) memory.  Everything stays in integers; the
square root is taken only when a radius is reported, so comparisons,
such as extract_palm's r*r threshold, are exact.
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


# The offset pass's dtypes, narrowest first, each with its pad: half its max.
_PADS = tuple((t, np.iinfo(t).max // 2) for t in (np.uint16, np.int32, np.int64))


def _offset_pass(row: np.ndarray) -> np.ndarray:
    """Exact squared distance to the nearest target, from each pixel's row distance.

    ``row`` holds, for every pixel, the distance along its row to the
    nearest target pixel (a row without one holds a value past every
    distance on the grid).  The offset pass reads g = row**2 from gp,
    padded with rows of ``iinfo.max // 2`` of the first of uint16, int32
    and int64 whose ``max // 2`` is at least g.max(), at three calls per
    offset.  The pad is at least every true value, and pad + k^2 <=
    2 * (max // 2) because k^2 <= g.max(), so nothing wraps and a pad row
    never lowers an entry.  The loop stops once k^2 reaches the largest
    remaining value, checked on odd k only (module docstring).
    """
    h, w = row.shape
    top = int(row.max()) ** 2  # g.max()
    dtype, pad = next(t for t in _PADS if top <= t[1])
    last = min(h - 1, math.isqrt(top))
    gp = np.full((h + 2 * last, w), pad, dtype=dtype)
    g = gp[last:last + h]
    np.multiply(row, row, out=g, casting="unsafe")  # exact: row * row <= top <= the pad
    out = g.copy()
    tmp = np.empty_like(out)
    for k in range(1, last + 1):
        if k & 1 and k * k >= out.max():
            break
        np.minimum(gp[last - k:last - k + h], gp[last + k:last + k + h], out=tmp)
        tmp += k * k
        np.minimum(out, tmp, out=out)
    return out.astype(np.int64, copy=False)


def distance_transform(runs: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Squared distance from each pixel to the nearest background pixel.

    ``runs`` is the (3, n) row, start and end array of a ``shape`` mask's
    maximal [start, end) runs, as fill_holes gives it.  The mask is
    treated as if surrounded by background, so foreground touching the
    frame edge still gets a finite distance.  Background pixels hold
    exactly 0, foreground pixels at least 1.
    """
    h, w = shape
    run_y, start, end = runs
    length = end - start
    # On the crop padded by one background pixel all round, pixel x of a
    # run [s, e) is min(x - s + 1, e - x) from background along its row.
    # With the runs' pixels numbered 0, 1, ... in raster order, pixel t
    # lies d = t - first pixels into its run, at flat index pos + d of the
    # padded crop; rep holds first, pos and the length per pixel.
    first = length.cumsum() - length
    rep = np.array((first, (run_y + 1) * (w + 2) + start + 1, length)).repeat(length, axis=1)
    d = np.arange(rep.shape[1]) - rep[0]
    row = np.zeros((h + 2, w + 2), dtype=np.int64)
    row.ravel()[d + rep[1]] = np.minimum(d + 1, rep[2] - d)
    return _offset_pass(row)[1:-1, 1:-1]


def find_palm_center(dist: np.ndarray) -> PalmCenter:
    """Argmax of a hand's distance_transform.

    Ties resolve to the smallest y, then the smallest x.  The map holds
    0 off the hand and at least 1 on it, so a maximum above 1 lies on the
    hand.  Raises DegenerateHandError when the hand is nowhere farther
    than one pixel from background (no palm body to speak of).
    """
    flat = int(dist.argmax())  # first max in row-major order: min y, then min x
    y, x = divmod(flat, dist.shape[1])
    best = int(dist[y, x])
    if best <= 1:
        raise DegenerateHandError("hand mask is thinner than 2 px everywhere")
    return PalmCenter(x=x, y=y, inradius_px=math.sqrt(best))
