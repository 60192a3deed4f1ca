"""Depth-band hand segmentation and 8-connected blob extraction.

A hand is whatever connected region sits within a metric depth band of a
seed pixel.  Seeds either come from an external tracker or from the
nearest-object heuristic in find_hand_seeds (hands are assumed to be the
closest things to the camera).

Band and slab thresholds are defined by a test on the calibration's
cm_table.  Calibration is monotone, so the codes that pass form one
interval of raw values, and the mask is one uint16 interval compare on
the samples; a table whose codes are not contiguous falls back to a
lookup.  Labelling takes all runs of a mask from its flat foreground
indices (a run breaks at a jump or a row start), finds the runs that
touch across rows by binary search, merges them by hook and compress
(Shiloach & Vishkin, J. Algorithms 1982): each round, every root joined
to another hooks onto the least root it touches and pointers jump to the
roots, until no pair joins two roots.  Round one, from every run as its
own root, is one call: each run hooks onto the first run above it that
it touches, so a chain climbs one row per link and h.bit_length()
unchecked jumps reach its root.  A hook only goes to a smaller run
index, so a root is its component's first run in raster order, the
components come out in the raster order of their first pixels, and a
component's index is its root's rank (no sort).  Stats come from the
same runs (run-based labelling, He, Chao & Suzuki, IEEE TIP 2008).  Each
component is its bbox and a boolean mask of the bbox's shape, painted
from its own runs; no frame-sized label image is built.

The whole frame is labelled once, for the slab.  segment_hand builds
the band's table over raw codes and ends in one of two ways:

- Slab blob returned.  Every raw code of the band is a slab code, so
  the band mask lies inside the slab mask, and a band pixel touching
  the seed's band component is a slab pixel touching the seed's slab
  blob S, hence in it: the component lies inside S.  If, thresholded
  over S's bbox, every pixel of S is a band pixel, then S is connected,
  in the band and holds the seed, so the component also contains S.
  The two are equal, and S comes back with nothing labelled.
- Whole frame labelled.  In every other case: some pixel of S lies
  outside the band, the band reaches past the slab (a hand more than
  slab_cm - band_cm behind the nearest pixel, or band_cm >= slab_cm),
  or the seed carries no slab.

fill_holes labels the hand crop's background runs with 4-connectivity,
with no padding: pixels past the crop's border count as background, so
a background component is outside when any of its runs touches the
border, and every other component is a hole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationParams, DEFAULT_CALIBRATION, raw_to_cm
from .errors import NotFoundError, number
from .frame_io import DepthFrame


@dataclass(frozen=True)
class HandSeed:
    """A pixel assumed to lie on a hand, with the raw depth found there.

    A seed from find_hand_seeds also carries ``slab``: the slab blob it
    lies in and the slab's table over raw codes, valid for the frame the
    seed was found in.  A seed made elsewhere (a tracker, a test) has
    none.  ``slab`` takes no part in equality.
    """

    x: int
    y: int
    depth_raw: int
    slab: tuple[Blob, np.ndarray] | None = field(default=None, compare=False, repr=False)


@dataclass(eq=False)
class Blob:
    """One maximal connected foreground component: its area, bbox and mask.

    ``mask`` has the bbox's shape and marks the component's pixels in
    it; ``box`` places it in the labelled array.  The blob holds no
    frame-sized label image.
    """

    area: int
    bbox: tuple[int, int, int, int]  # min_x, min_y, max_x, max_y (inclusive)
    mask: np.ndarray = field(repr=False)  # bool, (max_y - min_y + 1, max_x - min_x + 1)

    @property
    def box(self) -> tuple[slice, slice]:
        """The (rows, cols) slices of the bbox."""
        min_x, min_y, max_x, max_y = self.bbox
        return slice(min_y, max_y + 1), slice(min_x, max_x + 1)

    def contains(self, x: int, y: int) -> bool:
        min_x, min_y, max_x, max_y = self.bbox
        return min_x <= x <= max_x and min_y <= y <= max_y and bool(self.mask[y - min_y, x - min_x])

    def lowest(self, values: np.ndarray) -> tuple[int, int, int]:
        """``(x, y, value)`` of the least of ``values`` over the blob's own pixels.

        ``values`` is indexed like the labelled array; ties go to the first in raster order.
        """
        vals = values[self.box][self.mask]
        i = int(np.argmin(vals))
        dy, dx = divmod(int(np.flatnonzero(self.mask)[i]), self.mask.shape[1])
        return self.bbox[0] + dx, self.bbox[1] + dy, vals[i].item()


def _label_runs(mask: np.ndarray, connectivity: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """First run of each component, flat foreground indices and ``(row, start, end, component)``.

    Every maximal run of True is a half-open [start, end) span, listed in
    raster order (as are the flat indices) with its 0-based component index.
    ``connectivity`` is 4 or 8.
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    flat = np.flatnonzero(mask)
    # new_run[i]: a run starts at flat[i], i.e. at the first pixel, after a
    # gap, or at column 0 of a row; the extra last entry closes the last run.
    # Marking the first pixel at or past each row start is safe: if it is
    # not at column 0, a gap precedes it anyway.
    new_run = np.ones(flat.size + 1, dtype=bool)
    np.not_equal(np.diff(flat), 1, out=new_run[1:-1])
    new_run[np.searchsorted(flat, np.arange(1, h) * w)] = True
    first, last = np.flatnonzero(new_run[:-1]), np.flatnonzero(new_run[1:])
    run_y, start = np.divmod(flat[first], w)
    end = flat[last] - run_y * w + 1
    # Run i of the row above touches run j when it ends at or past j's start
    # and starts at or before j's end (one pixel less on each side for
    # 4-connectivity), so the runs touching j are one index range [lo, hi).
    # Rows sit w + 2 apart on the search keys, so no range crosses a row.
    gap, row_key = int(connectivity == 4), run_y * (w + 2)
    above = row_key - (w + 2)
    lo = np.searchsorted(row_key + end, above + start + gap)
    hi = np.searchsorted(row_key + start, above + end - gap, side="right")
    count = np.maximum(hi - lo, 0)
    # Round one of hook and compress (see the module docstring), from every
    # run as its own root, hooks each run onto the first run above it that
    # it touches.  Every pointer then goes up one row, so a chain has at
    # most h - 1 links, and h.bit_length() jumps (2**jumps > h) reach the roots.
    index = np.arange(count.size)
    parent = np.where(count > 0, lo, index)
    for _ in range(h.bit_length()):
        parent = parent[parent]
    # Later rounds take the touching pairs (i, j) round one left: i runs
    # through lo[j] + 1, ..., hi[j] - 1.  Every run points at a root; each
    # round keeps only the pairs whose roots still differ, and stops when
    # none do.
    more = np.maximum(count - 1, 0)
    pair_j = np.repeat(index, more)
    pair_i = np.arange(pair_j.size) + np.repeat(hi - np.cumsum(more), more)
    while True:
        pair_i, pair_j = parent[pair_i], parent[pair_j]
        joins = pair_i != pair_j
        if not joins.any():
            break
        pair_i, pair_j = pair_i[joins], pair_j[joins]
        np.minimum.at(parent, np.maximum(pair_i, pair_j), np.minimum(pair_i, pair_j))
        jumped = parent[parent]
        while (jumped != parent).any():
            parent, jumped = jumped, jumped[jumped]
    # Roots are in raster order, so a component's index is its root's rank.
    is_root = parent == index
    roots, component = np.flatnonzero(is_root), (np.cumsum(is_root) - 1)[parent]
    return roots, flat, (run_y, start, end, component)


def connected_components(mask: np.ndarray) -> list[Blob]:
    """Maximal 8-connected components of the foreground as Blob records.

    The list is in the raster order of each component's first pixel.
    Stats come from the labelled runs, never from a rescan of the mask.
    Every blob's bbox mask is a view into one buffer that holds them all
    back to back, painted in one scatter of the foreground pixels.
    """
    roots, flat, (run_y, start, end, component) = _label_runs(mask, 8)
    count, length = len(roots), end - start

    def extreme(reduce: np.ufunc, values: np.ndarray, init: int) -> np.ndarray:
        out = np.full(count, init)
        reduce.at(out, component, values)
        return out

    w = np.shape(mask)[1]
    # float64 sums of integers stay exact far beyond any frame's totals (2**53)
    area = np.bincount(component, weights=length, minlength=count).astype(np.int64).tolist()
    min_x, min_y = extreme(np.minimum, start, w), run_y[roots]  # a root is its first run
    max_x, max_y = extreme(np.maximum, end - 1, -1), extreme(np.maximum, run_y, -1)
    # Blob c's mask is buf[off[c]:off[c + 1]], its bbox in raster order, so its
    # pixel at flat index y * w + x goes to that index + base[c] + y * (box_w[c] - w).
    box_w = max_x - min_x + 1
    off = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(box_w * (max_y - min_y + 1), out=off[1:])
    buf = np.zeros(int(off[-1]), dtype=bool)
    base = off[:-1] - min_y * box_w - min_x
    buf[flat + np.repeat(base[component] + run_y * (box_w[component] - w), length)] = True
    stats = zip(area, *(v.tolist() for v in (min_x, min_y, max_x, max_y, off)))
    return [
        Blob(a, (x0, y0, x1, y1),
             buf[o:o + (x1 - x0 + 1) * (y1 - y0 + 1)].reshape(y1 - y0 + 1, x1 - x0 + 1))
        for a, x0, y0, x1, y1, o in stats
    ]


def _table_mask(table: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """``table[samples]`` for a boolean table over raw codes and uint16 samples.

    When the True codes form one interval [lo, hi], this is a single
    compare: uint16 subtraction wraps codes below lo around to high
    values, so ``samples - lo <= hi - lo`` holds exactly inside it.
    """
    codes = np.flatnonzero(table)
    if codes.size and codes[-1] - codes[0] + 1 == codes.size:
        lo, hi = np.uint16(codes[0]), np.uint16(codes[-1])  # uint16 keeps the wrap
        return samples - lo <= hi - lo
    return table[samples]


def _band_table(seed: HandSeed, band_cm: float, params: CalibrationParams) -> np.ndarray:
    """The raw codes within +/- band_cm of the seed's depth."""
    if number(band_cm, "band_cm", ValueError) <= 0:
        raise ValueError(f"band_cm must be positive, not {band_cm!r}")
    seed_cm = raw_to_cm(seed.depth_raw, params)  # DomainError unless a valid measurement
    return np.abs(params.cm_table - seed_cm) <= band_cm  # NaN (invalid) is False


def select_hand_blob(blobs: list[Blob], seed: HandSeed) -> Blob:
    """The unique blob containing the seed pixel; NotFoundError if background."""
    for blob in blobs:
        if blob.contains(seed.x, seed.y):
            return blob
    raise NotFoundError(f"seed pixel ({seed.x}, {seed.y}) lies on background")


def find_hand_seeds(
    frame: DepthFrame,
    max_hands: int,
    min_area: int,
    slab_cm: float = 20.0,
    params: CalibrationParams = DEFAULT_CALIBRATION,
) -> list[HandSeed]:
    """Guess up to max_hands seed pixels, assuming hands are the nearest objects.

    Thresholds the frame at the nearest valid depth plus ``slab_cm``,
    keeps components with at least ``min_area`` pixels ordered by area,
    and seeds each at its nearest-depth pixel (raster order on ties).

    The slab is measured from the frame's nearest pixel, not from each
    hand's: fingers reaching more than ``slab_cm`` in front of their
    palm leave only the fingers in the slab, and pieces below
    ``min_area`` seed nothing, so such a hand can be missed entirely.
    """
    number(max_hands, "max_hands", ValueError, integer=True, low=1, high=2)
    number(min_area, "min_area", ValueError, integer=True, low=1)
    if number(slab_cm, "slab_cm", ValueError) <= 0:
        raise ValueError(f"slab_cm must be positive, not {slab_cm!r}")
    samples = frame.samples
    near_raw = int(samples.min())
    if near_raw > params.raw_valid_max:
        raise NotFoundError("frame has no valid depth samples")
    near_cm = raw_to_cm(near_raw, params)
    in_slab = params.cm_table <= near_cm + slab_cm  # NaN (invalid) is False
    blobs = [b for b in connected_components(_table_mask(in_slab, samples)) if b.area >= min_area]
    if not blobs:
        raise NotFoundError(f"no foreground component reaches min_area={min_area}")
    blobs.sort(key=lambda b: -b.area)  # stable: ties stay in raster order
    return [HandSeed(*blob.lowest(samples), slab=(blob, in_slab)) for blob in blobs[:max_hands]]


def segment_hand(
    frame: DepthFrame,
    seed: HandSeed,
    band_cm: float,
    params: CalibrationParams = DEFAULT_CALIBRATION,
) -> Blob:
    """The 8-connected component of the seed's depth band that holds the seed.

    The band is the valid pixels within +/- band_cm of the seed's depth.
    One of two things happens (see the module docstring):

    - every raw code of the band is a slab code and every pixel of the
      seed's slab blob is in the band: that blob is returned itself, so
      its mask is a view into the slab labelling's shared buffer;
    - otherwise, or for a seed without a slab: the band is labelled
      over the whole frame.
    """
    in_band = _band_table(seed, band_cm, params)
    if seed.slab is not None and not (in_band & ~seed.slab[1]).any():
        slab = seed.slab[0]
        if _table_mask(in_band, frame.samples[slab.box])[slab.mask].all():
            return slab  # all band: the slab blob is the band component (module docstring)
    return select_hand_blob(connected_components(_table_mask(in_band, frame.samples)), seed)


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Fill background pockets not connected to the frame border.

    Depth dropouts punch sentinel holes through segmented hands; left in
    place they would wreck the distance transform (a hole looks like
    background right next to the palm center).  Background is traced with
    4-connectivity, the proper dual of 8-connected foreground.

    Pixels past the border count as background, so a background
    component is outside exactly when one of its runs touches the border;
    every other component is a hole.  The input is not written to.
    """
    filled = np.array(mask, dtype=bool)
    h, w = filled.shape
    roots, flat, (run_y, start, end, component) = _label_runs(~filled, 4)
    outside = np.zeros(len(roots), dtype=bool)
    outside[component[(run_y == 0) | (run_y == h - 1) | (start == 0) | (end == w)]] = True
    filled.ravel()[flat[np.repeat(~outside[component], end - start)]] = True
    return filled
