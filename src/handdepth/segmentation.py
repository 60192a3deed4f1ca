"""Depth-band hand segmentation and 8-connected blob extraction.

A hand is whatever connected region sits within a metric depth band of a
seed pixel.  Seeds either come from an external tracker or from the
nearest-object heuristic in find_hand_seeds (hands are assumed to be the
closest things to the camera).

Band and slab thresholds are defined by a test on the calibration's
cm_table, which never falls across the valid codes (checked when the
calibration is built), so the codes that pass form one interval [lo, hi]
and the mask is one uint16 compare on the samples.  Labelling has two steps.  _runs, the package's one run
finder (slab, band, opening core and finger split), takes a mask's runs
from its row transitions with no per-pixel index array.  _link takes
runs from anywhere, finds the runs that touch across rows by binary
search and merges them by hook and compress (Shiloach & Vishkin, J.
Algorithms 1982): each round, every root joined to another hooks onto
the least root it touches and pointers jump to the roots, until no pair
joins two roots.  Round one, from every run as its own root, is one
call: each run hooks onto the first run above it that it touches, so a
chain climbs one row per link and h.bit_length() unchecked jumps reach
its root.  A hook only goes to a smaller run index, so a root is its
component's first run in raster order, the components come out in the
raster order of their first pixels, and a component's index is its
root's rank (no sort).  Stats come from the same runs (run-based
labelling, He, Chao & Suzuki, IEEE TIP 2008).  Each component is its
bbox and its own runs moved to the bbox, with no mask or frame-sized
label image; _pixels numbers a run set's pixels where a stage reads them
(a seeded slab blob's codes, the fingertips).

The slab is labelled inside its window, not over the whole frame.  Let
hi be the slab's last code.  Every slab pixel's code is at most hi, so
every slab pixel lies in the window spanning the rows whose least code
is at most hi and, within those rows, the columns whose least code is at
most hi.  The same row minima give the frame's nearest code, so the
window costs one more pass over its own rows.  Cropping keeps raster
order, so the window's components, their order and their bbox-relative
runs are the whole frame's; only the bboxes move, by the window's
corner.  The slab's codes are 0 .. its last, and each seed keeps that
last code and the greatest code of its slab blob S; S's least code is
the seed's.  segment_hand ends in one of two ways:

- Slab blob returned.  The band's last code is at most the slab's, so
  the band mask lies inside the slab mask, and a band pixel touching
  the seed's band component is a slab pixel touching S, hence in it:
  the component lies inside S.  S's greatest code is at most the
  band's last, and the band holds the seed's code, so S lies in the
  band; S is connected and holds the seed, so the component also
  contains S.  The two are equal, and S comes back unlabelled.
- Whole frame labelled.  In every other case: some pixel of S lies
  past the band, the band reaches past the slab (a hand more than
  slab_cm - band_cm behind the nearest pixel, or band_cm >= slab_cm),
  or the seed carries no slab.  The band is labelled over the whole
  frame: it may reach past the slab's window.

fill_holes works on the hand's runs alone, never on its pixels (morphology
on interval-coded images, Ji, Piper & Tang, Pattern Recognition Letters
1989).  On the crop padded by one background pixel all round, the
background runs are the gaps in each row's hand runs: before the first
run, between runs and after the last, the whole row where it has none,
and the two padding rows.  No gap is empty, and the padding rows and
columns join every gap that reaches the crop's border into one
4-connected component, the first in raster order.  _link labels the
gaps 4-connected (the dual of 8-connected foreground), every other
component is a hole, and a filled run runs from a hand run with the
outside before it to the next hand run with the outside after it.
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

    A seed from find_hand_seeds also carries ``slab``: ``(blob, slab_hi,
    far)``, the slab blob it lies in, the slab's last raw code and the
    blob's greatest raw code, valid for the frame the seed was found in.
    A seed made elsewhere (a tracker, a test) has none.  ``slab`` takes
    no part in equality.
    """

    x: int
    y: int
    depth_raw: int
    slab: tuple[Blob, int, int] | None = field(default=None, compare=False, repr=False)


@dataclass(eq=False)
class Blob:
    """One maximal connected foreground component: its area, bbox and runs.

    ``runs`` is the only record of its pixels: maximal [start, end) runs
    of rows, in raster order and bbox coordinates; ``box`` places the bbox.
    """

    area: int
    bbox: tuple[int, int, int, int]  # min_x, min_y, max_x, max_y (inclusive)
    runs: np.ndarray = field(repr=False)  # int64, (3, runs): row, start, end in the bbox

    @property
    def box(self) -> tuple[slice, slice]:
        """The (rows, cols) slices of the bbox."""
        min_x, min_y, max_x, max_y = self.bbox
        return slice(min_y, max_y + 1), slice(min_x, max_x + 1)

    @property
    def shape(self) -> tuple[int, int]:
        """The bbox's (height, width)."""
        min_x, min_y, max_x, max_y = self.bbox
        return max_y - min_y + 1, max_x - min_x + 1

    def contains(self, x: int, y: int) -> bool:
        min_x, min_y, max_x, max_y = self.bbox
        run_y, start, end = self.runs
        # The bbox test first: a labelling's other blobs mostly lie far from (x, y).
        return (min_x <= x <= max_x and min_y <= y <= max_y
                and bool(((run_y == y - min_y) & (start <= x - min_x) & (end > x - min_x)).any()))


def _pixels(run_y: np.ndarray, start: np.ndarray, end: np.ndarray, w: int) -> np.ndarray:
    """The flat indices, in a ``w``-wide array, of the runs' pixels in raster order."""
    # Numbering the pixels 0, 1, ... in that order, the last pixel of each
    # run is its length's prefix sum less 1, at flat index y * w + end - 1.
    length = end - start
    shift = (run_y * w + end - length.cumsum()).repeat(length)
    return np.arange(shift.size) + shift


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row, start, end)``: the maximal [start, end) runs of True of a 2-D mask, in raster order.

    Laid out flat with a False after each row and one in front, the mask
    changes value exactly at run starts and ends, alternately.
    """
    h, w = mask.shape
    padded = np.zeros(h * (w + 1) + 1, dtype=bool)
    padded[1:].reshape(h, w + 1)[:, :w] = mask
    edges = (padded[1:] != padded[:-1]).nonzero()[0]
    run_y, start = np.divmod(edges[0::2], w + 1)
    return run_y, start, edges[1::2] - run_y * (w + 1)


def _link(
    run_y: np.ndarray, start: np.ndarray, end: np.ndarray, h: int, connectivity: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(roots, component)``: the first run of each component and every run's component.

    The runs are disjoint [start, end) spans of rows 0 .. h - 1, int64,
    in raster order, none of them empty; ``connectivity`` is 4 or 8.
    Components are numbered from 0 in the raster order of their first runs.
    """
    # Run i of the row above touches run j when it ends at or past j's start
    # and starts at or before j's end (one pixel less on each side for
    # 4-connectivity), so the runs touching j are one index range [lo, hi).
    # Rows sit 2**32 apart on the search keys, farther than any column, so
    # no range crosses a row, and hi >= lo because no run is empty.  The row
    # above's offset and the gap fold into one scalar per search.
    gap, row_key = int(connectivity == 4), run_y << 32
    ks, ke = row_key + start, row_key + end
    lo = ke.searchsorted(ks - ((1 << 32) - gap))
    hi = ks.searchsorted(ke - ((1 << 32) + gap), side="right")
    # Round one of hook and compress (see the module docstring), from every
    # run as its own root, hooks each run onto the first run above it that
    # it touches.  Every pointer then goes up one row, so a chain has at
    # most h - 1 links, and h.bit_length() jumps (2**jumps > h) reach the roots.
    more = hi - lo - 1  # touching runs after the first, -1 where none touches
    index = np.arange(more.size)
    parent = np.where(more < 0, index, lo)
    for _ in range(h.bit_length()):
        parent = parent[parent]
    # Later rounds take the touching pairs (i, j) round one left: i runs
    # through lo[j] + 1, ..., hi[j] - 1.  Every run points at a root; each
    # round keeps only the pairs whose roots still differ, and stops when
    # none do.
    np.maximum(more, 0, out=more)
    pair_j = index.repeat(more)
    pair_i = np.arange(pair_j.size) + (hi - more.cumsum()).repeat(more)
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
    return is_root.nonzero()[0], (is_root.cumsum() - 1)[parent]


def connected_components(mask: np.ndarray) -> list[Blob]:
    """Maximal 8-connected components of the foreground as Blob records.

    The list is in the raster order of each component's first pixel.
    Stats come from the labelled runs, never from a rescan of the mask.
    Every blob's runs are a slice of one array that holds them all,
    sorted by blob; no pixel is painted.
    """
    run_y, start, end = _runs(mask)
    h, w = mask.shape
    roots, component = _link(run_y, start, end, h, 8)
    count, length = len(roots), end - start

    def extreme(reduce: np.ufunc, values: np.ndarray, init: int) -> np.ndarray:
        out = np.full(count, init)
        reduce.at(out, component, values)
        return out

    # float64 sums of integers stay exact far beyond any frame's totals (2**53)
    area = np.bincount(component, weights=length, minlength=count).astype(np.int64).tolist()
    min_x, min_y = extreme(np.minimum, start, w), run_y[roots]  # a root is its first run
    max_x, max_y = extreme(np.maximum, end - 1, -1), extreme(np.maximum, run_y, -1)
    # Blob c's runs are runs[:, run_off[c]:run_off[c + 1]], moved to its bbox;
    # a stable sort by component keeps each blob's runs in raster order.
    order = component.argsort(kind="stable")
    runs = np.concatenate((run_y, start, end)).reshape(3, -1).take(order, axis=1)
    per_blob = np.bincount(component, minlength=count)
    runs -= np.array((min_y, min_x, min_x)).repeat(per_blob, axis=1)
    run_off = np.zeros(count + 1, dtype=np.int64)
    per_blob.cumsum(out=run_off[1:])
    stats = zip(area, *(v.tolist() for v in (min_x, min_y, max_x, max_y, run_off)))
    return [
        Blob(a, (x0, y0, x1, y1), runs[:, r:r1])
        for (a, x0, y0, x1, y1, r), r1 in zip(stats, run_off[1:].tolist())
    ]


def _code_mask(samples: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Whether each uint16 sample lies in the raw-code interval [lo, hi], 0 <= lo <= hi.

    One compare: uint16 subtraction wraps codes below lo around to high
    values, so ``samples - lo <= hi - lo`` holds exactly inside it, and
    with lo == 0 (every slab) it is ``samples <= hi``.
    """
    span = np.uint16(hi - lo)  # uint16 keeps the wrap
    return samples <= span if lo == 0 else samples - np.uint16(lo) <= span


def _band(seed: HandSeed, band_cm: float, params: CalibrationParams) -> tuple[int, int]:
    """The interval [lo, hi] of raw codes within +/- band_cm of the seed's depth."""
    if number(band_cm, "band_cm", ValueError) <= 0:
        raise ValueError(f"band_cm must be positive, not {band_cm!r}")
    seed_cm = raw_to_cm(seed.depth_raw, params)  # DomainError unless a valid measurement
    codes = (np.abs(params.cm_table - seed_cm) <= band_cm).nonzero()[0]  # NaN (invalid) fails
    return codes[0].item(), codes[-1].item()  # the seed's code passes


def select_hand_blob(blobs: list[Blob], seed: HandSeed) -> Blob:
    """The unique blob containing the seed pixel; NotFoundError if background."""
    for blob in blobs:
        if blob.contains(seed.x, seed.y):
            return blob
    raise NotFoundError(f"seed pixel ({seed.x}, {seed.y}) lies on background")


def _slab_components(
    samples: np.ndarray, row_min: np.ndarray, hi: int, min_area: int
) -> list[Blob]:
    """The slab's components of at least ``min_area`` pixels, in raster order, in frame coordinates.

    The slab is the codes 0 .. ``hi``, and holds some code of the frame;
    ``row_min`` is ``samples.min(axis=1)``.  Only the slab's window is
    labelled (module docstring).
    """
    rows = (row_min <= hi).nonzero()[0]
    y0, y1 = rows[0].item(), rows[-1].item() + 1
    cols = (samples[y0:y1].min(axis=0) <= hi).nonzero()[0]
    x0, x1 = cols[0].item(), cols[-1].item() + 1
    return [
        Blob(b.area, (b.bbox[0] + x0, b.bbox[1] + y0, b.bbox[2] + x0, b.bbox[3] + y0), b.runs)
        for b in connected_components(_code_mask(samples[y0:y1, x0:x1], 0, hi))
        if b.area >= min_area
    ]


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
    One pass of row minima gives the nearest depth and the slab's rows;
    the slab is labelled inside its window alone, and each seeded blob's
    codes are read once, for its seed and its greatest code.

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
    row_min = samples.min(axis=1)
    near_raw = int(row_min.min())
    if near_raw > params.raw_valid_max:
        raise NotFoundError("frame has no valid depth samples")
    near_cm = raw_to_cm(near_raw, params)
    # The last code that passes; NaN (invalid) fails, and near_raw passes.
    slab_hi = (params.cm_table <= near_cm + slab_cm).nonzero()[0][-1].item()
    blobs = _slab_components(samples, row_min, slab_hi, min_area)
    if not blobs:
        raise NotFoundError(f"no foreground component reaches min_area={min_area}")
    blobs.sort(key=lambda b: -b.area)  # stable: ties stay in raster order
    seeds = []
    for blob in blobs[:max_hands]:
        flat = _pixels(*blob.runs, blob.shape[1])
        codes = samples[blob.box].take(flat)
        i = codes.argmin()  # ties: the first in raster order
        dy, dx = divmod(flat[i].item(), blob.shape[1])
        seeds.append(HandSeed(blob.bbox[0] + dx, blob.bbox[1] + dy, codes[i].item(),
                              slab=(blob, slab_hi, codes.max().item())))
    return seeds


def segment_hand(
    frame: DepthFrame,
    seed: HandSeed,
    band_cm: float,
    params: CalibrationParams = DEFAULT_CALIBRATION,
) -> Blob:
    """The 8-connected component of the seed's depth band that holds the seed.

    The band is the valid pixels within +/- band_cm of the seed's depth,
    an interval [lo, hi] of raw codes.  One of two things happens (see
    the module docstring):

    - ``hi <= slab_hi and far <= hi`` for the seed's ``slab``: every
      code of the band is a slab code and every pixel of the seed's slab
      blob is in the band, so that blob is returned itself, and its runs
      are a slice of the slab labelling's shared run array;
    - otherwise, or for a seed without a slab: the band is labelled
      over the whole frame.

    The seed is the slab blob's nearest pixel, usually a fingertip. So a
    hand whose valid pixels span more than ``band_cm`` leaves its palm
    outside the band: the component that holds the seed is a finger, and
    it comes back as the hand.
    """
    lo, hi = _band(seed, band_cm, params)
    if seed.slab is not None:
        slab, slab_hi, far = seed.slab
        if hi <= slab_hi and far <= hi:
            return slab  # all band: the slab blob is the band component (module docstring)
    return select_hand_blob(connected_components(_code_mask(frame.samples, lo, hi)), seed)


def fill_holes(runs: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The runs of a mask with its holes filled, from the runs of the mask.

    Depth dropouts punch sentinel holes through segmented hands; left in
    place they would wreck the distance transform (a hole looks like
    background right next to the palm center).  Background is traced with
    4-connectivity, the proper dual of 8-connected foreground.

    ``runs`` is a (3, n) integer array of rows, starts and ends, as
    Blob.runs holds it: maximal [start, end) runs of a ``shape`` mask
    in raster order.  The result has the same form.  Pixels past the
    border count as background, so a background component is outside
    exactly when it reaches the border; every other component is a hole.
    The input is not written to.
    """
    h, w = shape
    run_y, end = runs[0], runs[2]
    # The background runs of the mask padded by one background pixel all
    # round (module docstring), by slot: row 0, then for each row the gap
    # before each of its runs and the gap after its last run (the whole
    # row when it has none), then row h + 1.  The gap before run i is slot
    # 1 + i + run_y[i]; the last gap of row y is slot 1 + y plus the count
    # of runs in rows up to y.  No slot is empty.
    rows = np.arange(1, h + 1)
    before = np.arange(1, run_y.size + 1) + run_y
    gap_y = np.empty(run_y.size + h + 2, dtype=np.int64)
    gap_y[0], gap_y[-1] = 0, h + 1
    gap_y[before] = run_y + 1
    gap_y[run_y.searchsorted(rows) + rows] = rows
    # bounds[2m], bounds[2m + 1] are slot m's start and end.  When slot m is
    # the gap before run i, it ends where run i starts and slot m + 1 starts
    # where run i ends (1 px on, for the padding); every other slot ends its
    # row at w + 2, and the next slot starts the next row at 0.
    bounds = np.empty(2 * gap_y.size, dtype=np.int64)
    bounds[0], bounds[-1] = 0, w + 2
    pairs = bounds[1:-1].reshape(-1, 2)
    pairs[:] = (w + 2, 0)
    pairs[before] = runs[1:].T + 1
    _, component = _link(gap_y, bounds[0::2], bounds[1::2], h + 2, 4)
    # The padding holds the first run, so the outside is component 0.  A
    # filled run starts at a run with the outside before it and ends at a
    # run with the outside after it.
    outside = component == 0
    filled = runs[:, outside[before]]
    filled[2] = end[outside[1:][before]]
    return filled
