"""Independent reference implementations used as test oracles.

Everything here is written from first principles (brute force, explicit
set definitions, BFS) and never calls into the algorithms under test,
except the few oracles that keep a code path the library replaced
(each says so).  The mask generators at the end feed the oracle
comparisons.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from handdepth import segmentation
from handdepth.calibration import RAW_CEILING, raw_to_cm
from handdepth.distance import PalmCenter
from handdepth.errors import DegenerateHandError, DomainError
from handdepth.fingertips import Fingertip
from handdepth.segmentation import connected_components, select_hand_blob
from handdepth.tracking import HandId


def valid_domain_stepping(h_rad: float, l_rad: float) -> int:
    """The pole bound valid_domain computed before it became one array test, kept as its oracle.

    Starts one below the real-valued bound (pi/2 - l) / h and steps down
    a code at a time while round-off still puts ``h*raw + l`` at or past
    pi/2.  It steps from the bound, not from the 11-bit ceiling, so it is
    only usable where that bound is modest.
    """
    limit = (math.pi / 2 - l_rad) / h_rad
    if limit <= 0:
        raise DomainError("empty calibration domain")
    bound = math.ceil(limit) - 1
    while bound >= 0 and h_rad * bound + l_rad >= math.pi / 2:
        bound -= 1
    if bound < 0:
        raise DomainError("empty calibration domain")
    return min(bound, RAW_CEILING)


def edt_bruteforce(mask: np.ndarray) -> np.ndarray:
    """Squared distance to the nearest background pixel, O(n^2 k).

    Matches the library convention: the mask is padded with one ring of
    background before measuring, so edge foreground stays finite.
    """
    padded = np.pad(mask, 1, constant_values=False)
    h, w = padded.shape
    by, bx = np.nonzero(~padded)
    ys, xs = np.mgrid[0:h, 0:w]
    d = (ys.ravel()[:, None] - by[None, :]) ** 2 + (xs.ravel()[:, None] - bx[None, :]) ** 2
    return d.min(axis=1).reshape(h, w)[1:-1, 1:-1].astype(np.int64)


def palm_center_masked(dist: np.ndarray, hand_mask: np.ndarray) -> PalmCenter:
    """find_palm_center as it was with an argmax over the hand's pixels only, kept as its oracle.

    The first maximum of ``dist`` over ``hand_mask`` in row-major order;
    DegenerateHandError unless that maximum exceeds 1.
    """
    vals = np.where(hand_mask, dist, -1)
    best = int(vals.max())
    if best <= 1:
        raise DegenerateHandError("hand mask is thinner than 2 px everywhere")
    y, x = divmod(int(np.argmax(vals)), vals.shape[1])
    return PalmCenter(x=x, y=y, inradius_px=math.sqrt(best))


def sq_edt_bruteforce(target: np.ndarray) -> np.ndarray:
    """Squared distance to the nearest True pixel, O(n^2 k), unpadded.

    With no True pixel every entry is (h + w + 1)^2, the library's
    saturation value.
    """
    h, w = target.shape
    if not target.any():
        return np.full((h, w), (h + w + 1) ** 2, dtype=np.int64)
    ty, tx = np.nonzero(target)
    ys, xs = np.mgrid[0:h, 0:w]
    d = (ys.ravel()[:, None] - ty[None, :]) ** 2 + (xs.ravel()[:, None] - tx[None, :]) ** 2
    return d.min(axis=1).reshape(h, w).astype(np.int64)


def sq_edt_envelope(target: np.ndarray) -> np.ndarray:
    """Squared distance to the nearest True pixel by two per-line sweeps.

    The transform the library used before its row pass was vectorised,
    kept as the equivalence oracle: a down-and-up sweep per column gives
    the 1-D column distance, then Felzenszwalb & Huttenlocher's lower
    envelope of parabolas ("Distance Transforms of Sampled Functions",
    ToC 2012) runs once per row in plain Python.
    """
    h, w = target.shape
    far = h + w + 1
    if not target.any():
        return np.full((h, w), far * far, dtype=np.int64)
    col = np.empty((h, w), dtype=np.int64)
    cur = np.full(w, far, dtype=np.int64)
    for y in range(h):
        cur = np.where(target[y], 0, np.minimum(cur + 1, far))
        col[y] = cur
    cur = np.full(w, far, dtype=np.int64)
    for y in range(h - 1, -1, -1):
        cur = np.minimum(cur + 1, col[y])
        col[y] = cur
    g = np.minimum(col, far) ** 2

    def envelope_row(f: list[int]) -> list[int]:
        v = [0] * w           # parabola sites
        z = [0.0] * (w + 1)   # boundaries between envelope segments
        d = [0] * w
        k = 0
        z[0] = -math.inf
        z[1] = math.inf
        for q in range(1, w):
            fq = f[q] + q * q
            while True:
                p = v[k]
                s = (fq - (f[p] + p * p)) / (2 * q - 2 * p)
                if s <= z[k]:
                    k -= 1
                else:
                    break
            k += 1
            v[k] = q
            z[k] = s
            z[k + 1] = math.inf
        k = 0
        for q in range(w):
            while z[k + 1] < q:
                k += 1
            p = v[k]
            d[q] = (q - p) * (q - p) + f[p]
        return d

    return np.array([envelope_row(row) for row in g.tolist()], dtype=np.int64)


def sq_edt_two_updates(target: np.ndarray) -> np.ndarray:
    """The sq_edt offset pass that the padded three-call pass replaced, kept as its oracle.

    Each offset k lowers ``out`` from two ``g + k^2`` temporaries, one per
    direction, and the loop tests ``k^2 < out.max()`` before every offset.
    """
    h, w = target.shape
    far = h + w + 1
    if not target.any():
        return np.full((h, w), far * far, dtype=np.int64)
    dtype = np.int32 if 2 * far * far <= np.iinfo(np.int32).max else np.int64
    cols = np.arange(w, dtype=dtype)
    left = np.maximum.accumulate(np.where(target, cols, -far), axis=1)
    right = np.minimum.accumulate(np.where(target, cols, w + far)[:, ::-1], axis=1)[:, ::-1]
    row = np.minimum(np.minimum(cols - left, right - cols), far)
    g = row * row
    out = g.copy()
    k = 1
    while k < h and k * k < out.max():
        kk = k * k
        np.minimum(out[k:], g[:-k] + kk, out=out[k:])
        np.minimum(out[:-k], g[k:] + kk, out=out[:-k])
        k += 1
    return out.astype(np.int64, copy=False)


def row_distances(target: np.ndarray) -> np.ndarray:
    """Distance along its row from each pixel to the nearest True pixel, h + w + 1 in a row with none.

    The row pass sq_edt took from a target mask before distance_transform
    read it from the hand's runs, kept as its oracle: a running maximum of
    target columns from the left and a running minimum from the right.
    """
    h, w = target.shape
    far = h + w + 1
    cols = np.arange(w, dtype=np.int64)
    left = np.maximum.accumulate(np.where(target, cols, -far), axis=1)
    right = np.minimum.accumulate(np.where(target, cols, w + far)[:, ::-1], axis=1)[:, ::-1]
    return np.minimum(np.minimum(cols - left, right - cols), far)


def offset_pass_every_k(row: np.ndarray) -> np.ndarray:
    """The offset pass as it was with its stop checked before every offset, kept as its oracle.

    Takes the row distances and returns the squared distances, in int64.
    """
    h, w = row.shape
    top = int(row.max()) ** 2
    dtype = next(t for t in (np.uint16, np.int32, np.int64) if top <= np.iinfo(t).max // 2)
    last = min(h - 1, math.isqrt(top))
    gp = np.full((h + 2 * last, w), np.iinfo(dtype).max // 2, dtype=dtype)
    g = gp[last:last + h]
    np.multiply(row, row, out=g, casting="unsafe")
    out = g.copy()
    tmp = np.empty_like(out)
    for k in range(1, last + 1):
        if k * k >= out.max():
            break
        np.minimum(gp[last - k:last - k + h], gp[last + k:last + k + h], out=tmp)
        tmp += k * k
        np.minimum(out, tmp, out=out)
    return out.astype(np.int64, copy=False)


def shift(mask: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """out[y, x] = mask[y + dy, x + dx], False past the border."""
    h, w = mask.shape
    out = np.zeros_like(mask)
    ys0, ys1 = max(0, -dy), min(h, h - dy)
    xs0, xs1 = max(0, -dx), min(w, w - dx)
    if ys0 < ys1 and xs0 < xs1:
        out[ys0:ys1, xs0:xs1] = mask[ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx]
    return out


def disk_offsets(radius: int) -> list[tuple[int, int]]:
    rr = radius * radius
    return [
        (dx, dy)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
        if dx * dx + dy * dy <= rr
    ]


def erode_setdef(mask: np.ndarray, radius: int) -> np.ndarray:
    """Per the set definition: keep p iff p + o is foreground for every offset o."""
    out = np.ones_like(mask)
    for dx, dy in disk_offsets(radius):
        out &= shift(mask, dx, dy)
    return out


def dilate_setdef(mask: np.ndarray, radius: int) -> np.ndarray:
    """Per the set definition: mark p iff p - o is foreground for some offset o."""
    out = np.zeros_like(mask)
    for dx, dy in disk_offsets(radius):
        out |= shift(mask, -dx, -dy)
    return out


def opening_setdef(mask: np.ndarray, radius: int) -> np.ndarray:
    """Per the set definition: the dilation of the erosion by the same disk."""
    return dilate_setdef(erode_setdef(mask, radius), radius)


STEPS = {
    8: [(-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)],
    4: [(0, -1), (-1, 0), (1, 0), (0, 1)],
}


def flood_from(mask: np.ndarray, x: int, y: int, connectivity: int = 8, seen=None) -> frozenset:
    """BFS from one foreground pixel: the pixel set, of (x, y) tuples, of its component.

    Pixels marked in ``seen`` are skipped, and every pixel reached is marked there.
    """
    h, w = mask.shape
    if seen is None:
        seen = np.zeros_like(mask)
    queue = deque([(x, y)])
    seen[y, x] = True
    pixels = []
    while queue:
        cx, cy = queue.popleft()
        pixels.append((cx, cy))
        for dx, dy in STEPS[connectivity]:
            nx, ny = cx + dx, cy + dy
            if 0 <= nx < w and 0 <= ny < h and mask[ny, nx] and not seen[ny, nx]:
                seen[ny, nx] = True
                queue.append((nx, ny))
    return frozenset(pixels)


def flood_fill_components(mask: np.ndarray, connectivity: int = 8) -> list[frozenset]:
    """BFS component extraction; returns pixel sets of (x, y) tuples.

    Components come in the raster order of their first pixels.
    """
    seen = np.zeros_like(mask)
    ys, xs = np.nonzero(mask)  # raster order
    return [flood_from(mask, x, y, connectivity, seen)
            for y, x in zip(ys.tolist(), xs.tolist()) if not seen[y, x]]


def label_rowwise(mask: np.ndarray, connectivity: int = 8) -> tuple[np.ndarray, list[tuple]]:
    """Run labelling one row at a time, then a second per-row pass for stats.

    The labeller the library used before its runs were found in one
    vectorised pass, kept as the equivalence oracle.  Returns the int32
    label image and, per label in order, ``(area, bbox)`` with bbox
    ``(min_x, min_y, max_x, max_y)``.
    """

    def row_runs(row):
        edges = np.flatnonzero(np.diff(np.concatenate(([0], row.astype(np.uint8), [0]))))
        return edges.reshape(-1, 2)

    h, w = mask.shape
    runs, row_first = [], []
    for y in range(h):
        row_first.append(len(runs))
        runs.extend((y, int(a), int(b)) for a, b in row_runs(mask[y]))
    row_first.append(len(runs))
    parent = list(range(len(runs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for y in range(1, h):
        i, j = row_first[y - 1], row_first[y]
        while i < row_first[y] and j < row_first[y + 1]:
            _, b0, b1 = runs[i]
            _, a0, a1 = runs[j]
            touching = (a0 <= b1 and b0 <= a1) if connectivity == 8 else (a0 < b1 and b0 < a1)
            if touching:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
            if b1 < a1:
                i += 1
            else:
                j += 1

    labels = np.zeros((h, w), dtype=np.int32)
    label_of_root: dict[int, int] = {}
    for idx, (y, a, b) in enumerate(runs):
        labels[y, a:b] = label_of_root.setdefault(find(idx), len(label_of_root) + 1)

    stats = [None] * len(label_of_root)
    for y in range(h):
        for a, b in row_runs(labels[y] > 0):
            lab, a, b, n = int(labels[y, a]), int(a), int(b), int(b - a)
            if stats[lab - 1] is None:
                stats[lab - 1] = [0, a, y, b - 1, y]
            st = stats[lab - 1]
            st[0] += n
            st[1], st[3], st[4] = min(st[1], a), max(st[3], b - 1), y
    return labels, [(area, (x0, y0, x1, y1)) for area, x0, y0, x1, y1 in stats]


def label_runs_unionfind(mask: np.ndarray, connectivity: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """segmentation._label_runs as it was with a Python union-find merge, kept as its oracle.

    First run of each component, flat foreground indices and
    ``(row, start, end, component)``.  Every maximal run of True is a
    half-open [start, end) span, listed in raster order (as are the flat
    indices) with its 0-based component index.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
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
    # every touching pair (i, j): i runs through lo[j], ..., hi[j] - 1
    pair_j = np.repeat(np.arange(count.size), count)
    pair_i = np.arange(pair_j.size) + np.repeat(lo + count - np.cumsum(count), count)

    parent = list(range(count.size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(pair_i.tolist(), pair_j.tolist()):
        ri, rj = find(i), find(j)
        # keep the smaller (earlier, raster-order) index as root
        if ri < rj:
            parent[rj] = ri
        elif rj < ri:
            parent[ri] = rj

    # A root is its component's first run, so sorted roots number the
    # components in raster order of their first pixel.
    roots, component = np.unique(
        np.array([find(i) for i in range(len(parent))], dtype=np.int64), return_inverse=True
    )
    return roots, flat, (run_y, start, end, component)


def fill_holes_padded(mask: np.ndarray) -> np.ndarray:
    """The hole fill fill_holes used before it read the crop's own runs, kept as its oracle.

    Pads the mask with one ring of background and labels the padded
    background 4-connected.  The ring holds pixel (0, 0), so raster-order
    labelling numbers its component 1; every other pixel is kept.
    """
    padded = np.pad(mask, 1, constant_values=False)
    labels, _ = label_rowwise(~padded, 4)
    return labels[1:-1, 1:-1] != 1


def lowest(blob, values: np.ndarray) -> tuple[int, int, int]:
    """``(x, y, value)`` of the least of ``values`` over the blob's own pixels, as Blob.lowest gave it.

    ``values`` is indexed like the labelled array; ties go to the first
    in raster order.  Kept for fingertips_from_blobs; find_hand_seeds
    now reads a seeded blob's codes once itself and keeps them.
    """
    flat = segmentation._pixels(*blob.runs, blob.shape[1])
    vals = values[blob.box].take(flat)
    i = vals.argmin()
    dy, dx = divmod(flat[i].item(), blob.shape[1])
    return blob.bbox[0] + dx, blob.bbox[1] + dy, vals[i].item()


def fingertips_from_blobs(hand, palm, samples, params):
    """The finger split and tips as they were, one Blob per finger, kept as their oracle.

    Labels ``hand & ~palm`` into Blobs, drops those below the sliver
    floor, keeps the five largest by a stable sort and takes each tip
    from lowest; a tip past ``raw_valid_max`` is dropped.
    """
    floor = max(4, round(0.05 * int(hand.sum()) / 5))
    blobs = [b for b in connected_components(hand & ~palm) if b.area >= floor]
    tips = []
    for index, finger in enumerate(sorted(blobs, key=lambda b: -b.area)[:5]):
        x, y, raw = lowest(finger, samples)
        if raw <= params.raw_valid_max:
            tips.append(Fingertip(x, y, raw_to_cm(raw, params), index))
    return tips


def _raster_first_min(pixels, values: np.ndarray) -> tuple[int, int, int]:
    """``(value, y, x)`` of the least of ``values`` over ``pixels``, ties to the smallest y, then x."""
    return min((int(values[y, x]), y, x) for x, y in pixels)


def extract_hands_oracle(frame, config) -> list[tuple]:
    """extract_hands from first principles, kept as its end-to-end oracle.

    Per hand, in extract_hands' order: ``(palm, tips, bbox, area)``, in
    frame coordinates.  Built from BFS components (the slab, the seed's
    band component and the fingers), a hole fill by flood-filling the
    padded background, the lower-envelope EDT of the padded hole-filled
    hand, the set-definition opening and raster-first minima; it calls
    none of the library's labelling, hole fill, distance or opening code.
    A hand whose stage fails is dropped, as extract_hands drops it.
    """
    params, samples = config.calibration, frame.samples
    depth_cm = params.cm_table[samples]  # NaN where the sample is no measurement
    near_raw = int(samples.min())
    if near_raw > params.raw_valid_max:
        return []
    slab = depth_cm <= raw_to_cm(near_raw, params) + config.slab_cm
    blobs = [c for c in flood_fill_components(slab) if len(c) >= config.min_area]
    blobs.sort(key=len, reverse=True)  # stable: ties stay in raster order
    hands, taken = [], []
    for blob in blobs[:config.max_hands]:
        raw, sy, sx = _raster_first_min(blob, samples)
        if any((sx, sy) in pixels for pixels in taken):
            continue  # the seed lies on a hand already reported
        band = np.abs(depth_cm - raw_to_cm(raw, params)) <= config.band_cm
        pixels = flood_from(band, sx, sy)
        xs, ys = [x for x, _ in pixels], [y for _, y in pixels]
        x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
        crop = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
        crop[np.array(ys) - y0, np.array(xs) - x0] = True
        # holes: the background not 4-connected to a padding ring
        padded = np.pad(crop, 1)
        hand = ~placed_set(flood_from(~padded, 0, 0, 4), padded.shape)[1:-1, 1:-1]
        dist = sq_edt_envelope(~np.pad(hand, 1))[1:-1, 1:-1]
        best = int(dist.max())
        if best <= 1:
            continue  # degenerate: no palm body
        py, px = divmod(int(np.argmax(dist)), dist.shape[1])
        palm = opening_setdef(hand, max(1, round(0.7 * math.sqrt(best))))
        if not palm.any():
            continue  # the opening left no palm
        floor = max(4, round(0.05 * int(hand.sum()) / 5))
        fingers = [f for f in flood_fill_components(hand & ~palm) if len(f) >= floor]
        fingers.sort(key=len, reverse=True)
        tips = []
        for rank, finger in enumerate(fingers[:5]):
            lowest, ty, tx = _raster_first_min(finger, samples[y0:y1 + 1, x0:x1 + 1])
            if lowest <= params.raw_valid_max:
                tips.append(Fingertip(tx + x0, ty + y0, raw_to_cm(lowest, params), rank))
        taken.append(pixels)
        hands.append((PalmCenter(px + x0, py + y0, math.sqrt(best)), tips,
                      (x0, y0, x1, y1), len(pixels)))
    return hands


def placed_set(pixels, shape: tuple[int, int]) -> np.ndarray:
    """A set of (x, y) pixels as a boolean array of ``shape``."""
    out = np.zeros(shape, dtype=bool)
    for x, y in pixels:
        out[y, x] = True
    return out


def hand_blob_whole_frame(frame, seed, band_cm, params):
    """The seed's band blob as found before segment_hand, kept as its oracle.

    Thresholds the band over the whole frame in float centimetres (each
    sample's depth against the seed's; NaN, an invalid sample, is never
    inside), labels every component of it and keeps the one that holds
    the seed.
    """
    if band_cm <= 0:
        raise ValueError("band_cm must be positive")
    seed_cm = raw_to_cm(seed.depth_raw, params)  # DomainError for an invalid seed
    mask = np.abs(params.cm_table[frame.samples] - seed_cm) <= band_cm
    return select_hand_blob(connected_components(mask), seed)


def segment_hand_path(frame, seed, band_cm, params):
    """How segment_hand found its blob, and the blob it returned.

    "slab" is no labelling at all: the seed's slab blob itself came back.
    "frame" is one labelling, over the whole frame.
    """
    calls = []

    def recording(mask, *args, **kwargs):
        calls.append(np.shape(mask))
        return connected_components(mask, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segmentation, "connected_components", recording)
        blob = segmentation.segment_hand(frame, seed, band_cm, params)
    if not calls:
        assert seed.slab is not None and blob is seed.slab[0]
        return "slab", blob
    assert calls == [frame.samples.shape]
    return "frame", blob



def paths_agree(path, expected) -> bool:
    """A path from segment_hand_path against one from expected_path; None matches either."""
    return None in (path, expected) or path == expected


def expected_path(frame, seed, band_cm, slab_cm, params, margin_cm=1.0):
    """The path segment_hand must take, or None near the boundary.

    Every band code is a slab code when the band's far edge (seed depth
    + band_cm) stays within the slab (nearest depth + slab_cm).  Raw
    codes lie less than ``margin_cm`` apart at the test depths, so a far
    edge more than that past the slab's takes a band code the slab
    lacks.  Where the band stays within the slab and every pixel of the
    seed's slab blob lies in the band (thresholded in float centimetres,
    as hand_blob_whole_frame does), nothing is labelled and the slab
    blob comes back: "slab".  Otherwise the whole frame is: "frame".
    """
    near_cm = raw_to_cm(int(frame.samples.min()), params)
    reach = raw_to_cm(seed.depth_raw, params) + band_cm - (near_cm + slab_cm)
    if reach > margin_cm:
        return "frame"
    if reach >= -margin_cm:
        return None
    slab = seed.slab[0]
    depth_cm = params.cm_table[frame.samples[placed(slab, frame.samples.shape)]]
    return "slab" if (np.abs(depth_cm - raw_to_cm(seed.depth_raw, params)) <= band_cm).all() else "frame"


def blob_key(blob) -> tuple:
    """A blob's area, bbox and runs as a tuple that compares by value."""
    return blob.area, blob.bbox, blob.runs.tolist()


@dataclass
class ListTrack:
    """The track record of update_three_rules; identity None is an unnamed track."""

    identity: HandId | None
    x: float
    y: float
    misses: int = 0


@dataclass
class ListTrackState:
    """update_three_rules' tracker memory: a list of tracks, oldest first."""

    max_misses: int = 5
    tracks: list[ListTrack] = field(default_factory=list)


def update_three_rules(state: ListTrackState, reports):
    """The tracker update that handdepth.tracking.update replaced, kept as its oracle.

    Right and Left reports take the first free track of their identity,
    else adopt the nearest free unlabeled track; Single reports take the
    nearest free track of any identity, and with none start an unlabeled
    track.
    """
    matched: set[int] = set()
    for report in reports:
        track = None
        if report.hand_id in (HandId.RIGHT, HandId.LEFT):
            for i, t in enumerate(state.tracks):
                if i not in matched and t.identity == report.hand_id:
                    track = i
                    break
            if track is None:
                candidates = [
                    ((report.palm.x - t.x) ** 2 + (report.palm.y - t.y) ** 2, i)
                    for i, t in enumerate(state.tracks)
                    if i not in matched and t.identity is None
                ]
                if candidates:
                    track = min(candidates)[1]
                    state.tracks[track].identity = report.hand_id
        else:
            candidates = [
                ((report.palm.x - t.x) ** 2 + (report.palm.y - t.y) ** 2, i)
                for i, t in enumerate(state.tracks)
                if i not in matched
            ]
            if candidates:
                track = min(candidates)[1]
        if track is None:
            identity = report.hand_id if report.hand_id is not HandId.SINGLE else None
            state.tracks.append(ListTrack(identity=identity, x=report.palm.x, y=report.palm.y))
            matched.add(len(state.tracks) - 1)
        else:
            t = state.tracks[track]
            t.x, t.y = report.palm.x, report.palm.y
            t.misses = 0
            matched.add(track)

    survivors = []
    for i, t in enumerate(state.tracks):
        if i not in matched:
            t.misses += 1
        if t.misses < state.max_misses:
            survivors.append(t)
    state.tracks = survivors
    return state


def paint_marks_per_pixel(rgb: np.ndarray, hands) -> None:
    """The overlay painter that write_overlay's box writes replaced, kept as their oracle.

    Paints each in-image pixel of every 3x3 tip square and of the 7-pixel
    palm cross, one pixel at a time, hand by hand.
    """
    h, w = rgb.shape[:2]

    def paint(x, y, color):
        if 0 <= x < w and 0 <= y < h:
            rgb[y, x] = color

    for hand in hands:
        color = hand.overlay_color
        for tip in hand.fingertips:
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    paint(tip.x + dx, tip.y + dy, color)
        px, py = hand.palm.x, hand.palm.y
        for d in range(-3, 4):
            paint(px + d, py, color)
            paint(px, py + d, color)


def rotated_position(x: int, y: int, width: int, height: int, quarter_turns: int) -> tuple[int, int]:
    """Where np.rot90(frame, quarter_turns) moves the pixel at (x, y)."""
    for _ in range(quarter_turns % 4):
        x, y = y, width - 1 - x
        width, height = height, width
    return x, y


def placed(blob, shape: tuple[int, int]) -> np.ndarray:
    """A blob's bbox-local runs painted at its bbox into an all-False array of ``shape``."""
    out = np.zeros(shape, dtype=bool)
    min_x, min_y = blob.bbox[:2]
    assert blob.runs.dtype == np.int64 and blob.runs.shape[0] == 3
    for y, start, end in blob.runs.T.tolist():
        out[min_y + y, min_x + start:min_x + end] = True
    return out


def random_mask(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    return rng.random(shape) < rng.uniform(0.15, 0.85)


# Random masks of mixed size and density; density 0 and 1 give all-False and all-True.
masks = st.builds(
    lambda h, w, density, seed: np.random.default_rng(seed).random((h, w)) < density,
    st.integers(1, 40),
    st.integers(1, 40),
    st.floats(0, 1),
    st.integers(0, 2**32 - 1),
)
deterministic = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def edge_masks():
    """1xN, Nx1, 1x1, all-True, all-False and border-touching masks."""
    yield np.array([[True]])
    yield np.array([[False]])
    row = np.array([[False, True, False, False, False, True, False, False, False]])
    yield row
    yield row.T
    yield ~row
    yield ~row.T
    yield np.ones((1, 9), dtype=bool)
    yield np.zeros((9, 1), dtype=bool)
    yield np.ones((6, 7), dtype=bool)
    yield np.zeros((6, 7), dtype=bool)
    for side in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1], np.s_[0, 0], np.s_[-1, -1]):
        mask = np.zeros((6, 7), dtype=bool)
        mask[side] = True
        yield mask
        yield ~mask


def spiral(h: int, w: int) -> np.ndarray:
    """A 1-px square spiral with 1-px gaps, walked clockwise inward from the top-left pixel."""
    mask = np.zeros((h, w), dtype=bool)
    y, x, dy, dx, turns = 0, 0, 0, 1, 0
    mask[0, 0] = True
    while turns < 2:
        ny, nx, ay, ax = y + dy, x + dx, y + 2 * dy, x + 2 * dx
        beyond = 0 <= ay < h and 0 <= ax < w and mask[ay, ax]
        if 0 <= ny < h and 0 <= nx < w and not mask[ny, nx] and not beyond:
            y, x, turns = ny, nx, 0
            mask[y, x] = True
        else:
            dy, dx, turns = dx, -dy, turns + 1
    return mask


def long_path_masks():
    """Masks whose run graphs are long paths or take several merge rounds, up to 120x160."""
    comb = np.zeros((120, 160), dtype=bool)
    comb[:, ::2] = True  # 1-px teeth ...
    comb[-1] = True  # ... joined along the last row
    yield comb
    yield comb.T
    yield spiral(120, 160)
    yield spiral(61, 47)
    serpentine = np.zeros((119, 160), dtype=bool)
    serpentine[::2] = True  # rows joined at alternate ends
    serpentine[1::4, -1] = serpentine[3::4, 0] = True
    yield serpentine
    yield serpentine.T
    rng = np.random.default_rng(60)
    for density in (0.5, 0.55, 0.6):
        yield rng.random((120, 160)) < density


# What a JSON document can put where a number is expected: null, booleans,
# strings, short lists and ints past any float.  List entries stay small,
# so a list read as a frame size never renders a large frame.
json_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=3),
    st.integers(-(2**70), 2**70),
    st.just(10**400),
)
# Any float, including NaN, the infinities and subnormals.
any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
