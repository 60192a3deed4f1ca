import numpy as np
import pytest
from hypothesis import given, strategies as st

from handdepth import pipeline
from handdepth.errors import DomainError, NotFoundError
from handdepth.frame_io import DepthFrame
from handdepth.calibration import (
    DEFAULT_CALIBRATION,
    RAW_SENTINEL,
    CalibrationParams,
    cm_to_raw,
    raw_to_cm,
)
from handdepth.segmentation import (
    HandSeed,
    _band_table,
    _link,
    _runs,
    _slab_components,
    _table_mask,
    connected_components,
    fill_holes,
    find_hand_seeds,
    segment_hand,
    select_hand_blob,
)
from handdepth.pipeline import PipelineConfig, extract_hands
from handdepth.synthetic import HandSpec, build_corpus, render_scene

from reference import (
    _raster_first_min,
    blob_key,
    deterministic,
    edge_masks,
    expected_path,
    fill_holes_padded,
    flood_fill_components,
    hand_blob_whole_frame,
    label_rowwise,
    label_runs_unionfind,
    long_path_masks,
    lowest,
    masks,
    paths_agree,
    placed,
    random_mask,
    segment_hand_path,
)
from via_runs import filled_mask, label_runs, mask_runs, paint


def pixel_set(blob, shape):
    ys, xs = np.nonzero(placed(blob, shape))
    return frozenset((int(x), int(y)) for x, y in zip(xs, ys))


def as_sets(blobs, shape):
    return {pixel_set(b, shape) for b in blobs}


def run_sets(mask, connectivity):
    """The pixel sets of the components _runs and _link find, as as_sets gives them."""
    roots, _, (run_y, start, end, component) = label_runs(mask, connectivity)
    sets = [set() for _ in roots]
    for y, x0, x1, c in zip(run_y.tolist(), start.tolist(), end.tolist(), component):
        sets[c].update((x, y) for x in range(x0, x1))
    return {frozenset(s) for s in sets}


def test_empty_mask_has_no_components():
    assert connected_components(np.zeros((4, 4), dtype=bool)) == []


def test_diagonal_pixels_connectivity():
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 0] = mask[1, 1] = True
    assert len(connected_components(mask)) == 1
    assert len(run_sets(mask, 4)) == 2


def test_components_match_flood_fill_exhaustive_3x3():
    for bits in range(512):
        mask = np.array([(bits >> i) & 1 for i in range(9)], dtype=bool).reshape(3, 3)
        assert as_sets(connected_components(mask), mask.shape) == set(flood_fill_components(mask))


def test_components_match_flood_fill_random():
    rng = np.random.default_rng(55)
    for _ in range(150):
        mask = random_mask(rng, (16, 16))
        assert as_sets(connected_components(mask), mask.shape) == set(flood_fill_components(mask))
        assert run_sets(mask, 4) == set(flood_fill_components(mask, connectivity=4))


def test_components_partition_and_stats():
    rng = np.random.default_rng(56)
    mask = random_mask(rng, (20, 20))
    blobs = connected_components(mask)
    union = np.zeros_like(mask)
    for blob in blobs:
        own = placed(blob, mask.shape)
        assert blob.area == int(own.sum())
        assert not (union & own).any()
        union |= own
        ys, xs = np.nonzero(own)
        assert blob.bbox == (xs.min(), ys.min(), xs.max(), ys.max())
    assert (union == mask).all()


def test_labels_follow_raster_order_of_first_pixels():
    rng = np.random.default_rng(57)
    mask = random_mask(rng, (18, 18))
    blobs = connected_components(mask)
    firsts = [min((y, x) for x, y in pixel_set(blob, mask.shape)) for blob in blobs]
    assert firsts == sorted(firsts)


def labelling_cases():
    rng = np.random.default_rng(58)
    corners = np.zeros((9, 11), dtype=bool)
    corners[[0, 0, -1, -1], [0, -1, 0, -1]] = True
    border = random_mask(rng, (13, 17))
    border[[0, -1]] = True
    border[:, [0, -1]] = True
    yield from (
        rng.random((1, 37)) < 0.5,
        rng.random((41, 1)) < 0.5,
        np.ones((1, 1), dtype=bool),
        np.ones((7, 9), dtype=bool),
        np.zeros((7, 9), dtype=bool),
        corners,
        border,
    )
    for _ in range(120):
        shape = (int(rng.integers(1, 28)), int(rng.integers(1, 28)))
        yield random_mask(rng, shape)
    yield from long_path_masks()


def assert_labelling_matches_oracles(mask):
    rowwise = {conn: label_rowwise(mask, conn) for conn in (8, 4)}
    for conn, (ref_labels, _) in rowwise.items():
        roots, flat, runs = label_runs(mask, conn)
        ref_roots, ref_flat, ref_runs = label_runs_unionfind(mask, conn)
        for a, b in zip((roots, flat, *runs), (ref_roots, ref_flat, *ref_runs), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # a run's component is the row-wise label at its first pixel, less 1
        run_y, start, _, component = runs
        assert np.array_equal(component, ref_labels[run_y, start] - 1)
    # connected_components labels 8-connected
    ref_labels, ref_stats = rowwise[8]
    blobs = connected_components(mask)
    assert len(blobs) == len(ref_stats)
    assert [(b.area, b.bbox) for b in blobs] == ref_stats
    assert all(type(v) is int for b in blobs for v in (b.area, *b.bbox))
    # blob i, laid at its bbox, is exactly the pixels of row-wise label i + 1
    assert all(np.array_equal(placed(b, mask.shape), ref_labels == lab)
               for lab, b in enumerate(blobs, start=1))
    # and its runs are those of row-wise label i + 1 cropped to its bbox
    assert all(b.runs.dtype == np.int64 and np.array_equal(b.runs, mask_runs((ref_labels == lab)[b.box]))
               for lab, b in enumerate(blobs, start=1))
    # flood fill finds components in raster order of their first pixel
    assert [pixel_set(b, mask.shape) for b in blobs] == flood_fill_components(mask)


def test_labelling_matches_rowwise_labeller_and_flood_fill():
    for mask in labelling_cases():
        assert_labelling_matches_oracles(mask)


def run_finding_cases():
    """Masks whose runs meet row ends: a flat layout with no break between rows would join them."""
    wrap = np.zeros((3, 6), dtype=bool)
    wrap[0, 4:] = wrap[1, :2] = True  # flat indices 4..7 are consecutive across a row end
    yield wrap
    yield wrap[:, ::-1]
    full_row = np.zeros((5, 7), dtype=bool)
    full_row[2] = True
    full_row[[1, 3], [0, 6]] = True
    yield full_row
    yield ~full_row
    column = np.array([[True], [True], [False], [True], [False], [True], [True]])
    yield column  # width 1: every row start is a row end
    yield column.T
    yield np.ones((4, 1), dtype=bool)
    yield np.ones((1, 4), dtype=bool)
    yield np.ones((5, 8), dtype=bool)
    yield np.zeros((5, 8), dtype=bool)
    for shape in ((0, 0), (0, 5), (5, 0)):
        yield np.zeros(shape, dtype=bool)
    yield from edge_masks()


def test_run_finding_edge_masks_match_oracles():
    for mask in run_finding_cases():
        assert_labelling_matches_oracles(mask)


def test_run_ending_at_the_last_column_does_not_join_the_next_row():
    mask = np.zeros((2, 5), dtype=bool)
    mask[0, 3:] = mask[1, :2] = True
    blobs = connected_components(mask)
    assert len(blobs) == 2
    labels = sum(lab * placed(b, mask.shape) for lab, b in enumerate(blobs, start=1))
    assert labels.tolist() == [[0, 0, 0, 1, 1], [2, 2, 0, 0, 0]]


@deterministic
@given(masks)
def test_labelling_random_masks_match_oracles(mask):
    assert_labelling_matches_oracles(mask)


def link_cases():
    rng = np.random.default_rng(62)
    yield from edge_masks()
    yield from long_path_masks()
    for _ in range(150):
        yield random_mask(rng, (int(rng.integers(1, 30)), int(rng.integers(1, 30))))


def test_link_matches_unionfind_and_flood_fill():
    for mask in link_cases():
        run_y, start, end = _runs(mask)
        for conn in (8, 4):
            roots, component = _link(run_y, start, end, mask.shape[0], conn)
            ref_roots, _, (*_, ref_component) = label_runs_unionfind(mask, conn)
            assert np.array_equal(roots, ref_roots) and np.array_equal(component, ref_component)
            sets = [set() for _ in roots]
            for y, x0, x1, c in zip(run_y.tolist(), start.tolist(), end.tolist(), component):
                sets[c].update((x, y) for x in range(x0, x1))
            assert sets == flood_fill_components(mask, conn)  # in raster order of first pixels


def assert_runs_match_unionfind(mask):
    for conn in (8, 4):
        got, want = label_runs(mask, conn), label_runs_unionfind(mask, conn)
        for a, b in zip((got[0], got[1], *got[2]), (want[0], want[1], *want[2]), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def strokes_joined_at_the_bottom(tops):
    """Vertical strokes at every 4th column, stroke i from row tops[i] down to the last row.

    Stroke i and stroke i + 1 are joined by a bar on row H or H + 1
    (alternately), where H = len(tops); the whole is one 8-connected
    serpentine path through the strokes.
    """
    n = len(tops)
    mask = np.zeros((n + 2, 4 * n - 3), dtype=bool)
    for i, top in enumerate(tops):
        mask[top:, 4 * i] = True
    for i in range(n - 1):
        mask[n + i % 2, 4 * i:4 * i + 5] = True
    return mask


@pytest.mark.parametrize("k", range(1, 10))
def test_labelling_vertical_lines_around_powers_of_two(k):
    # A 1-px line of height n is a chain of n - 1 links after round one,
    # the longest a mask of height n can hold.
    for n in (2**k - 1, 2**k, 2**k + 1):
        line = np.ones((n, 1), dtype=bool)
        assert_runs_match_unionfind(line)
        framed = np.zeros((n, 3), dtype=bool)
        framed[:, 1] = True
        assert_runs_match_unionfind(framed)
        assert len(connected_components(framed)) == 1


def test_labelling_diagonal_staircases():
    for n in (2, 3, 63, 64, 65, 257):
        for stairs in (np.eye(n, dtype=bool), np.eye(n, dtype=bool)[:, ::-1]):
            assert_runs_match_unionfind(stairs)
            assert len(connected_components(stairs)) == 1  # 8-connected: one chain
            assert label_runs(stairs, 4)[0].size == n  # 4-connected: n pixels apart
        wide = np.zeros((n, n + 1), dtype=bool)  # 2-px steps touch 4-connected too
        wide[np.arange(n), np.arange(n)] = wide[np.arange(n), np.arange(1, n + 1)] = True
        assert_runs_match_unionfind(wide)


def test_labelling_serpentines_that_take_several_hook_rounds():
    # Stroke i starts on row n - 1 - bitreverse(i): each hook round joins
    # only neighbouring pairs of the path's pieces, so an n-stroke
    # serpentine takes log2(n) + 1 rounds after round one.
    for bits in range(1, 7):
        n = 2**bits
        tops = [n - 1 - int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]
        for mask in (strokes_joined_at_the_bottom(tops),
                     strokes_joined_at_the_bottom(tops[::-1])):
            assert_runs_match_unionfind(mask)
            assert len(connected_components(mask)) == 1


def test_labelling_when_the_first_run_above_is_not_the_root():
    # The bar on the last row hooks onto the left stroke in round one, but
    # the component's root is the right stroke's top, which starts higher.
    vee = np.zeros((6, 5), dtype=bool)
    vee[2:, 0] = vee[:, 4] = vee[5] = True
    assert_runs_match_unionfind(vee)
    assert_runs_match_unionfind(vee[:, ::-1])
    rng = np.random.default_rng(59)
    for _ in range(40):
        n = int(rng.integers(2, 24))
        assert_runs_match_unionfind(strokes_joined_at_the_bottom(rng.permutation(n).tolist()))


def uniform_frame(raw: int, shape=(6, 8)) -> DepthFrame:
    return DepthFrame(np.full(shape, raw, dtype=np.uint16))


def band_mask(frame, seed, band_cm, params=DEFAULT_CALIBRATION):
    """The seed's band over the whole frame, as segment_hand thresholds it."""
    return _table_mask(_band_table(seed, band_cm, params), frame.samples)


def test_threshold_uniform_frame_all_foreground():
    frame = uniform_frame(700)
    seed = HandSeed(x=2, y=3, depth_raw=700)
    assert band_mask(frame, seed, 15.0).all()


def test_threshold_excludes_sentinel():
    samples = np.full((5, 5), RAW_SENTINEL, dtype=np.uint16)
    samples[2, 2] = 700
    mask = band_mask(DepthFrame(samples), HandSeed(2, 2, 700), 15.0)
    assert mask[2, 2] and mask.sum() == 1


def test_threshold_invalid_seed():
    frame = uniform_frame(700)
    with pytest.raises(DomainError):
        segment_hand(frame, HandSeed(0, 0, RAW_SENTINEL), 15.0)
    with pytest.raises(ValueError):
        segment_hand(frame, HandSeed(0, 0, 700), 0.0)


def test_threshold_recovers_synthetic_support_exactly():
    spec = HandSpec(
        palm_center=(80, 70),
        palm_radius=22,
        finger_count=3,
        finger_length=25,
        finger_width=8,
        orientation_deg=300,
        base_depth_cm=80,
        tip_slope=1,  # tips reach ~6 cm toward the camera, well inside the band
    )
    frame, (truth,) = render_scene([spec], (160, 140), 200)
    seed_raw = int(frame.samples[truth.palm_center[1], truth.palm_center[0]])
    seed = HandSeed(*truth.palm_center, depth_raw=seed_raw)
    mask = band_mask(frame, seed, 15.0)
    assert (mask == truth.support).all()


def test_threshold_idempotent_on_its_own_output():
    rng = np.random.default_rng(90)
    samples = rng.integers(600, 1100, size=(12, 12), dtype=np.uint16)
    frame = DepthFrame(samples)
    seed = HandSeed(4, 4, int(samples[4, 4]))
    mask = band_mask(frame, seed, 8.0)
    # re-threshold a frame where the mask sits exactly at the seed depth
    requantized = np.where(mask, seed.depth_raw, RAW_SENTINEL).astype(np.uint16)
    again = band_mask(DepthFrame(requantized), seed, 8.0)
    assert (again == mask).all()


def test_select_hand_blob():
    mask = np.zeros((6, 10), dtype=bool)
    mask[1:3, 1:3] = True
    mask[4:6, 6:9] = True
    blobs = connected_components(mask)
    assert select_hand_blob(blobs, HandSeed(2, 1, 700)) is blobs[0]
    assert select_hand_blob(blobs, HandSeed(7, 5, 700)) is blobs[1]
    with pytest.raises(NotFoundError):
        select_hand_blob(blobs, HandSeed(5, 0, 700))


def ring_around_a_dot():
    """A square ring with one pixel in its hole, two cells clear of the ring."""
    mask = np.zeros((9, 9), dtype=bool)
    mask[1:8, 1:8] = True
    mask[2:7, 2:7] = False
    mask[4, 4] = True
    return mask


def test_ring_does_not_contain_its_hole():
    mask = ring_around_a_dot()
    ring, dot = connected_components(mask)
    assert ring.bbox == (1, 1, 7, 7) and dot.bbox == (4, 4, 4, 4)
    for y in range(2, 7):
        for x in range(2, 7):  # inside the ring's bbox, off the ring
            assert not ring.contains(x, y)
            assert dot.contains(x, y) == ((x, y) == (4, 4))
    assert ring.contains(1, 1) and ring.contains(7, 4)
    assert not ring.contains(0, 0) and not ring.contains(8, 4) and not ring.contains(-1, 1)
    assert select_hand_blob([ring, dot], HandSeed(4, 4, 700)) is dot
    with pytest.raises(NotFoundError):
        select_hand_blob([ring, dot], HandSeed(3, 4, 700))


def test_lowest_ranks_only_the_blobs_own_pixels():
    mask = ring_around_a_dot()
    ring, dot = connected_components(mask)
    values = np.where(mask, np.iinfo(np.uint16).max, 0).astype(np.uint16)
    values[7, 2] = values[1, 6] = 65534  # the ring's minimum, twice
    assert lowest(ring, values) == (6, 1, 65534)  # raster-first of the tie
    assert lowest(dot, values) == (4, 4, 65535)  # every other pixel of the frame is lower


@deterministic
@given(masks, st.integers(1, 2**16), st.integers(0, 2**32 - 1))
def test_contains_and_lowest_match_flood_fill(mask, top, seed):
    # top bounds the values, so small draws make ties for lowest to break
    values = np.random.default_rng(seed).integers(0, top, mask.shape, dtype=np.uint16)
    blobs, components = connected_components(mask), flood_fill_components(mask)
    assert len(blobs) == len(components)
    for blob, pixels in zip(blobs, components):
        min_x, min_y, max_x, max_y = blob.bbox
        assert all(blob.contains(x, y) == ((x, y) in pixels)
                   for y in range(min_y - 1, max_y + 2) for x in range(min_x - 1, max_x + 2))
        value, y, x = _raster_first_min(pixels, values)
        assert lowest(blob, values) == (x, y, value)


def test_find_seeds_empty_scene():
    frame = uniform_frame(RAW_SENTINEL)
    with pytest.raises(NotFoundError):
        find_hand_seeds(frame, 1, min_area=10)


def test_find_seeds_min_area_gate():
    samples = np.full((20, 20), 900, dtype=np.uint16)
    samples[5, 5] = 600  # a single near pixel, below min_area
    with pytest.raises(NotFoundError):
        find_hand_seeds(DepthFrame(samples), 1, min_area=10, slab_cm=5.0)


def test_find_seeds_single_hand():
    spec = HandSpec(palm_center=(80, 70), palm_radius=20, finger_count=2,
                    finger_length=24, finger_width=8, orientation_deg=45,
                    base_depth_cm=80, tip_slope=2)
    frame, (truth,) = render_scene([spec], (160, 140), 170)
    seeds = find_hand_seeds(frame, 2, min_area=50)
    assert len(seeds) == 1
    seed = seeds[0]
    assert truth.support[seed.y, seed.x]
    assert seed.depth_raw == int(frame.samples[seed.y, seed.x])


def test_find_seeds_two_hands():
    left = HandSpec(palm_center=(60, 70), palm_radius=18, finger_count=2,
                    finger_length=22, finger_width=7, orientation_deg=250,
                    base_depth_cm=80, tip_slope=2)
    right = HandSpec(palm_center=(180, 70), palm_radius=18, finger_count=3,
                     finger_length=22, finger_width=7, orientation_deg=290,
                     base_depth_cm=83, tip_slope=2)
    frame, truths = render_scene([left, right], (240, 140), 170)
    seeds = find_hand_seeds(frame, 2, min_area=50)
    assert len(seeds) == 2
    hit_hands = set()
    for seed in seeds:
        for i, truth in enumerate(truths):
            if truth.support[seed.y, seed.x]:
                hit_hands.add(i)
    assert hit_hands == {0, 1}  # one seed per hand


def test_find_seeds_validation():
    frame = uniform_frame(700)
    with pytest.raises(ValueError):
        find_hand_seeds(frame, 3, min_area=1)
    with pytest.raises(ValueError):
        find_hand_seeds(frame, 1, min_area=0)
    for slab_cm in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError):
            find_hand_seeds(frame, 1, min_area=1, slab_cm=slab_cm)


def seeds_and_paths(frame, band_cm=15.0, slab_cm=20.0, min_area=50, params=DEFAULT_CALIBRATION):
    """``(seed, path, blob)`` of segment_hand on each found seed, checked against the oracle.

    Every path is held to the same oracle: a returned slab blob too must
    equal the whole frame's band blob in all but its label.
    """
    out = []
    for seed in find_hand_seeds(frame, 2, min_area, slab_cm, params):
        path, blob = segment_hand_path(frame, seed, band_cm, params)
        assert blob_key(blob) == blob_key(hand_blob_whole_frame(frame, seed, band_cm, params))
        assert paths_agree(path, expected_path(frame, seed, band_cm, slab_cm, params))
        out.append((seed, path, blob))
    return out


def two_hand_frame(far_cm, block_cm=None):
    """A hand at 80 cm on the left, one at ``far_cm`` on the right.

    With ``block_cm``, a flat block at that depth overlaps the far palm's
    right edge.
    """
    near = HandSpec(palm_center=(60, 70), palm_radius=18, finger_count=2,
                    finger_length=22, finger_width=7, orientation_deg=250,
                    base_depth_cm=80, tip_slope=2)
    far = HandSpec(palm_center=(180, 70), palm_radius=18, finger_count=3,
                   finger_length=22, finger_width=7, orientation_deg=290,
                   base_depth_cm=far_cm, tip_slope=2)
    frame, (_, far_truth) = render_scene([near, far], (240, 140), 170)
    if block_cm is None:
        return frame
    samples = frame.samples.copy()
    block = np.zeros(samples.shape, dtype=bool)
    block[62:80, 190:230] = True
    samples[block & ~far_truth.support] = cm_to_raw(block_cm)
    return DepthFrame(samples)


def by_side(found):
    """The paths of the left (near) and right (far) hand's seeds."""
    return {("near" if seed.x < 120 else "far"): path for seed, path, _ in found}


def test_segment_hand_labels_inside_the_slab_blob():
    found = seeds_and_paths(two_hand_frame(83))
    assert by_side(found) == {"near": "slab", "far": "slab"}
    for seed, _, blob in found:
        slab = seed.slab[0]
        assert not (placed(blob, (140, 240)) & ~placed(slab, (140, 240))).any()


@pytest.mark.parametrize("far_cm", [88, 92, 95])
def test_segment_hand_falls_back_when_the_band_reaches_past_the_slab(far_cm):
    # the far hand sits 6-15 cm behind the nearest pixel (a near fingertip)
    assert by_side(seeds_and_paths(two_hand_frame(far_cm))) == {"near": "slab", "far": "frame"}


def test_segment_hand_follows_the_band_out_of_the_slab_blob():
    # A block past the slab but inside the far hand's band, overlapping
    # the far palm: the far hand's band blob holds pixels of it that its
    # slab blob lacks.
    frame = two_hand_frame(89)
    near_cm = raw_to_cm(int(frame.samples.min()))
    far_seed = max(find_hand_seeds(frame, 2, 50), key=lambda seed: seed.x)
    block_cm = (near_cm + 20.0 + raw_to_cm(far_seed.depth_raw) + 15.0) / 2
    frame = two_hand_frame(89, block_cm=block_cm)
    found = seeds_and_paths(frame)
    assert by_side(found) == {"near": "slab", "far": "frame"}
    ((seed, _, blob),) = [f for f in found if f[0].x >= 120]
    assert seed == far_seed
    outside = placed(blob, (140, 240)) & ~placed(seed.slab[0], (140, 240))
    block = np.zeros_like(outside)
    block[62:80, 190:230] = True
    assert outside[70, 229] and not (outside & ~block).any()


def test_segment_hand_labels_the_whole_frame_when_the_slab_blob_leaves_the_band():
    # A wrist step 17.5 cm behind the nearest pixel joins the palm: inside
    # the 20 cm slab, outside the 15 cm band around the fingertip seed.
    spec = HandSpec(palm_center=(80, 60), palm_radius=18, finger_count=3,
                    finger_length=22, finger_width=7, orientation_deg=270,
                    base_depth_cm=80, tip_slope=2)
    frame, (truth,) = render_scene([spec], (160, 120), 170)
    samples = frame.samples.copy()
    wrist = np.zeros(samples.shape, dtype=bool)
    wrist[70:, 72:89] = True
    wrist &= ~truth.support
    samples[wrist] = cm_to_raw(raw_to_cm(int(samples.min())) + 17.5)
    ((seed, path, blob),) = seeds_and_paths(DepthFrame(samples), min_area=100)
    assert path == "frame" and blob is not seed.slab[0]
    slab_only = placed(seed.slab[0], samples.shape) & ~placed(blob, samples.shape)
    assert np.array_equal(slab_only, wrist)


def test_segment_hand_returns_the_slab_blob_on_every_corpus_seed():
    # Each corpus hand lies within the band of its nearest pixel, so its
    # slab blob is its band blob (seeds_and_paths checks every blob_key).
    paths = []
    for scene in build_corpus(200, seed=3):
        frame, _ = scene.render()
        paths += [path for _, path, _ in seeds_and_paths(frame, min_area=100)]
    assert paths == ["slab"] * 200


def test_segment_hand_band_at_least_the_slab_uses_the_whole_frame():
    found = seeds_and_paths(two_hand_frame(83), band_cm=15.0, slab_cm=12.0)
    assert by_side(found) == {"near": "frame", "far": "frame"}


def test_segment_hand_without_a_slab_uses_the_whole_frame():
    frame = two_hand_frame(83)
    for seed in find_hand_seeds(frame, 2, 50):
        bare = HandSeed(seed.x, seed.y, seed.depth_raw)
        assert bare == seed and bare.slab is None
        path, blob = segment_hand_path(frame, bare, 15.0, DEFAULT_CALIBRATION)
        want = hand_blob_whole_frame(frame, seed, 15.0, DEFAULT_CALIBRATION)
        assert path == "frame" and blob_key(blob) == blob_key(want)
    for band_cm in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError):
            segment_hand(frame, seed, band_cm)
    with pytest.raises(NotFoundError):
        segment_hand(frame, HandSeed(0, 0, seed.depth_raw), 15.0)


def blocky_frame(h, w, cell, seed):
    """Near codes in cells of random depth, with noise and 5 % dropouts."""
    rng = np.random.default_rng(seed)
    coarse = rng.integers(520, 720, (h // cell + 1, w // cell + 1))
    samples = np.kron(coarse, np.ones((cell, cell), dtype=np.int64))[:h, :w]
    samples += rng.integers(0, 4, (h, w))
    samples[rng.random((h, w)) < 0.05] = RAW_SENTINEL
    return DepthFrame(samples.astype(np.uint16))


@deterministic
@given(
    st.builds(blocky_frame, st.integers(4, 40), st.integers(4, 40), st.integers(1, 6),
              st.integers(0, 2**32 - 1)),
    st.floats(0.3, 25.0),
    st.floats(0.3, 25.0),
)
def test_segment_hand_matches_whole_frame_band_on_random_frames(frame, band_cm, slab_cm):
    try:
        seeds_and_paths(frame, band_cm, slab_cm, min_area=1)
    except NotFoundError:
        assert (frame.samples == RAW_SENTINEL).all()


def test_fill_holes():
    ys, xs = np.ogrid[:30, :30]
    disk = (xs - 15) ** 2 + (ys - 15) ** 2 <= 100
    holed = disk.copy()
    holed[15, 15] = False
    holed[12, 17] = False
    assert (filled_mask(holed) == disk).all()
    # a bay connected to the border must stay open
    bay = disk.copy()
    bay[0:16, 15] = False
    assert (filled_mask(bay) == bay).all()


def fill_holes_oracle(mask):
    """Everything but the 4-connected background reaching (0, 0) of the padded mask."""
    padded = np.pad(mask, 1, constant_values=False)
    (outside,) = [c for c in flood_fill_components(~padded, connectivity=4) if (0, 0) in c]
    filled = np.ones(padded.shape, dtype=bool)
    for x, y in outside:
        filled[y, x] = False
    return filled[1:-1, 1:-1]


def assert_fill_matches_oracles(mask):
    runs = mask_runs(mask)
    before = runs.copy()
    got = fill_holes(runs, mask.shape)
    assert np.array_equal(runs, before)  # the input is not written to
    assert got.dtype == np.int64 and got.shape[0] == 3
    want = fill_holes_padded(mask)
    assert np.array_equal(paint(got, mask.shape), fill_holes_oracle(mask))
    assert np.array_equal(paint(got, mask.shape), want)
    assert np.array_equal(got, mask_runs(want))  # maximal runs, in raster order


def test_fill_holes_edge_masks_match_oracle():
    ring = np.ones((5, 5), dtype=bool)
    ring[2, 2] = False  # a hole in a mask that covers the whole border
    for mask in [*edge_masks(), ring, ~ring, *long_path_masks()]:
        assert_fill_matches_oracles(mask)


def test_fill_holes_border_contact_cases():
    # a hole that meets the border background only at a corner stays a hole
    corner = np.ones((5, 6), dtype=bool)
    corner[[0, 1, 4, 3], [0, 1, 5, 4]] = False
    filled = np.ones_like(corner)
    filled[[0, 4], [0, 5]] = False
    assert np.array_equal(filled_mask(corner), filled)
    # a bay reaching only the last column, or only the last row, stays open
    last_col = np.ones((5, 6), dtype=bool)
    last_col[2, 2:] = False
    last_row = np.ones((5, 6), dtype=bool)
    last_row[2:, 3] = False
    rng = np.random.default_rng(59)
    lines = [rng.random((1, 23)) < 0.5, rng.random((23, 1)) < 0.5]
    flat = [np.ones((4, 7), dtype=bool), np.zeros((4, 7), dtype=bool)]
    for mask in [last_col, last_row, *lines, *flat]:
        assert np.array_equal(filled_mask(mask), mask)
    for mask in [corner, last_col, last_row, *lines, *flat]:
        assert_fill_matches_oracles(mask)


def fill_from_runs_cases():
    """Masks with empty rows, holes that touch only diagonally, and rings inside rings."""
    rng = np.random.default_rng(61)
    for _ in range(60):
        mask = random_mask(rng, (int(rng.integers(2, 24)), int(rng.integers(2, 24))))
        mask[rng.random(mask.shape[0]) < 0.3] = False  # empty rows, first and last too
        yield mask
    # a hole whose only background neighbour is diagonal, at every corner of a hole
    for dy, dx in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
        mask = np.ones((7, 7), dtype=bool)
        mask[3, 3] = mask[3 + dy, 3 + dx] = False  # diagonal pair: two 4-separate holes
        yield mask
        # an inner pixel that meets the border background only across a corner
        corner = np.ones((4, 4), dtype=bool)
        corner[1 + (dy > 0), 1 + (dx > 0)] = corner[3 * (dy > 0), 3 * (dx > 0)] = False
        yield corner
    # nested square rings, with and without a gap cut through each
    for size in (5, 9, 13, 21):
        rings = np.zeros((size, size), dtype=bool)
        for k in range(0, size // 2 + 1, 2):
            rings[k:size - k, k:size - k] = True
            rings[k + 1:size - k - 1, k + 1:size - k - 1] = False
        yield rings
        yield ~rings
        cut = rings.copy()
        cut[size // 2, : size // 2] = False
        yield cut
    yield np.zeros((5, 4), dtype=bool)  # every row empty
    for shape in ((0, 0), (0, 4), (4, 0)):
        yield np.zeros(shape, dtype=bool)


def test_fill_holes_from_runs_on_empty_rows_diagonal_holes_and_rings():
    for mask in fill_from_runs_cases():
        assert_fill_matches_oracles(mask)


def test_fill_holes_leaves_the_shared_run_array_alone():
    mask = np.zeros((6, 12), dtype=bool)
    mask[1:5, 1:5] = mask[1:5, 7:11] = True
    mask[2, 2] = mask[3, 9] = False  # one hole in each blob
    blobs = connected_components(mask)
    before = [b.runs.copy() for b in blobs]
    assert blobs[0].runs.base is blobs[1].runs.base  # both slices of one run array
    for blob in blobs:
        assert paint(fill_holes(blob.runs, blob.shape), blob.shape).all()
    assert all(np.array_equal(b.runs, r) for b, r in zip(blobs, before))


def test_extract_hands_leaves_the_returned_slab_blobs_alone(monkeypatch):
    # Corpus frames have dropouts, so each slab blob has holes to fill.
    config = PipelineConfig()
    for scene in build_corpus(4, seed=3):
        frame, _ = scene.render()
        seeds = find_hand_seeds(frame, config.max_hands, config.min_area, config.slab_cm)
        before = [seed.slab[0].runs.copy() for seed in seeds]
        masks_before = [paint(r, seed.slab[0].shape) for seed, r in zip(seeds, before)]
        assert not all(np.array_equal(filled_mask(m), m) for m in masks_before)
        monkeypatch.setattr(pipeline, "find_hand_seeds", lambda *args: seeds)
        hands = extract_hands(frame, config)
        assert [blob for _, _, blob in hands] == [seed.slab[0] for seed in seeds]
        assert all(np.array_equal(s.slab[0].runs, r) for s, r in zip(seeds, before))


@deterministic
@given(masks)
def test_fill_holes_random_masks_match_oracle(mask):
    assert_fill_matches_oracles(mask)


def float_band_mask(samples, seed_raw, band_cm, params):
    """The band mask computed through a float cm image of the whole frame."""
    cm = params.cm_table[samples]
    valid = ~np.isnan(cm)
    mask = np.zeros(valid.shape, dtype=bool)
    mask[valid] = np.abs(cm[valid] - raw_to_cm(seed_raw, params)) <= band_cm
    return mask


def float_hand_seeds(samples, max_hands, min_area, slab_cm, params):
    """find_hand_seeds computed through a float cm image and full-frame argmins."""
    valid = samples <= params.raw_valid_max
    if not valid.any():
        return NotFoundError
    cm = params.cm_table[samples]
    fg = np.zeros(valid.shape, dtype=bool)
    fg[valid] = cm[valid] <= raw_to_cm(int(samples[valid].min()), params) + slab_cm
    labels, stats = label_rowwise(fg)
    big = [lab for lab, st in enumerate(stats, start=1) if st[0] >= min_area]
    if not big:
        return NotFoundError
    big.sort(key=lambda lab: (-stats[lab - 1][0], lab))
    seeds = []
    for lab in big[:max_hands]:
        vals = np.where(labels == lab, samples.astype(np.int64), 4096)
        y, x = divmod(int(np.argmin(vals)), vals.shape[1])
        seeds.append(HandSeed(x=x, y=y, depth_raw=int(samples[y, x])))
    return seeds


def every_raw_value_frames():
    rng = np.random.default_rng(59)
    codes = np.arange(RAW_SENTINEL + 1, dtype=np.uint16)
    yield codes.reshape(32, 64)
    yield rng.permutation(codes).reshape(64, 32)
    for _ in range(3):  # every code once, plus blocky near regions
        frame = np.concatenate([rng.permutation(codes), rng.integers(0, 2048, 1024)])
        frame = frame.astype(np.uint16).reshape(48, 64)
        y, x = rng.integers(0, 40), rng.integers(0, 56)
        frame[y:y + 8, x:x + 8] = rng.integers(0, 12, (8, 8))
        yield frame


def test_thresholds_match_float_image_on_every_raw_value():
    for params in (DEFAULT_CALIBRATION, CalibrationParams(raw_valid_max=1000)):
        for samples in every_raw_value_frames():
            frame = DepthFrame(samples)
            for seed_raw in (0, 1, 517, 804, params.raw_valid_max - 1, params.raw_valid_max):
                for band_cm in (0.3, 15.0, 400.0):
                    got = band_mask(frame, HandSeed(0, 0, seed_raw), band_cm, params)
                    assert np.array_equal(got, float_band_mask(samples, seed_raw, band_cm, params))
            for slab_cm in (0.05, 20.0, 300.0):
                for max_hands, min_area in ((1, 1), (2, 2), (2, 40)):
                    want = float_hand_seeds(samples, max_hands, min_area, slab_cm, params)
                    try:
                        got = find_hand_seeds(frame, max_hands, min_area, slab_cm, params)
                    except NotFoundError:
                        got = NotFoundError
                    assert got == want


ALL_CODES = np.arange(RAW_SENTINEL + 1, dtype=np.uint16).reshape(32, 64)


def test_table_mask_interval_matches_lookup_on_every_code():
    tables = []
    for lo, hi in ((0, 0), (0, 700), (0, 2046), (0, 2047), (1, 1), (3, 2046), (517, 900),
                   (1500, 2047), (2047, 2047)):
        table = np.zeros(RAW_SENTINEL + 1, dtype=bool)
        table[lo:hi + 1] = True
        tables.append(table)
    # find_hand_seeds' slab tables rise from code 0: the lo == 0 compare
    for near in (0, 600, DEFAULT_CALIBRATION.raw_valid_max):
        slab = DEFAULT_CALIBRATION.cm_table <= raw_to_cm(near) + 20.0
        assert slab[:near + 1].all() and not slab[-1]
        tables.append(slab)
    for table in tables:
        got = _table_mask(table, ALL_CODES)
        assert got.dtype == bool and np.array_equal(got, table[ALL_CODES])


def test_table_mask_falls_back_to_lookup_on_gaps_and_empty_tables():
    gappy = np.zeros(RAW_SENTINEL + 1, dtype=bool)
    gappy[[5, 6, 7, 900, 2047]] = True  # an interval compare would take 8..899 too
    for table in (gappy, ~gappy, np.zeros(RAW_SENTINEL + 1, dtype=bool)):
        assert np.array_equal(_table_mask(table, ALL_CODES), table[ALL_CODES])


def assert_window_labels_the_whole_frames_slab(samples, in_slab):
    """_slab_components gives the whole frame's slab labelling, blob for blob, in frame coordinates."""
    want = connected_components(_table_mask(in_slab, samples))
    got = _slab_components(samples, samples.min(axis=1), in_slab, 1)
    assert [blob_key(b) for b in got] == [blob_key(b) for b in want]


def window_case(h, w, seed, hi_over, density):
    """Far noise over near blocks and dropouts, with a table through the nearest code.

    ``density`` None is the interval [0, hi]; otherwise each code up to
    hi is in the table with that chance (a table with gaps, labelled by
    the lookup), with the nearest code and hi always in.
    """
    samples = blocky_frame(h, w, 1 + seed % 6, seed).samples.copy()
    far = np.random.default_rng(seed).random((h, w)) < 0.5
    samples[far & (samples != RAW_SENTINEL)] += 150
    near = int(samples.min())
    hi = min(near + hi_over, RAW_SENTINEL)
    table = np.zeros(RAW_SENTINEL + 1, dtype=bool)
    if density is None:
        table[:hi + 1] = True
    else:
        table[:hi + 1] = np.random.default_rng(seed + 1).random(hi + 1) < density
        table[[near, hi]] = True
    return samples, table


@deterministic
@given(
    st.builds(window_case, st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
              st.integers(0, 400), st.none() | st.floats(0.05, 0.95)),
)
def test_slab_window_labels_what_the_whole_frame_does(case):
    samples, table = case
    assert_window_labels_the_whole_frames_slab(samples, table)
    if (samples == RAW_SENTINEL).all():
        return
    # find_hand_seeds' own slab: each seed's blob is a whole-frame slab blob,
    # its codes are the blob's in raster order and the seed their raster-first least
    frame, slab_cm = DepthFrame(samples), float(np.random.default_rng(samples.size).uniform(0.3, 25))
    near_cm = raw_to_cm(int(samples.min()))
    in_slab = DEFAULT_CALIBRATION.cm_table <= near_cm + slab_cm
    whole = [blob_key(b) for b in connected_components(_table_mask(in_slab, samples))]
    for seed in find_hand_seeds(frame, 2, 1, slab_cm):
        blob, table, codes = seed.slab
        assert table is not None and np.array_equal(table, in_slab)
        assert blob_key(blob) in whole
        assert np.array_equal(codes, samples[placed(blob, samples.shape)])
        assert (seed.x, seed.y, seed.depth_raw) == lowest(blob, samples)


def one_slab_pixel_or_edge(shape, where):
    """Far codes everywhere but the near ``where`` (a slice or one pixel), which touches a border."""
    samples = np.full(shape, 900, dtype=np.uint16)
    samples[2, 3] = RAW_SENTINEL
    samples[where] = 600
    return samples


@pytest.mark.parametrize("where", [
    np.s_[0, 2:5], np.s_[-1, 1:], np.s_[1:4, 0], np.s_[:, -1],  # each border
    np.s_[0, 0], np.s_[0, -1], np.s_[-1, 0], np.s_[-1, -1], np.s_[3, 4],  # one pixel
    np.s_[:, :],
])
def test_slab_window_at_each_border_and_on_one_pixel(where):
    samples = one_slab_pixel_or_edge((6, 7), where)
    in_slab = DEFAULT_CALIBRATION.cm_table <= raw_to_cm(600) + 5.0
    assert in_slab[600] and not in_slab[900]
    assert_window_labels_the_whole_frames_slab(samples, in_slab)
    gappy = in_slab.copy()
    gappy[300:500] = False  # the lookup fallback over the same window
    assert_window_labels_the_whole_frames_slab(samples, gappy)
    (seed,) = find_hand_seeds(DepthFrame(samples), 2, 1, 5.0)
    ys, xs = (samples == 600).nonzero()
    assert seed.slab[0].bbox == (xs.min(), ys.min(), xs.max(), ys.max())
    assert (seed.y, seed.x) == (ys[0], xs[0])
