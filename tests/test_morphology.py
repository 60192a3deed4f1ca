import numpy as np
import pytest
from hypothesis import given, strategies as st

from handdepth import distance, morphology
from handdepth.distance import distance_transform, find_palm_center, sq_edt
from handdepth.errors import DegenerateHandError, EmptyResultError
from handdepth.fingertips import detect_fingertips
from handdepth.morphology import auto_radius, extract_palm
from handdepth.synthetic import HandSpec, render_scene

from reference import (
    deterministic,
    dilate_setdef,
    edge_masks,
    erode_setdef,
    masks,
    opening_setdef,
    palm_center_masked,
    random_mask,
)


def centered_disk(radius: int, size: int) -> np.ndarray:
    c = size // 2
    ys, xs = np.ogrid[:size, :size]
    return (xs - c) ** 2 + (ys - c) ** 2 <= radius * radius


def test_radius_zero_is_identity():
    rng = np.random.default_rng(1)
    mask = random_mask(rng, (12, 12))
    assert ((distance_transform(mask) > 0) == mask).all()
    assert ((sq_edt(mask) <= 0) == mask).all()


def test_matches_set_definition_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        mask = random_mask(rng, (24, 24))
        for radius in (1, 2, 3):
            rr = radius * radius
            assert ((distance_transform(mask) > rr) == erode_setdef(mask, radius)).all()
            assert ((sq_edt(mask) <= rr) == dilate_setdef(mask, radius)).all()


def test_opening_anti_extensive_and_idempotent():
    rng = np.random.default_rng(77)
    for _ in range(40):
        mask = random_mask(rng, (20, 20))
        dist = distance_transform(mask)
        for radius in (1, 2, 3):
            if not (dist > radius * radius).any():
                with pytest.raises(EmptyResultError):
                    extract_palm(dist, radius)
                continue
            opened = extract_palm(dist, radius)
            assert not (opened & ~mask).any()  # opened is a subset of the input
            assert (extract_palm(distance_transform(opened), radius) == opened).all()


def test_extract_palm_is_opening_of_the_mapped_mask():
    rng = np.random.default_rng(78)
    for i in range(60):
        mask = random_mask(rng, (22, 26))
        if i % 2:  # blobby masks, so larger radii leave something behind
            mask = dilate_setdef(mask & (rng.random(mask.shape) < 0.1), 3)
        dist = distance_transform(mask)
        for radius in (1, 2, 3, 4):
            opened = opening_setdef(mask, radius)
            if opened.any():
                assert (extract_palm(dist, radius) == opened).all()
            else:
                with pytest.raises(EmptyResultError):
                    extract_palm(dist, radius)


def map_with_core(core: np.ndarray, radius: int, seed: int) -> np.ndarray:
    """A distance map whose values exceed r*r exactly on ``core``."""
    rr = radius * radius
    rng = np.random.default_rng(seed)
    return np.where(core, rng.integers(rr + 1, rr + 9, core.shape),
                    rng.integers(0, rr + 1, core.shape))


def assert_extract_palm_dilates_the_core(core: np.ndarray, radius: int, seed: int) -> None:
    """extract_palm on a map whose core is ``core`` against the dilation of the whole crop."""
    rr = radius * radius
    hand_dist = map_with_core(core, radius, seed)
    if core.any():
        assert np.array_equal(extract_palm(hand_dist, radius), sq_edt(core) <= rr)
    else:
        with pytest.raises(EmptyResultError):
            extract_palm(hand_dist, radius)


@deterministic
@given(masks, st.integers(1, 12), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_extract_palm_dilates_only_near_the_core(mask, radius, keep, seed):
    # thinning the mask leaves sparse cores, some far from the crop's edges
    core = mask & (np.random.default_rng(seed).random(mask.shape) < keep)
    assert_extract_palm_dilates_the_core(core, radius, seed)


def test_extract_palm_dilates_cores_on_the_crop_edge():
    for i, core in enumerate(edge_masks()):
        for radius in (1, 2, 5):
            assert_extract_palm_dilates_the_core(core, radius, i)


def test_extract_palm_dilates_once_within_the_grown_bbox(monkeypatch):
    # The dilation is painted from the core's runs: no distance transform.
    assert not hasattr(morphology, "sq_edt")

    def no_call(*args, **kwargs):
        raise AssertionError("extract_palm called sq_edt")

    monkeypatch.setattr(distance, "sq_edt", no_call)
    # a 4x5 core in a 100x84 crop, in its middle or on its edges and corners
    for y, x in [(40, 52), (0, 0), (96, 79), (0, 30), (50, 79)]:
        core = np.zeros((100, 84), dtype=bool)
        core[y:y + 4, x:x + 5] = True
        for radius in (1, 4, 9):
            opened = extract_palm(map_with_core(core, radius, 5), radius)
            assert np.array_equal(opened, dilate_setdef(core, radius))


def palm_centers_agree(mask: np.ndarray) -> int:
    """Count the radius factors at which the hand's argmax lies in its opening.

    Asserts that restricting the palm-center argmax to the opened palm
    finds the same pixel and inradius as the argmax over the whole hand,
    whenever the opening is non-empty.
    """
    dist = distance_transform(mask)
    agreed = 0
    for factor in (0.1, 0.5, 0.7, 0.9, 0.99):
        try:
            palm = find_palm_center(dist)
            palm_mask = extract_palm(dist, max(1, round(factor * palm.inradius_px)))
        except (DegenerateHandError, EmptyResultError):
            continue
        assert palm_center_masked(dist, palm_mask) == palm
        agreed += 1
    return agreed


@deterministic
@given(masks)
def test_palm_center_lies_in_the_opening_on_random_masks(mask):
    palm_centers_agree(mask)


def test_palm_center_lies_in_the_opening_on_edge_and_blobby_masks():
    agreed = sum(palm_centers_agree(mask) for mask in edge_masks())
    rng = np.random.default_rng(31)
    for _ in range(40):
        seeds = random_mask(rng, (30, 34)) & (rng.random((30, 34)) < 0.05)
        agreed += palm_centers_agree(dilate_setdef(seeds, int(rng.integers(2, 7))))
    assert agreed >= 100


def test_duality_on_padded_domain():
    rng = np.random.default_rng(4)
    for radius in (1, 2, 3):
        rr = radius * radius
        mask = random_mask(rng, (16, 16))
        padded = np.pad(mask, radius, constant_values=False)
        dual = ~(sq_edt(~padded) <= rr)
        assert ((distance_transform(mask) > rr) == dual[radius:-radius, radius:-radius]).all()


def test_opening_keeps_disk_body():
    # A rasterized disk is NOT exactly invariant under opening by a smaller
    # disk: a few extreme rim pixels (r^2 in (361, 400] here) cannot be
    # covered by any radius-10 disk that stays inside.  The set-definition
    # oracle agrees, and the body of the disk survives untouched.
    disk = centered_disk(20, 61)
    opened = extract_palm(distance_transform(disk), 10)
    oracle = opening_setdef(disk, 10)
    assert (opened == oracle).all()
    assert not (opened & ~disk).any()
    core = centered_disk(19, 61)
    assert (opened & core == core).all()
    assert int((disk & ~opened).sum()) <= 20


def test_extract_palm_on_synthetic_hand():
    spec = HandSpec(
        palm_center=(100, 100),
        palm_radius=26,
        finger_count=4,
        finger_length=32,
        finger_width=9,
        orientation_deg=137,
        base_depth_cm=80,
        tip_slope=2,
    )
    _, (truth,) = render_scene([spec], (200, 200), 160)
    dist = distance_transform(truth.support)
    center = find_palm_center(dist)
    palm = extract_palm(dist, round(0.7 * center.inradius_px))
    cx, cy = truth.palm_center
    assert palm[cy, cx]
    assert all(not palm[y, x] for x, y in truth.fingertips)


def test_extract_palm_empty_when_radius_too_large():
    dist = distance_transform(centered_disk(6, 31))
    with pytest.raises(EmptyResultError):
        extract_palm(dist, 9)
    with pytest.raises(ValueError):
        extract_palm(dist, 0)


def test_auto_radius():
    assert auto_radius(20) == 14
    assert auto_radius(1) == 1
    with pytest.raises(ValueError):
        auto_radius(0.5)


def test_min_finger_area_default():
    # the sliver floor is 1 % of the hand's area (15 px of 1529), at least 4 px
    palm = np.zeros((40, 60), dtype=bool)
    palm[:25] = True  # 1500 px
    hand = palm.copy()
    hand[30, 2:16] = hand[33, 2:17] = True  # 14 and 15 px fingers
    samples = np.full(hand.shape, 800, dtype=np.uint16)
    assert [(t.x, t.y) for t in detect_fingertips(hand, palm, samples)] == [(2, 33)]
    tiny = np.zeros((3, 9), dtype=bool)
    tiny[0, :3] = tiny[2, :4] = True  # 3 and 4 px fingers, 7 px of hand
    samples = np.full(tiny.shape, 800, dtype=np.uint16)
    assert [(t.x, t.y) for t in detect_fingertips(tiny, np.zeros_like(tiny), samples)] == [(0, 2)]


def make_hand_and_palm(finger_count, orientation):
    spec = HandSpec(
        palm_center=(100, 100),
        palm_radius=24,
        finger_count=finger_count,
        finger_length=30,
        finger_width=9,
        orientation_deg=orientation,
        base_depth_cm=80,
        tip_slope=2,
    )
    frame, (truth,) = render_scene([spec], (200, 200), 160)
    dist = distance_transform(truth.support)
    center = find_palm_center(dist)
    palm = extract_palm(dist, round(0.7 * center.inradius_px))
    return frame, truth, palm


def test_finger_masks_counts():
    frame, truth, palm = make_hand_and_palm(5, 10)
    assert len(detect_fingertips(truth.support, palm, frame.samples)) == 5
    frame2, truth2, palm2 = make_hand_and_palm(2, 137)
    assert len(detect_fingertips(truth2.support, palm2, frame2.samples)) == 2


def test_finger_masks_disjoint_and_outside_palm():
    frame, truth, palm = make_hand_and_palm(4, 200)
    tips = detect_fingertips(truth.support, palm, frame.samples)
    assert [t.finger_index for t in tips] == [0, 1, 2, 3]
    assert all(truth.support[t.y, t.x] and not palm[t.y, t.x] for t in tips)
    assert len({(t.x, t.y) for t in tips}) == 4


def test_finger_masks_fist_is_empty():
    disk = centered_disk(15, 41)
    samples = np.full(disk.shape, 800, dtype=np.uint16)
    assert detect_fingertips(disk, disk, samples) == []


def test_finger_masks_area_filter_drops_slivers():
    disk = centered_disk(12, 41)
    hand = disk.copy()
    hand[3, 20] = True  # lone speck off the palm
    samples = np.full(disk.shape, 800, dtype=np.uint16)
    assert detect_fingertips(hand, disk, samples) == []


def test_finger_masks_keeps_the_five_largest_largest_first():
    palm = centered_disk(8, 61)
    hand = palm.copy()
    # one-row fingers (y, x0, length) clear of the palm and of each other
    for y, x0, length in ((2, 2, 12), (2, 20, 20), (5, 2, 20), (58, 2, 30),
                          (55, 2, 8), (55, 40, 16), (50, 2, 25)):
        hand[y, x0:x0 + length] = True
    # at uniform depth each tip is its finger's first pixel in raster order
    samples = np.full(hand.shape, 800, dtype=np.uint16)
    tips = detect_fingertips(hand, palm, samples)
    assert [t.finger_index for t in tips] == [0, 1, 2, 3, 4]
    # largest first (30, 25, 20, 20, 16); equal areas keep the raster order
    # of their first pixels
    assert [(t.x, t.y) for t in tips] == [(2, 58), (2, 50), (20, 2), (2, 5), (40, 55)]
