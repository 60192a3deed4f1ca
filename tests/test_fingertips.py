import numpy as np
import pytest

from handdepth.calibration import RAW_SENTINEL, raw_to_cm
from handdepth.distance import distance_transform, find_palm_center
from handdepth.fingertips import detect_fingertips
from handdepth.frame_io import DepthFrame
from handdepth.morphology import extract_palm, finger_masks
from handdepth.segmentation import connected_components
from handdepth.synthetic import HandSpec, render_hand


def frame_of(rows) -> DepthFrame:
    return DepthFrame(np.array(rows, dtype=np.uint16))


def mask_at(shape, coords):
    """The one connected component made of the given (x, y) pixels."""
    mask = np.zeros(shape, dtype=bool)
    for x, y in coords:
        mask[y, x] = True
    (finger,) = connected_components(mask)
    return finger


def test_single_pixel_mask():
    frame = frame_of([[900, 800], [700, 600]])
    mask = mask_at((2, 2), [(1, 0)])
    (tip,) = detect_fingertips(frame.samples, [mask])
    assert (tip.x, tip.y, tip.finger_index) == (1, 0, 0)
    assert tip.depth_cm == pytest.approx(raw_to_cm(800))


def test_uniform_depth_tie_breaks_topmost_leftmost():
    frame = frame_of([[500] * 4] * 4)
    mask = mask_at((4, 4), [(2, 3), (1, 2), (3, 2), (2, 1)])
    (tip,) = detect_fingertips(frame.samples, [mask])
    assert (tip.x, tip.y) == (2, 1)


def test_sentinel_pixels_skipped():
    frame = frame_of([[RAW_SENTINEL, 800, 750]])
    mask = mask_at((1, 3), [(0, 0), (1, 0), (2, 0)])
    (tip,) = detect_fingertips(frame.samples, [mask])
    assert (tip.x, tip.y) == (2, 0)


def test_all_sentinel_finger_omitted():
    frame = frame_of([[RAW_SENTINEL, RAW_SENTINEL, 700]])
    dead = mask_at((1, 3), [(0, 0), (1, 0)])
    live = mask_at((1, 3), [(2, 0)])
    tips = detect_fingertips(frame.samples, [dead, live])
    assert len(tips) == 1
    assert tips[0].finger_index == 1  # index keyed to input position, not output


def test_all_sentinel_finger_ignores_usable_pixels_in_its_bbox():
    frame = frame_of([[RAW_SENTINEL, 600, 900], [RAW_SENTINEL, RAW_SENTINEL, 900]])
    dead = mask_at((2, 3), [(0, 0), (0, 1), (1, 1)])  # an L whose bbox holds (1, 0)
    live = mask_at((2, 3), [(2, 0), (2, 1)])
    (tip,) = detect_fingertips(frame.samples, [dead, live])
    assert (tip.x, tip.y, tip.finger_index) == (2, 0, 1)
    assert detect_fingertips(frame.samples, [dead]) == []


def test_depth_equals_frame_value_at_tip():
    rng = np.random.default_rng(31)
    samples = rng.integers(300, 1000, size=(12, 12), dtype=np.uint16)
    mask = np.zeros((12, 12), dtype=bool)
    mask[4:9, 2:7] = True
    (tip,) = detect_fingertips(samples, connected_components(mask))
    assert mask[tip.y, tip.x]
    assert tip.depth_cm == pytest.approx(raw_to_cm(int(samples[tip.y, tip.x])))
    assert int(samples[tip.y, tip.x]) == int(samples[mask].min())


def test_permuting_masks_permutes_indices():
    rng = np.random.default_rng(32)
    samples = rng.integers(300, 1000, size=(10, 14), dtype=np.uint16)
    masks = [
        mask_at((10, 14), [(1, 1), (2, 1)]),
        mask_at((10, 14), [(7, 5), (8, 5), (8, 6)]),
        mask_at((10, 14), [(12, 8)]),
    ]
    forward = detect_fingertips(samples, masks)
    backward = detect_fingertips(samples, masks[::-1])
    remapped = sorted(
        ((len(masks) - 1 - t.finger_index, t.x, t.y, t.depth_cm) for t in backward)
    )
    assert remapped == sorted((t.finger_index, t.x, t.y, t.depth_cm) for t in forward)


def test_tip_invariant_to_outside_pixels():
    samples = np.full((8, 8), 900, dtype=np.uint16)
    samples[3, 3] = 500
    mask = mask_at((8, 8), [(3, 3), (4, 3), (3, 4)])
    base = detect_fingertips(samples, [mask])
    noisy = samples.copy()
    noisy[7, 7] = 5
    noisy[0, 0] = RAW_SENTINEL
    again = detect_fingertips(noisy, [mask])
    assert base == again


def test_synthetic_tips_found_exactly():
    spec = HandSpec(
        palm_center=(90, 90),
        palm_radius=25,
        finger_count=5,
        finger_length=30,
        finger_width=9,
        orientation_deg=77,
        base_depth_cm=85,
        tip_slope=1,
    )
    frame, truth = render_hand(spec, (180, 180), 170)
    dist = distance_transform(truth.support)
    center = find_palm_center(dist)
    palm = extract_palm(dist, round(0.7 * center.inradius_px))
    fingers = finger_masks(truth.support, palm, 12)
    tips = detect_fingertips(frame.samples, fingers)
    assert sorted((t.x, t.y) for t in tips) == sorted(truth.fingertips)
