from dataclasses import replace

import numpy as np
import pytest

from handdepth import pipeline
from handdepth.calibration import DEFAULT_CALIBRATION, RAW_SENTINEL, raw_to_cm
from handdepth.distance import find_palm_center
from handdepth.fingertips import detect_fingertips
from handdepth.morphology import extract_palm
from handdepth.pipeline import PipelineConfig, extract_hands
from handdepth.synthetic import HandSpec, build_corpus, render_scene

from reference import edge_masks, fingertips_from_blobs, random_mask
from via_runs import distance_of


def hand_of(shape, *fingers):
    """A mask made of the given fingers, each a list of (x, y) pixels."""
    mask = np.zeros(shape, dtype=bool)
    for finger in fingers:
        for x, y in finger:
            mask[y, x] = True
    return mask


def tips_of(samples, *fingers):
    """Fingertips of a palmless hand made of the given fingers."""
    hand = hand_of(np.shape(samples), *fingers)
    return detect_fingertips(hand, np.zeros_like(hand), samples)


def test_single_pixel_mask():
    samples = np.array([[900, 800, 650], [700, 600, 900]], dtype=np.uint16)
    assert tips_of(samples, [(2, 0)]) == []  # below the 4 px sliver floor
    (tip,) = tips_of(samples, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert (tip.x, tip.y, tip.finger_index) == (1, 1, 0)
    assert tip.depth_cm == pytest.approx(raw_to_cm(600))


def test_uniform_depth_tie_breaks_topmost_leftmost():
    samples = np.full((4, 4), 500, dtype=np.uint16)
    (tip,) = tips_of(samples, [(2, 3), (1, 2), (3, 2), (2, 1)])
    assert (tip.x, tip.y) == (2, 1)


def test_sentinel_pixels_skipped():
    samples = np.array([[RAW_SENTINEL, 800, 750, 760]], dtype=np.uint16)
    (tip,) = tips_of(samples, [(0, 0), (1, 0), (2, 0), (3, 0)])
    assert (tip.x, tip.y) == (2, 0)


def test_all_sentinel_finger_omitted():
    samples = np.array([[RAW_SENTINEL] * 5 + [900] + [700] * 4], dtype=np.uint16)
    dead = [(x, 0) for x in range(5)]
    live = [(x, 0) for x in range(6, 10)]
    tips = tips_of(samples, dead, live)
    assert len(tips) == 1
    assert tips[0].finger_index == 1  # the live finger keeps its rank by area


def test_all_sentinel_finger_ignores_usable_pixels_in_its_bbox():
    samples = np.array([[RAW_SENTINEL, 600, 900, 900],
                        [RAW_SENTINEL, 900, 900, 800],
                        [RAW_SENTINEL, 900, 900, 900],
                        [RAW_SENTINEL, RAW_SENTINEL, 900, 900]], dtype=np.uint16)
    dead = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3)]  # an L whose bbox holds (1, 0)
    live = [(3, 0), (3, 1), (3, 2), (3, 3)]
    (tip,) = tips_of(samples, dead, live)
    assert (tip.x, tip.y, tip.finger_index) == (3, 1, 1)
    assert tips_of(samples, dead) == []


def test_depth_equals_frame_value_at_tip():
    rng = np.random.default_rng(31)
    samples = rng.integers(300, 1000, size=(12, 12), dtype=np.uint16)
    mask = np.zeros((12, 12), dtype=bool)
    mask[4:9, 2:7] = True
    (tip,) = detect_fingertips(mask, np.zeros_like(mask), samples)
    assert mask[tip.y, tip.x]
    assert tip.depth_cm == pytest.approx(raw_to_cm(int(samples[tip.y, tip.x])))
    assert int(samples[tip.y, tip.x]) == int(samples[mask].min())


def test_tip_invariant_to_outside_pixels():
    samples = np.full((8, 8), 900, dtype=np.uint16)
    samples[3, 3] = 500
    finger = [(3, 3), (4, 3), (3, 4), (4, 4)]
    base = tips_of(samples, finger)
    noisy = samples.copy()
    noisy[7, 7] = 5
    noisy[0, 0] = RAW_SENTINEL
    assert tips_of(noisy, finger) == base


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
    frame, (truth,) = render_scene([spec], (180, 180), 170)
    dist = distance_of(truth.support)
    center = find_palm_center(dist)
    palm = extract_palm(dist, round(0.7 * center.inradius_px))
    tips = detect_fingertips(truth.support, palm, frame.samples)
    assert sorted((t.x, t.y) for t in tips) == sorted(truth.fingertips)


def test_matches_finger_blobs_on_random_edge_and_corpus_hands():
    rng = np.random.default_rng(27)
    near = replace(DEFAULT_CALIBRATION, raw_valid_max=700)
    # few codes, so depth ties are common; 1101, 2046 and 2047 are past the
    # default raw_valid_max, and 900 is past ``near``'s
    codes = np.array([300, 301, 700, 900, 1100, 1101, 2046, RAW_SENTINEL], dtype=np.uint16)
    hands = list(edge_masks())
    hands += [random_mask(rng, tuple(rng.integers(1, 60, size=2))) for _ in range(300)]
    for hand in hands:
        for palm in (np.zeros_like(hand), hand, hand & random_mask(rng, hand.shape)):
            samples = rng.choice(codes[:int(rng.integers(2, codes.size + 1))], size=hand.shape)
            for params in (DEFAULT_CALIBRATION, near):
                assert detect_fingertips(hand, palm, samples, params) == fingertips_from_blobs(
                    hand, palm, samples, params)

    compared = []

    def checked(hand, palm, samples, params):
        tips = detect_fingertips(hand, palm, samples, params)
        assert tips == fingertips_from_blobs(hand, palm, samples, params)
        compared.append(len(tips))
        return tips

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "detect_fingertips", checked)
        for scene in build_corpus(60, seed=9):
            extract_hands(scene.render()[0], PipelineConfig())
    assert len(compared) >= 60 and sum(compared) > 0
