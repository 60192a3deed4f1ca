"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a PASS line with the measured numbers (run with -s to
see them); assertions carry the same thresholds.
"""

import json
import time

import numpy as np
import pytest

from handdepth.benchmark import score_scene
from handdepth.calibration import cm_to_raw, raw_to_cm
from handdepth.errors import EmptyResultError
from handdepth.frame_io import DepthFrame, read_pgm, read_raw, write_pgm, write_raw, write_report
from handdepth.morphology import extract_palm
from handdepth.pipeline import PipelineConfig, extract_hands, run_pipeline
from handdepth.synthetic import HandSpec, build_corpus, random_hand_spec, render_scene
from handdepth.tracking import HandId

from reference import (
    dilate_setdef,
    edt_bruteforce,
    erode_setdef,
    opening_setdef,
    placed,
    random_mask,
    rotated_position,
)
from via_runs import distance_of, filled_mask, target_edt

CONFIG = PipelineConfig()
CORPUS_SEED = 12345
FRAME_SIZE = (320, 240)


@pytest.fixture(scope="module")
def corpus():
    scenes = build_corpus(200, seed=CORPUS_SEED, frame_size=FRAME_SIZE, dropout_rate=0.02)
    rendered = [scene.render() for scene in scenes]
    return scenes, rendered


def test_criterion_1_open_finger_accuracy_and_runtime(corpus):
    scenes, rendered = corpus
    total_true = total_detected = total_matched = 0
    start = time.perf_counter()
    observations = [extract_hands(frame, CONFIG) for frame, _ in rendered]
    elapsed = time.perf_counter() - start
    worst_err = 0.0
    for obs, (_, truths) in zip(observations, rendered):
        score = score_scene(obs, truths)
        total_true += score.true_tips
        total_detected += score.detected_tips
        total_matched += score.matched_tips
        if score.tip_errors_px:
            worst_err = max(worst_err, max(score.tip_errors_px))
    recall = total_matched / total_true
    precision = total_matched / total_detected
    print(
        f"PASS criterion 1: recall={recall:.4f} precision={precision:.4f} "
        f"({total_matched}/{total_true} tips, worst matched error {worst_err:.2f} px) "
        f"runtime={elapsed:.1f}s (limit 60s, single-threaded, 320x240)"
    )
    assert recall >= 0.99
    assert precision >= 0.99
    assert elapsed <= 60.0


def test_criterion_2_palm_center_accuracy(corpus):
    scenes, rendered = corpus
    hands = hits = 0
    for frame, truths in rendered:
        score = score_scene(extract_hands(frame, CONFIG), truths)
        hands += score.hands
        hits += score.palm_hits
    fraction = hits / hands
    print(
        f"PASS criterion 2: palm centers within 0.25*radius for "
        f"{hits}/{hands} hands (fraction {fraction:.4f}, threshold 0.90)"
    )
    assert fraction >= 0.90


def _palm_argmax_tie_set(blob, shape):
    """All frame pixels attaining the palm's distance maximum (the documented tie set)."""
    from handdepth.morphology import auto_radius, extract_palm
    from handdepth.distance import find_palm_center

    dist = distance_of(filled_mask(placed(blob, shape)))
    seed = find_palm_center(dist)
    palm_mask = extract_palm(dist, auto_radius(seed.inradius_px))
    vals = np.where(palm_mask, dist, -1)
    ys, xs = np.nonzero(vals == vals.max())
    return {(int(x), int(y)) for x, y in zip(xs, ys)}


def test_criterion_3_orientation_invariance():
    rng = np.random.default_rng(777)
    width, height = FRAME_SIZE
    checked = palm_ties = 0
    for _ in range(25):
        depth = float(rng.uniform(60, 150))
        spec = random_hand_spec(rng, FRAME_SIZE, depth)
        frame, truths = render_scene([spec], FRAME_SIZE, depth + 60, dropout_rate=0.0)
        base = extract_hands(frame, CONFIG)
        assert len(base) == 1
        palm0, tips0, blob0 = base[0]
        tie_set = _palm_argmax_tie_set(blob0, frame.samples.shape)
        assert (palm0.x, palm0.y) in tie_set
        for quarter in (1, 2, 3):
            rotated = DepthFrame(np.ascontiguousarray(np.rot90(frame.samples, quarter)))
            got = extract_hands(rotated, CONFIG)
            assert len(got) == 1
            palm1, tips1, _ = got[0]
            assert len(tips1) == len(tips0) == spec.finger_count
            mapped = sorted(
                rotated_position(t.x, t.y, width, height, quarter) for t in tips0
            )
            assert sorted((t.x, t.y) for t in tips1) == mapped
            # palm argmax may be tied; any tie-set member is the documented outcome
            mapped_ties = {
                rotated_position(x, y, width, height, quarter) for x, y in tie_set
            }
            assert (palm1.x, palm1.y) in mapped_ties
            if rotated_position(palm0.x, palm0.y, width, height, quarter) != (palm1.x, palm1.y):
                palm_ties += 1
            assert palm1.inradius_px == pytest.approx(palm0.inradius_px, abs=1e-9)
            checked += 1
    print(
        f"PASS criterion 3: {checked} rotated scenes mapped exactly "
        f"({palm_ties} palm argmax ties resolved per the tie rule)"
    )


def test_criterion_4_distance_transform_exactness():
    for bits in range(65536):
        mask = np.array([(bits >> i) & 1 for i in range(16)], dtype=bool).reshape(4, 4)
        if not (distance_of(mask) == edt_bruteforce(mask)).all():
            raise AssertionError(f"4x4 mask {bits:#06x} disagrees with brute force")
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        mask = random_mask(rng, (32, 32))
        assert (distance_of(mask) == edt_bruteforce(mask)).all()
    print("PASS criterion 4: exact on all 65536 4x4 masks and 1000 random 32x32 masks")


def test_criterion_5_morphology_correctness():
    rng = np.random.default_rng(555)
    empty = 0
    for index in range(1000):
        mask = random_mask(rng, (24, 24))
        radius = 1 + index % 3
        rr = radius * radius
        dist = distance_of(mask)
        eroded = dist > rr
        dilated = target_edt(mask) <= rr
        assert (eroded == erode_setdef(mask, radius)).all()
        assert (dilated == dilate_setdef(mask, radius)).all()
        padded = np.pad(mask, radius, constant_values=False)
        dual = ~(target_edt(~padded) <= rr)
        assert (eroded == dual[radius:-radius, radius:-radius]).all()  # duality
        if not eroded.any():
            with pytest.raises(EmptyResultError):
                extract_palm(dist, radius)
            empty += 1
            continue
        opened = extract_palm(dist, radius)
        assert (opened == opening_setdef(mask, radius)).all()
        assert not (opened & ~mask).any()  # anti-extensive
        assert (extract_palm(distance_of(opened), radius) == opened).all()  # idempotent
    print(
        "PASS criterion 5: the erosion and dilation thresholds match the set-definition "
        "oracle on 1000 random 24x24 masks (radii 1-3); the palm opening matches it "
        f"({empty} empty erosions raise EmptyResultError), idempotent, anti-extensive; duality exact"
    )


def test_criterion_6_calibration_properties():
    depths = [raw_to_cm(r) for r in range(0, 1101)]
    assert all(b > a for a, b in zip(depths, depths[1:]))
    for r in range(0, 1101):
        assert abs(cm_to_raw(depths[r]) - r) <= 1
    assert raw_to_cm(0) == pytest.approx(26.301012226906757, abs=0.05)
    assert raw_to_cm(800) == pytest.approx(107.3991899573107, abs=0.05)
    print(
        f"PASS criterion 6: strictly increasing on [0, 1100]; round-trip within 1; "
        f"raw 0 -> {depths[0]:.2f} cm, raw 800 -> {depths[800]:.2f} cm"
    )


def _two_hand_frames(n):
    frames = []
    for i in range(n):
        xa = 70 + 5 * i
        xb = 250 - 5 * i
        a = HandSpec(palm_center=(float(xa), 75.0), palm_radius=22, finger_count=2,
                     finger_length=26, finger_width=8, orientation_deg=260,
                     base_depth_cm=80, tip_slope=2)
        b = HandSpec(palm_center=(float(xb), 165.0), palm_radius=22, finger_count=3,
                     finger_length=26, finger_width=8, orientation_deg=100,
                     base_depth_cm=81, tip_slope=2)
        frame, _ = render_scene([a, b], FRAME_SIZE, 170.0)
        frames.append(frame)
    return frames


def test_criterion_7_two_hand_labeling_and_crossing():
    frames = _two_hand_frames(36)
    reports = list(run_pipeline(iter(frames), CONFIG))
    swaps = 0
    previous = None
    for report in reports:
        ids = [h.hand_id for h in report.hands]
        assert sorted(i.value for i in ids) == ["Left", "Right"]
        by_id = {h.hand_id: h for h in report.hands}
        assert by_id[HandId.RIGHT].overlay_color == (255, 255, 255)
        assert by_id[HandId.LEFT].overlay_color == (255, 105, 180)
        marker = len(by_id[HandId.RIGHT].fingertips)  # 3-finger hand is born Right
        if previous is not None and marker != previous:
            swaps += 1
        previous = marker
    assert swaps == 0
    print(
        f"PASS criterion 7: {len(reports)} two-hand frames each labeled exactly "
        f"Right+Left; crossing kept identities with {swaps} swaps"
    )


def _validate_report_schema(doc):
    assert set(doc) == {"frame_index", "hands"}
    assert isinstance(doc["frame_index"], int)
    ids = [h["id"] for h in doc["hands"]]
    assert len(doc["hands"]) <= 2
    if len(ids) == 1:
        assert ids == ["Single"]
    if len(ids) == 2:
        assert ids == ["Right", "Left"]
    for hand in doc["hands"]:
        assert set(hand) == {"id", "overlay_color", "palm_center", "palm_radius_px",
                             "fingertips"}
        assert hand["id"] in ("Single", "Right", "Left")
        assert len(hand["overlay_color"]) == 3
        assert all(isinstance(c, int) and 0 <= c <= 255 for c in hand["overlay_color"])
        assert set(hand["palm_center"]) == {"x", "y"}
        assert all(isinstance(v, int) for v in hand["palm_center"].values())
        assert isinstance(hand["palm_radius_px"], float)
        tips = hand["fingertips"]
        for tip in tips:
            assert set(tip) == {"x", "y", "depth_cm"}
            assert isinstance(tip["x"], int) and isinstance(tip["y"], int)
            assert isinstance(tip["depth_cm"], float)
        assert tips == sorted(tips, key=lambda t: (t["x"], t["y"]))


def test_criterion_8_determinism_and_io():
    scenes = build_corpus(8, seed=909, frame_size=FRAME_SIZE, dropout_rate=0.02)
    frames = [scene.render()[0] for scene in scenes] + _two_hand_frames(4)

    def stream():
        return b"\n".join(write_report(r) for r in run_pipeline(iter(frames), CONFIG))

    base = stream()
    assert stream() == base

    rng = np.random.default_rng(2718)
    for _ in range(25):
        shape = (int(rng.integers(1, 24)), int(rng.integers(1, 24)))
        frame = DepthFrame(rng.integers(0, 2048, size=shape, dtype=np.uint16))
        decoded, clamped = read_pgm(write_pgm(frame))
        assert decoded == frame and clamped == 0
        assert read_raw(write_raw(frame), frame.width, frame.height) == frame

    for line in base.split(b"\n"):
        _validate_report_schema(json.loads(line))
    print(
        "PASS criterion 8: byte-identical reports across repeat runs; PGM and raw "
        "round-trips lossless; reports validate against schema"
    )
