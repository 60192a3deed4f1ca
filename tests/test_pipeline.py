import gc
import hashlib
import json
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handdepth import fingertips, morphology, pipeline, segmentation
from handdepth.benchmark import PALM_TOLERANCE_FRACTION, run_benchmark
from handdepth.calibration import CalibrationParams, RAW_SENTINEL, cm_to_raw, raw_to_cm
from handdepth.errors import ConfigError
from handdepth.frame_io import DepthFrame, write_overlay, write_report
from handdepth.pipeline import (
    PipelineConfig,
    config_from_dict,
    extract_hands,
    run_pipeline,
)
from handdepth.segmentation import connected_components
from handdepth.synthetic import HandSpec, build_corpus, random_hand_spec, render_scene
from handdepth.tracking import HandId, PINK, WHITE

from reference import (
    blob_key,
    deterministic,
    expected_path,
    any_float,
    extract_hands_oracle,
    hand_blob_whole_frame,
    json_junk,
    segment_hand_path,
)


CFG = PipelineConfig()


def test_all_sentinel_frame_reports_no_hands():
    frame = DepthFrame(np.full((60, 80), RAW_SENTINEL, dtype=np.uint16))
    (report,) = run_pipeline(iter([frame]), CFG)
    assert report.frame_index == 0
    assert report.hands == []


def test_flat_background_only_still_finds_the_background_blob():
    # a flat wall is the nearest object; it is reported as a (handless) blob
    frame = DepthFrame(np.full((60, 80), 900, dtype=np.uint16))
    (report,) = run_pipeline(iter([frame]), CFG)
    assert len(report.hands) <= 1


def test_open_hand_five_tips_near_truth():
    spec = HandSpec(
        palm_center=(160.0, 120.0),
        palm_radius=28,
        finger_count=5,
        finger_length=36,
        finger_width=10,
        orientation_deg=15,
        base_depth_cm=80,
        tip_slope=2,
    )
    frame, (truth,) = render_scene([spec], (320, 240), 170)
    (report,) = run_pipeline(iter([frame]), CFG)
    (hand,) = report.hands
    assert hand.hand_id is HandId.SINGLE
    assert len(hand.fingertips) == 5
    assert sorted((t.x, t.y) for t in hand.fingertips) == sorted(truth.fingertips)
    cx, cy = truth.palm_center
    assert math.hypot(hand.palm.x - cx, hand.palm.y - cy) <= 0.25 * truth.palm_radius


def test_two_hand_scene_colors():
    a = HandSpec(palm_center=(80.0, 120.0), palm_radius=24, finger_count=3,
                 finger_length=30, finger_width=9, orientation_deg=250,
                 base_depth_cm=80, tip_slope=2)
    b = HandSpec(palm_center=(240.0, 120.0), palm_radius=24, finger_count=2,
                 finger_length=30, finger_width=9, orientation_deg=290,
                 base_depth_cm=82, tip_slope=2)
    frame, _ = render_scene([a, b], (320, 240), 180)
    (report,) = run_pipeline(iter([frame]), CFG)
    by_id = {h.hand_id: h for h in report.hands}
    assert set(by_id) == {HandId.RIGHT, HandId.LEFT}
    assert by_id[HandId.RIGHT].overlay_color == WHITE
    assert by_id[HandId.LEFT].overlay_color == PINK
    assert by_id[HandId.RIGHT].palm.x > by_id[HandId.LEFT].palm.x
    assert len(by_id[HandId.RIGHT].fingertips) == 2
    assert len(by_id[HandId.LEFT].fingertips) == 3


def test_degenerate_blob_degrades_to_empty_report(caplog):
    # a one-pixel-thick bar is segmentable but has no palm: warn and move on
    samples = np.full((40, 60), RAW_SENTINEL, dtype=np.uint16)
    samples[20, 5:55] = 700
    frame = DepthFrame(samples)
    config = PipelineConfig(min_area=20)
    with caplog.at_level("WARNING"):
        (report,) = run_pipeline(iter([frame]), config)
    assert report.hands == []
    assert any("dropped" in message for message in caplog.messages)


def corpus_frames(n=6, with_two=True):
    frames = []
    for scene in build_corpus(n, seed=3021):
        frame, _ = scene.render()
        frames.append(frame)
    if with_two:
        a = HandSpec(palm_center=(80.0, 120.0), palm_radius=22, finger_count=2,
                     finger_length=26, finger_width=8, orientation_deg=200,
                     base_depth_cm=75, tip_slope=2)
        b = HandSpec(palm_center=(230.0, 120.0), palm_radius=22, finger_count=4,
                     finger_length=26, finger_width=8, orientation_deg=0,
                     base_depth_cm=78, tip_slope=2)
        frame, _ = render_scene([a, b], (320, 240), 170)
        frames.append(frame)
    return frames


def report_bytes(frames, config):
    return b"\n".join(write_report(r) for r in run_pipeline(iter(frames), config))


def test_pipeline_deterministic_across_runs():
    frames = corpus_frames()
    assert report_bytes(frames, CFG) == report_bytes(frames, CFG)


def test_stream_is_read_lazily_in_bounded_memory():
    spec = HandSpec(palm_center=(160.0, 120.0), palm_radius=8, finger_count=1,
                    finger_length=12, finger_width=5, orientation_deg=0,
                    base_depth_cm=80, tip_slope=2)
    frame, _ = render_scene([spec], (320, 240), 170)
    drawn = 0

    def stream(n):
        nonlocal drawn
        for _ in range(n):
            drawn += 1
            yield DepthFrame(frame.samples.copy())  # a frame held on to shows up as memory

    # Numpy and interpreter caches keep a few tens of KB more of traced memory
    # as they warm up; a QVGA frame keeps that under 5 % of a window's peak.
    # gc.collect() empties the free lists so both windows start alike.
    peaks = []
    tracemalloc.start()
    try:
        for index, report in enumerate(run_pipeline(stream(500), CFG)):
            assert drawn == index + 1
            assert report.frame_index == index and len(report.hands) == 1
            if index in (0, 450):
                gc.collect()
                tracemalloc.reset_peak()
            elif index in (49, 499):
                peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    first, last = peaks
    assert last <= 1.1 * first


def test_config_round_trip():
    doc = {  # every key a config file may hold, none at its default
        "calibration": {"h": 3.6e-4, "k": 12.5, "l": 1.2, "o": 3.5, "raw_valid_max": 1000},
        "band_cm": 12.0,
        "slab_cm": 18.0,
        "min_area": 64,
        "max_hands": 1,
        "max_misses": 3,
    }
    assert config_from_dict(doc) == PipelineConfig(
        calibration=CalibrationParams(h_rad=3.6e-4, k_cm=12.5, l_rad=1.2, o_cm=3.5,
                                      raw_valid_max=1000),
        band_cm=12.0,
        slab_cm=18.0,
        min_area=64,
        max_hands=1,
        max_misses=3,
    )
    defaults = json.loads(
        '{"calibration": {"h": 0.00035, "k": 12.36, "l": 1.18, "o": 3.7, "raw_valid_max": 1100}, '
        '"band_cm": 15.0, "slab_cm": 20.0, "min_area": 100, "max_hands": 2, "max_misses": 5}'
    )
    assert config_from_dict(defaults) == config_from_dict({}) == PipelineConfig()


def test_config_round_trip_preserves_behavior():
    frames = corpus_frames(3, with_two=False)
    config = PipelineConfig(calibration=CalibrationParams(k_cm=13.0), band_cm=17.0)
    loaded = config_from_dict({"calibration": {"k": 13.0}, "band_cm": 17.0})
    assert report_bytes(frames, loaded) == report_bytes(frames, config) != report_bytes(frames, CFG)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"band_cm": 10.0, "colour": "mauve"})
    with pytest.raises(ConfigError):
        config_from_dict({"calibration": {"h": 3.5e-4, "zoom": 2}})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        PipelineConfig(band_cm=0)
    with pytest.raises(ConfigError):
        PipelineConfig(max_hands=3)
    with pytest.raises(ConfigError):
        config_from_dict({"calibration": {"h": -1}})
    with pytest.raises(ConfigError, match="calibration"):
        PipelineConfig(calibration=None)
    nan, inf = float("nan"), float("inf")
    for key in ("band_cm", "slab_cm"):
        for value in (nan, inf, -inf, "0.5", None, True, [0.5]):
            with pytest.raises(ConfigError, match=key):
                config_from_dict({key: value})
    for key in ("max_hands", "min_area", "max_misses"):
        for value in (1.0, 2.5, nan, inf, "2", True, [1]):
            with pytest.raises(ConfigError, match=key):
                config_from_dict({key: value})
    numpy_values = PipelineConfig(band_cm=12, slab_cm=np.float64(18.5), max_hands=np.int64(1))
    assert numpy_values.max_hands == 1


calibration_dicts = st.fixed_dictionaries({}, optional={
    "h": st.one_of(st.floats(0, 1e-300), st.floats(1e-6, 1e-3)),  # down to subnormals
    "k": st.floats(0.5, 30),
    "l": st.floats(-1.6, 1.6),
    "o": st.floats(-10, 10),
    "raw_valid_max": st.integers(-5, 2100),
})
plausible_configs = st.fixed_dictionaries({"calibration": calibration_dicts}, optional={
    "band_cm": st.floats(0.5, 40),
    "slab_cm": st.floats(0.5, 40),
    "min_area": st.integers(-2, 300),
    "max_hands": st.integers(0, 3),
    "max_misses": st.integers(0, 6),
})
CALIBRATION_KEYS = ("h", "k", "l", "o", "raw_valid_max", "gain")
CONFIG_KEYS = ("calibration", "band_cm", "slab_cm", "min_area", "radius_factor",
               "min_finger_area", "max_hands", "max_misses", "workers")


@st.composite
def config_dicts(draw):
    """A config of plausible values with up to two entries set to junk (unknown keys too)."""
    doc = draw(plausible_configs)
    calibration = doc["calibration"]
    for key in draw(st.lists(st.sampled_from(CALIBRATION_KEYS + CONFIG_KEYS), max_size=2)):
        (calibration if key in CALIBRATION_KEYS else doc)[key] = draw(st.one_of(any_float, json_junk))
    return doc


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(config_dicts())
def test_config_from_dict_raises_only_config_error(data):
    try:
        config = config_from_dict(data)
    except ConfigError:
        return
    # an accepted config runs; a calibration may make detection find nothing
    frame = DepthFrame(np.full((24, 32), 1400, dtype=np.uint16))
    frame.samples[6:18, 8:20] = 700
    list(run_pipeline([frame], config))


def test_max_hands_one_reports_single():
    a = HandSpec(palm_center=(80.0, 120.0), palm_radius=22, finger_count=2,
                 finger_length=26, finger_width=8, orientation_deg=200,
                 base_depth_cm=75, tip_slope=2)
    b = HandSpec(palm_center=(230.0, 120.0), palm_radius=22, finger_count=4,
                 finger_length=26, finger_width=8, orientation_deg=0,
                 base_depth_cm=78, tip_slope=2)
    frame, _ = render_scene([a, b], (320, 240), 170)
    (report,) = run_pipeline(iter([frame]), PipelineConfig(max_hands=1))
    assert len(report.hands) == 1
    assert report.hands[0].hand_id is HandId.SINGLE


def test_extract_hands_positions_are_frame_coordinates():
    spec = HandSpec(palm_center=(250.0, 60.0), palm_radius=20, finger_count=1,
                    finger_length=24, finger_width=8, orientation_deg=180,
                    base_depth_cm=90, tip_slope=2)
    frame, (truth,) = render_scene([spec], (320, 240), 170)
    ((palm, tips, blob),) = extract_hands(frame, CFG)
    assert truth.support[palm.y, palm.x]
    assert all(truth.support[t.y, t.x] for t in tips)
    assert blob.contains(palm.x, palm.y)


def edge_cut_frames():
    """Corpus frames cut through the palm center so the hand touches the frame edge."""
    for scene in build_corpus(12, seed=5150):
        frame, (truth,) = scene.render()
        cx, cy = truth.palm_center
        background = cm_to_raw(scene.background_depth_cm)
        for cut in (np.s_[:, cx:], np.s_[:cy + 1, :], np.s_[:cy + 1, cx:]):
            yield frame.samples[cut], background


def test_hands_cut_by_the_frame_edge_match_the_padded_frame():
    found = 0
    for samples, background in edge_cut_frames():
        cut = extract_hands(DepthFrame(samples), CFG)
        found += len(cut)
        # the left cut starts at min_x 0, the bottom cut ends at max_y h - 1
        assert all(b.bbox[0] == 0 or b.bbox[3] == samples.shape[0] - 1 for _, _, b in cut)
        for k in (1, 3):
            padded = extract_hands(DepthFrame(np.pad(samples, k, constant_values=background)), CFG)
            assert [(palm, tips) for palm, tips, _ in padded] == [
                (replace(palm, x=palm.x + k, y=palm.y + k),
                 [replace(t, x=t.x + k, y=t.y + k) for t in tips])
                for palm, tips, _ in cut
            ]
    assert found == 36  # every cut keeps its hand


def two_hand_frame(seed, far_cm, dropout):
    """Two random hands left and right at 320x240: one at 60-110 cm, one ``far_cm`` behind it."""
    rng = np.random.default_rng(seed)
    specs = []
    near_cm = rng.uniform(60, 110)
    for center_x, depth in ((rng.uniform(55, 105), near_cm),
                            (rng.uniform(215, 265), near_cm + far_cm)):
        radius = rng.uniform(14, 20)
        count = int(rng.integers(0, 6))
        specs.append(HandSpec(
            palm_center=(center_x, rng.uniform(55, 185)), palm_radius=radius, finger_count=count,
            finger_length=tuple(radius * rng.uniform(1.1, 1.4, count)),
            finger_width=tuple(radius * rng.uniform(0.3, 0.42, count)),
            orientation_deg=rng.uniform(0, 360), base_depth_cm=depth, tip_slope=2))
    frame, _ = render_scene(specs, (320, 240), 200, noise_seed=seed, dropout_rate=dropout)
    return frame


def split_into_specks(frame, config):
    """Whether the slab from the frame's nearest pixel holds only components below min_area."""
    params = config.calibration
    near_cm = raw_to_cm(int(frame.samples.min()), params)
    slab = params.cm_table[frame.samples] <= near_cm + config.slab_cm
    areas = [b.area for b in connected_components(slab)]
    return bool(areas) and max(areas) < config.min_area


# Two-hand frames whose near hand's fingers reach more than 12 cm in front of its palm
SPECK_CASES = [(183, 6.0, 0.02), (49997, 9.0, 0.0)]


@pytest.mark.parametrize("case", SPECK_CASES)
def test_a_12_cm_slab_splits_the_near_hand_into_specks(case):
    frame = two_hand_frame(*case)
    assert len(extract_hands(frame, CFG)) == 2
    assert split_into_specks(frame, PipelineConfig(slab_cm=12.0))


@pytest.mark.xfail(strict=True, reason="find_hand_seeds measures the slab from the frame's nearest "
                   "pixel, so fingers more than slab_cm in front of the palm leave only specks")
@pytest.mark.parametrize("case", SPECK_CASES)
def test_fingers_reaching_past_the_slab_split_the_hand_into_specks(case):
    assert len(extract_hands(two_hand_frame(*case), PipelineConfig(slab_cm=12.0))) == 2


@pytest.mark.xfail(strict=True, reason="the slab is measured from the near hand's fingertip, so it "
                   "holds only the far hand's fingers and one comes back as its palm")
@pytest.mark.parametrize("case", SPECK_CASES)
def test_the_far_hand_of_a_speck_case_keeps_its_palm(case):
    far = [palm for palm, _, _ in extract_hands(two_hand_frame(*case), CFG) if palm.x >= 160]
    assert [palm.inradius_px >= 10 for palm in far] == [True]


def band_cliff_hand(base_depth_cm):
    """A five-finger hand at HandSpec's default tip slope: it spans 13.9 cm at 80 cm, 15.5 at 85."""
    spec = HandSpec(palm_center=(160.0, 120.0), palm_radius=30, finger_count=5,
                    finger_length=36, finger_width=10, base_depth_cm=base_depth_cm)
    return render_scene([spec], (320, 240), 200)


@pytest.mark.parametrize("base_depth_cm", [
    80,
    pytest.param(85, marks=pytest.mark.xfail(
        strict=True, reason="the band is the seed's depth +/- band_cm and the seed is a fingertip, "
        "so a hand spanning more than band_cm comes back as a finger")),
])
def test_the_palm_is_found_on_both_sides_of_the_band_cliff(base_depth_cm):
    frame, (truth,) = band_cliff_hand(base_depth_cm)
    ((palm, _, _),) = extract_hands(frame, CFG)
    cx, cy = truth.palm_center
    assert math.hypot(palm.x - cx, palm.y - cy) <= PALM_TOLERANCE_FRACTION * truth.palm_radius


two_hand_cases = st.tuples(
    st.builds(two_hand_frame, st.integers(0, 2**32 - 1),
              st.one_of(st.floats(-4, 4), st.floats(6, 15)), st.sampled_from([0.0, 0.02])),
    st.sampled_from([CFG, PipelineConfig(slab_cm=12.0), PipelineConfig(band_cm=8.0, slab_cm=30.0)]),
)


@deterministic
@given(two_hand_cases)
def test_slab_window_matches_whole_frame_band_on_two_hand_frames(case):
    frame, config = case
    paths = []

    def traced_segment_hand(frame, seed, band_cm, params):
        path, blob = segment_hand_path(frame, seed, band_cm, params)
        assert expected_path(frame, seed, band_cm, config.slab_cm, params) in (path, None)
        paths.append(path)
        return blob

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "segment_hand", traced_segment_hand)
        got = extract_hands(frame, config)
        mp.setattr(pipeline, "segment_hand", hand_blob_whole_frame)
        want = extract_hands(frame, config)
    assert paths  # every frame holds a seed
    assert [(palm, tips, blob_key(blob)) for palm, tips, blob in got] == [
        (palm, tips, blob_key(blob)) for palm, tips, blob in want
    ]


def assert_matches_oracle_detector(frame, config):
    got = [(palm, tips, blob.bbox, blob.area) for palm, tips, blob in extract_hands(frame, config)]
    assert got == extract_hands_oracle(frame, config)
    return len(got)


def vga_two_hand_frames(n, seed):
    """Two random hands at 640x480, one in the upper and one in the lower half, with dropouts."""
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n):
        depth = rng.uniform(60, 120)
        specs = [random_hand_spec(rng, (640, 480), depth + rng.uniform(0, 4), box)
                 for box in ((0, 0, 639, 150), (0, 330, 639, 479))]
        frames.append(render_scene(specs, (640, 480), depth + 70, noise_seed=int(rng.integers(2**32)),
                                   dropout_rate=0.02)[0])
    return frames


def test_extract_hands_matches_the_oracle_detector_on_corpus_and_two_hand_frames():
    frames = [scene.render()[0] for scene in build_corpus(20, seed=1601)] + vga_two_hand_frames(6, 1602)
    assert sum(assert_matches_oracle_detector(frame, CFG) for frame in frames) >= 30


@pytest.mark.parametrize("slab_cm", [20.0, 12.0])
@pytest.mark.parametrize("case", SPECK_CASES)
def test_extract_hands_matches_the_oracle_detector_on_speck_cases(case, slab_cm):
    assert_matches_oracle_detector(two_hand_frame(*case), PipelineConfig(slab_cm=slab_cm))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.builds(two_hand_frame, st.integers(0, 2**32 - 1), st.floats(-4, 15),
              st.sampled_from([0.0, 0.02])),
    st.builds(PipelineConfig, band_cm=st.floats(2, 30), slab_cm=st.floats(4, 40),
              min_area=st.integers(1, 600), max_hands=st.integers(1, 2)),
)
def test_extract_hands_matches_the_oracle_detector_on_drawn_scenes(frame, config):
    assert_matches_oracle_detector(frame, config)


def test_extract_hands_labels_the_slab_and_each_finger_split_only(monkeypatch):
    # No band labelling: every seed's slab blob is its band blob here.  The
    # hole fill links the gaps in the blob's own runs: no _runs of its own.
    # The opening finds its core's runs, and the finger split its remnant's.
    calls, runs, link = [], segmentation._runs, segmentation._link

    def recording_runs(mask):
        calls.append(("runs", np.shape(mask)))
        return runs(mask)

    def recording_link(run_y, start, end, h, connectivity):
        calls.append(("link", h, connectivity))
        return link(run_y, start, end, h, connectivity)

    for module in (fingertips, segmentation):
        monkeypatch.setattr(module, "_runs", recording_runs)
        monkeypatch.setattr(module, "_link", recording_link)
    monkeypatch.setattr(morphology, "_runs", recording_runs)
    for frame in corpus_frames(4):
        calls.clear()
        hands = extract_hands(frame, CFG)
        assert hands
        # one slab labelling per frame, inside the bbox of the codes up to
        # the slab's last; per hand the hole fill links the padded crop's
        # background 4-connected, the opening finds its core's runs, then
        # one finger split
        near_cm = raw_to_cm(int(frame.samples.min()), CFG.calibration)
        hi = (CFG.calibration.cm_table <= near_cm + CFG.slab_cm).nonzero()[0][-1]
        ys, xs = (frame.samples <= hi).nonzero()
        window = (ys.max() - ys.min() + 1, xs.max() - xs.min() + 1)
        assert window[0] * window[1] < frame.samples.size
        assert calls == [("runs", window), ("link", window[0], 8)] + [
            call
            for _, _, blob in hands
            for call in (("link", blob.shape[0] + 2, 4), ("runs", blob.shape),
                         ("runs", blob.shape), ("link", blob.shape[0], 8))
        ]


def test_extract_hands_calls_no_python_level_numpy_wrapper():
    # np.flatnonzero, np.diff and the functions of numpy's fromnumeric module
    # (np.cumsum, np.repeat, np.argmax, ...) are Python code in front of an
    # ndarray method or a ufunc.  On a hand's few hundred runs their dispatch
    # costs more than the work, so the frame path calls the methods; this
    # pins that with no timing.  band_cm=5 takes the whole-frame band labelling.
    fromnumeric = np.cumsum.__wrapped__.__code__.co_filename
    banned = {np.flatnonzero.__wrapped__.__code__, np.diff.__wrapped__.__code__}
    frames, configs = corpus_frames(3), (CFG, replace(CFG, band_cm=5.0))
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and (code in banned or code.co_filename == fromnumeric):
            seen.add(code.co_name)

    def run_all():
        return [extract_hands(frame, config) for frame in frames for config in configs]

    run_all()  # first calls may import or cache
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        hands = run_all()
    finally:
        sys.setprofile(previous)
    assert all(hands[0::2]) and seen == set()


def crossing_stream(n=24):
    """Two hands drifting toward each other over ``n`` QVGA frames, with gaps.

    Every seventh frame drops the left hand and frame 10 holds no
    measurement at all, so the tracker sees births, misses and returns.
    """
    frames = []
    for i in range(n):
        t = i / (n - 1)
        a = HandSpec(palm_center=(60 + 50 * t, 100 + 30 * t), palm_radius=22, finger_count=5,
                     finger_length=28, finger_width=8, orientation_deg=190 + 25 * t,
                     base_depth_cm=80 + 6 * t, tip_slope=2)
        b = HandSpec(palm_center=(260 - 50 * t, 140 - 30 * t), palm_radius=20, finger_count=4,
                     finger_length=26, finger_width=8, orientation_deg=-20 + 30 * t,
                     base_depth_cm=86 - 6 * t, tip_slope=2)
        if i == 10:
            frames.append(DepthFrame(np.full((240, 320), RAW_SENTINEL, dtype=np.uint16)))
            continue
        specs = [b] if i % 7 == 3 else [a, b]
        frames.append(render_scene(specs, (320, 240), 190, noise_seed=i, dropout_rate=0.02)[0])
    return frames


def output_digests(frames):
    """SHA-256 of the report lines and of the overlays of one run over ``frames``."""
    reports, overlays = hashlib.sha256(), hashlib.sha256()
    for frame, report in zip(frames, run_pipeline(iter(frames), CFG)):
        reports.update(write_report(report) + b"\n")
        overlays.update(write_overlay(frame, report.hands))
    return reports.hexdigest(), overlays.hexdigest()


def test_reports_overlays_and_benchmark_are_pinned():
    # Any change to what the detector reports changes one of these digests.
    corpus = [scene.render()[0] for scene in build_corpus(60, seed=9)]
    assert output_digests(corpus) == (
        "6aeba7977383f075ca5c47d757c98bf8d03faab6cb007fd058a3b69188225b7b",
        "77e8ce6eb675357ce9c84b8e9f20c8be418dc27d4c17c18563162b45fd42b5e1",
    )
    assert output_digests(crossing_stream()) == (
        "f4087967e62de47a61ebbf8997d9d8d72201d652173ac5ee53226ff879bb781a",
        "421522466589bf6a8413a5d8060c7300e202fd7321bb4badf8c2ed8367aa4251",
    )
    bench = json.dumps(run_benchmark(build_corpus(50, seed=3), PipelineConfig()), sort_keys=True)
    assert hashlib.sha256(bench.encode()).hexdigest() == (
        "328173cbf76000eb61a43f394a15f480fda2c3fa3f0bcaf152e0c7bde8de1b70")
