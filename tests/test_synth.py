import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handdepth.calibration import RAW_SENTINEL, cm_to_raw
from handdepth.errors import ConfigError, GeometryError, HandDepthError
from handdepth.synthetic import (
    HandSpec,
    Scene,
    build_corpus,
    hand_spec_from_dict,
    random_hand_spec,
    render_hand,
    render_scene,
    scene_from_dict,
    scene_to_dict,
)

from reference import any_float, json_junk


def basic_spec(**overrides) -> HandSpec:
    kwargs = dict(
        palm_center=(100.0, 100.0),
        palm_radius=28,
        finger_count=5,
        finger_length=36,
        finger_width=10,
        orientation_deg=0,
        finger_spread_deg=30,
        base_depth_cm=80,
        tip_slope=2,
    )
    kwargs.update(overrides)
    return HandSpec(**kwargs)


def analytic_finger_membership(spec, index, x, y):
    """Rect-plus-cap membership test written from the geometric definition."""
    angle = spec.finger_angles_deg()[index]
    ux, uy = math.cos(math.radians(angle)), math.sin(math.radians(angle))
    cx, cy = spec.palm_center
    length = spec.finger_length[index]
    half = spec.finger_width[index] / 2
    dx, dy = x - cx, y - cy
    s = dx * ux + dy * uy - spec.palm_radius
    t = -dx * uy + dy * ux
    tipx = cx + (spec.palm_radius + length) * ux
    tipy = cy + (spec.palm_radius + length) * uy
    in_rect = 0 <= s <= length and abs(t) <= half
    in_cap = (x - tipx) ** 2 + (y - tipy) ** 2 <= half * half
    return in_rect or in_cap


def test_fingerless_hand_is_a_disk():
    spec = basic_spec(finger_count=0, finger_length=(), finger_width=())
    frame, truth = render_hand(spec, (200, 200), 170)
    ys, xs = np.ogrid[:200, :200]
    disk = (xs - 100) ** 2 + (ys - 100) ** 2 <= 28 * 28
    assert (truth.support == disk).all()
    assert truth.fingertips == []
    assert (frame.samples[disk] == cm_to_raw(80)).all()
    assert (frame.samples[~disk] == cm_to_raw(170)).all()


def test_five_finger_hand_axis_tip_is_analytic():
    spec = basic_spec()
    _, truth = render_hand(spec, (260, 260), 170)
    assert len(truth.fingertips) == 5
    # middle finger points along +x: apex pixel is exactly center + R + L + w/2
    assert truth.fingertips[2] == (100 + 28 + 36 + 5, 100)
    for i, (tx, ty) in enumerate(truth.fingertips):
        assert truth.support[ty, tx]
        assert analytic_finger_membership(spec, i, tx, ty)
        # lattice rounding on the round cap can pull the farthest pixel up
        # to sqrt(w * delta) from the continuous apex; 4 px covers w=10
        angle = spec.finger_angles_deg()[i]
        ux, uy = math.cos(math.radians(angle)), math.sin(math.radians(angle))
        reach = spec.palm_radius + spec.finger_length[i] + spec.finger_width[i] / 2
        apex = (100 + reach * ux, 100 + reach * uy)
        assert math.hypot(tx - apex[0], ty - apex[1]) <= 4.0


def analytic_support(spec, frame_size):
    """Union of palm disk and finger shapes via the center-in-shape rule."""
    width, height = frame_size
    X, Y = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    cx, cy = spec.palm_center
    dx, dy = X - cx, Y - cy
    out = dx * dx + dy * dy <= spec.palm_radius**2
    for i, angle in enumerate(spec.finger_angles_deg()):
        ux, uy = math.cos(math.radians(angle)), math.sin(math.radians(angle))
        length, half = spec.finger_length[i], spec.finger_width[i] / 2
        s = dx * ux + dy * uy - spec.palm_radius
        t = -dx * uy + dy * ux
        tipx = cx + (spec.palm_radius + length) * ux
        tipy = cy + (spec.palm_radius + length) * uy
        out |= (s >= 0) & (s <= length) & (np.abs(t) <= half)
        out |= (X - tipx) ** 2 + (Y - tipy) ** 2 <= half * half
    return out


def test_support_equals_analytic_union():
    rng = np.random.default_rng(1001)
    for _ in range(5):
        spec = random_hand_spec(rng, (320, 240), float(rng.uniform(60, 150)))
        _, truth = render_hand(spec, (320, 240), spec.base_depth_cm + 60)
        assert (truth.support == analytic_support(spec, (320, 240))).all()


def test_tips_are_strict_raw_minima_within_their_finger():
    rng = np.random.default_rng(99)
    for _ in range(10):
        spec = random_hand_spec(rng, (320, 240), float(rng.uniform(60, 150)))
        frame, truth = render_hand(spec, (320, 240), spec.base_depth_cm + 60)
        for i, (tx, ty) in enumerate(truth.fingertips):
            tip_raw = int(frame.samples[ty, tx])
            # only pixels at least as shallow as the tip could violate strictness
            ys, xs = np.nonzero(truth.support & (frame.samples <= tip_raw))
            for x, y in zip(xs, ys):
                if (int(x), int(y)) == (tx, ty):
                    continue
                assert not analytic_finger_membership(spec, i, int(x), int(y))


def test_quarter_turn_orientation_matches_rotated_raster():
    # square frame with the palm on the rotation fixed point
    spec0 = basic_spec(palm_center=(100.0, 100.0), orientation_deg=0)
    spec90 = basic_spec(palm_center=(100.0, 100.0), orientation_deg=90)
    frame0, truth0 = render_hand(spec0, (201, 201), 170)
    frame90, truth90 = render_hand(spec90, (201, 201), 170)
    # clockwise raster rotation turns a +x fan into a +y fan
    assert (truth90.support == np.rot90(truth0.support, -1)).all()
    assert (frame90.samples == np.rot90(frame0.samples, -1)).all()


def test_render_deterministic():
    scene = Scene(hands=(basic_spec(),), frame_size=(220, 220),
                  background_depth_cm=170, dropout_rate=0.05, noise_seed=1234)
    a, _ = scene.render()
    b, _ = scene.render()
    assert a == b


def test_dropout_count_and_location():
    spec = basic_spec()
    clean, (truth,) = render_scene([spec], (220, 220), 170, noise_seed=7, dropout_rate=0.0)
    noisy, _ = render_scene([spec], (220, 220), 170, noise_seed=7, dropout_rate=0.05)
    changed = clean.samples != noisy.samples
    assert int(changed.sum()) == round(0.05 * truth.support.sum())
    assert bool(truth.support[changed].all())
    assert (noisy.samples[changed] == RAW_SENTINEL).all()


def test_scene_of_disjoint_hands_is_union():
    a = basic_spec(palm_center=(70.0, 100.0), finger_count=2, finger_length=30,
                   finger_width=9, orientation_deg=250)
    b = basic_spec(palm_center=(230.0, 100.0), finger_count=3, finger_length=30,
                   finger_width=9, orientation_deg=290)
    frame, truths = render_scene([a, b], (300, 200), 170)
    fa, ta = render_hand(a, (300, 200), 170)
    fb, tb = render_hand(b, (300, 200), 170)
    assert (frame.samples == np.where(ta.support, fa.samples, fb.samples)).all()
    assert not (ta.support & tb.support).any()
    assert len(truths) == 2


def test_overlapping_hands_rejected():
    a = basic_spec(palm_center=(100.0, 100.0))
    b = basic_spec(palm_center=(110.0, 100.0))
    with pytest.raises(GeometryError):
        render_scene([a, b], (240, 200), 170)


def test_three_hands_rejected():
    a = basic_spec()
    with pytest.raises(ValueError):
        render_scene([a, a, a], (400, 400), 170)


def test_geometry_leaving_frame_rejected():
    with pytest.raises(GeometryError):
        render_hand(basic_spec(palm_center=(20.0, 100.0)), (200, 200), 170)
    with pytest.raises(GeometryError):
        render_hand(basic_spec(), (120, 120), 170)


def test_background_must_sit_behind():
    with pytest.raises(ValueError):
        render_hand(basic_spec(base_depth_cm=80), (200, 200), 100)


def test_hand_spec_validation():
    with pytest.raises(ValueError):
        basic_spec(finger_count=6)
    with pytest.raises(ValueError):
        basic_spec(finger_width=30)  # as wide as the palm
    with pytest.raises(ValueError):
        basic_spec(finger_length=(30, 30))  # wrong arity
    with pytest.raises(ValueError):
        basic_spec(tip_slope=-1)
    with pytest.raises(ValueError):
        basic_spec(finger_spread_deg=0)
    with pytest.raises(ValueError):
        basic_spec(finger_count=2, finger_length="45")  # not the lengths 4 and 5
    for name in ("palm_radius", "tip_slope", "finger_width"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                basic_spec(**{name: value})
    for count in ("2", 2.0, True):
        with pytest.raises(ValueError, match="finger_count"):
            basic_spec(finger_count=count, finger_length=30, finger_width=5)


def test_scene_json_round_trip():
    scene = Scene(hands=(basic_spec(),), frame_size=(320, 240),
                  background_depth_cm=180.5, dropout_rate=0.02, noise_seed=42)
    assert scene_from_dict(scene_to_dict(scene)) == scene
    # the bytes `synth --generate 3 --seed 7 --out-scenes` writes
    doc = json.dumps({"scenes": [scene_to_dict(s) for s in build_corpus(3, seed=7)]}, indent=2)
    digest = hashlib.sha256((doc + "\n").encode()).hexdigest()
    assert digest == "aae50f9724ca7144d29ead370c3d4d2bfbf1abb709071a196127caf21f908101"


def test_scene_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        scene_from_dict({"hands": [], "sensor": "imaginary"})
    hand = scene_to_dict(Scene(hands=(basic_spec(),)))["hands"][0]
    for bad in ([], {"hands": [], "frame_size": "x"}, {"hands": [], "frame_size": [320.0, 240]},
                {"hands": [], "frame_size": [1000000000, 1000000000]},
                {"hands": [], "frame_size": [2049, 2048]},
                {"hands": [[]]}, {"hands": [hand], "background_depth_cm": 80 + 49.5},
                {"hands": [hand], "background_depth_cm": float("nan")},
                {"hands": [hand], "background_depth_cm": float("inf")},
                {"hands": [{**hand, "base_depth_cm": float("nan")}]},
                {"hands": [{**hand, "finger_count": 2,
                            "finger_length": "45", "finger_width": "56"}]},
                {"hands": [{**hand, "finger_length": [36, 36, "36", 36, 36]}]},
                {"hands": [{**hand, "finger_count": 1, "finger_length": 30, "finger_width": "5"}]},
                {"hands": [{**hand, "palm_center": "ab"}]},
                {"hands": [{**hand, "palm_center": [100, 100, 5]}]},
                {"hands": [{**hand, "palm_center": [100, "100"]}]},
                {"hands": [{k: v for k, v in hand.items() if k != "palm_center"}]},
                {"hands": [], "noise_seed": -1}, {"hands": [], "noise_seed": 1.7},
                {"hands": [], "noise_seed": True}, {"hands": [], "noise_seed": "3"},
                {"hands": [{**hand, "finger_count": True, "finger_length": 30, "finger_width": 5}]},
                {"hands": [{**hand, "finger_count": 1.0, "finger_length": 30, "finger_width": 5}]},
                {"hands": [], "dropout_rate": "0.5"}, {"hands": [], "dropout_rate": False},
                {"hands": [], "background_depth_cm": " 250 "},
                {"hands": [], "background_depth_cm": True},
                *({"hands": [{**hand, name: value}]}  # JSON's NaN and Infinity literals parse
                  for name in ("palm_radius", "orientation_deg", "finger_spread_deg", "tip_slope",
                               "finger_length", "finger_width")
                  for value in (math.nan, math.inf, -math.inf)),
                {"hands": [{**hand, "palm_center": [math.nan, 100]}]},
                {"hands": [{**hand, "palm_center": [100, math.inf]}]}):
        with pytest.raises(ConfigError):
            scene_from_dict(bad)
    scene_from_dict({"hands": [hand], "background_depth_cm": 80 + 50}).render()  # exactly 50 cm renders
    with pytest.raises(ConfigError):
        hand_spec_from_dict({"palm_center": [1, 1], "palm_radius": 5,
                             "finger_count": 0, "color": "red"})


plausible_hands = st.fixed_dictionaries(
    {
        "palm_center": st.lists(st.floats(4, 40), min_size=2, max_size=2),
        "palm_radius": st.floats(1, 12),
        "finger_count": st.integers(0, 5),
        "finger_length": st.floats(1, 10),  # a list of the wrong length comes as junk
        "finger_width": st.floats(1, 4),
    },
    optional={
        "orientation_deg": st.floats(-720, 720),
        "finger_spread_deg": st.floats(-10, 100),
        "base_depth_cm": st.floats(10, 400),
        "tip_slope": st.floats(-1, 20),
    },
)
plausible_scenes = st.fixed_dictionaries(
    {
        "hands": st.lists(plausible_hands, min_size=1, max_size=3),
        "frame_size": st.lists(st.integers(8, 72), min_size=2, max_size=2),  # small frames only
    },
    optional={
        "background_depth_cm": st.floats(10, 600),
        "dropout_rate": st.floats(-0.5, 1.5),
        "noise_seed": st.integers(-5, 2**70),
    },
)
HAND_KEYS = ("palm_center", "palm_radius", "finger_count", "finger_length", "finger_width",
             "orientation_deg", "finger_spread_deg", "base_depth_cm", "tip_slope", "nails")
SCENE_KEYS = ("hands", "frame_size", "background_depth_cm", "dropout_rate", "noise_seed", "sensor")


@st.composite
def scene_dicts(draw):
    """A scene of plausible values with up to two entries set to junk (unknown keys too)."""
    doc = draw(plausible_scenes)
    for key in draw(st.lists(st.sampled_from(HAND_KEYS + SCENE_KEYS), max_size=2)):
        hands = doc.get("hands")
        where = hands[0] if key in HAND_KEYS and isinstance(hands, list) and hands else doc
        where[key] = draw(st.one_of(any_float, json_junk))
    return doc


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(scene_dicts())
def test_scene_from_dict_and_render_raise_only_package_errors(data):
    try:
        scene = scene_from_dict(data)
    except ConfigError:
        return
    try:
        scene.render()
    except HandDepthError:
        pass


def test_corpus_scenes_and_frames_are_pinned():
    # Digests of build_corpus(60, seed=9): its scene dicts and rendered samples.
    scenes, frames = hashlib.sha256(), hashlib.sha256()
    for scene in build_corpus(60, seed=9):
        scenes.update(json.dumps(scene_to_dict(scene), sort_keys=True).encode())
        frames.update(scene.render()[0].samples.tobytes())
    assert scenes.hexdigest() == "c2b07c54bd490a25ac626d6d3bed7578d057a83ab1ff3088a750f7f9a92e706b"
    assert frames.hexdigest() == "078ed00b6aa4d57991d0303f020267dbc40740efe7b853ee9e948df782e27dc6"


def test_corpus_is_seeded_and_in_range():
    corpus = build_corpus(20, seed=7)
    again = build_corpus(20, seed=7)
    assert corpus == again
    assert len(corpus) == 20
    for scene in corpus:
        (spec,) = scene.hands
        assert 1 <= spec.finger_count <= 5
        assert 60 <= spec.base_depth_cm <= 150
        assert 0 <= spec.orientation_deg < 360
        assert scene.dropout_rate == 0.02
        scene.render()  # must not raise
