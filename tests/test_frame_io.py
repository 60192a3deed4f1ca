import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handdepth.distance import PalmCenter
from handdepth.errors import FormatError
from handdepth.fingertips import Fingertip
from handdepth.frame_io import (
    DepthFrame,
    DetectionReport,
    read_pgm,
    read_raw,
    write_overlay,
    write_pgm,
    write_raw,
    write_report,
)
from handdepth.tracking import HandId, HandReport, PINK, WHITE

from reference import paint_marks_per_pixel


def frame_of(rows) -> DepthFrame:
    return DepthFrame(np.array(rows, dtype=np.uint16))


def random_frame(rng, shape=(7, 5)) -> DepthFrame:
    return DepthFrame(rng.integers(0, 2048, size=shape, dtype=np.uint16))


# --- PGM ---

def test_write_pgm_smallest_frame():
    assert write_pgm(frame_of([[0]])) == b"P5\n1 1\n2047\n\x00\x00"


def test_write_pgm_big_endian_payload():
    data = write_pgm(frame_of([[2047, 7]]))
    assert data.endswith(b"\x07\xff\x00\x07")
    assert data == b"P5\n2 1\n2047\n\x07\xff\x00\x07"


def test_read_pgm_basic():
    payload = b"".join(int(v).to_bytes(2, "big") for v in (0, 500, 1000, 2047))
    frame, clamped = read_pgm(b"P5\n2 2\n2047\n" + payload)
    assert frame.samples.tolist() == [[0, 500], [1000, 2047]]
    assert clamped == 0


def test_pgm_round_trips():
    rng = np.random.default_rng(11)
    for _ in range(50):
        frame = random_frame(rng)
        decoded, clamped = read_pgm(write_pgm(frame))
        assert decoded == frame and clamped == 0


def test_pgm_canonical_bytes_round_trip():
    rng = np.random.default_rng(12)
    data = write_pgm(random_frame(rng))
    frame, _ = read_pgm(data)
    assert write_pgm(frame) == data


def test_pgm_clamps_out_of_range():
    payload = (40_000).to_bytes(2, "big") + (12).to_bytes(2, "big")
    frame, clamped = read_pgm(b"P5\n2 1\n65535\n" + payload)
    assert frame.samples.tolist() == [[2047, 12]]
    assert clamped == 1


def pgm_65535(raw: np.ndarray) -> bytes:
    h, w = raw.shape
    return f"P5\n{w} {h}\n65535\n".encode() + raw.astype(">u2").tobytes()


def test_pgm_clamp_matches_minimum_reference():
    rng = np.random.default_rng(13)
    low = rng.integers(0, 2048, size=(6, 9), dtype=np.uint16)
    edges = low.copy()
    edges[0, 0], edges[-1, -1] = 2048, 65535  # clamped at the first and last sample
    mixed = np.where(rng.random(low.shape) < 0.5, low, rng.integers(2048, 65536, low.shape))
    every = rng.integers(2048, 65536, size=(6, 9)).astype(np.uint16)
    for raw in (low, edges, mixed.astype(np.uint16), every, np.full((1, 1), 2048, np.uint16)):
        frame, clamped = read_pgm(pgm_65535(raw))
        assert np.array_equal(frame.samples, np.minimum(raw, 2047))
        assert clamped == int((raw > 2047).sum())


def test_read_pgm_counts_clamps_only_for_an_out_of_range_file():
    # An in-range file is checked by DepthFrame's one max(); the clamp mask
    # and its count_nonzero come only once that check fails.  The clamped
    # files are the tripwire's positive control.
    seen = []

    def profile(frame, event, arg):
        name = frame.f_code.co_name if event == "call" else getattr(arg, "__name__", None)
        if event in ("call", "c_call") and name == "count_nonzero":
            seen.append(event)

    raw = np.random.default_rng(14).integers(0, 2048, size=(6, 9), dtype=np.uint16)
    first, last = raw.copy(), raw.copy()
    first[0, 0], last[-1, -1] = 2048, 65535
    every = np.full(raw.shape, 40_000, dtype=np.uint16)
    for samples, want in ((raw, 0), (first, 1), (last, 1), (every, raw.size)):
        data = pgm_65535(samples)
        seen.clear()
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            frame, clamped = read_pgm(data)
        finally:
            sys.setprofile(previous)
        assert clamped == want and np.array_equal(frame.samples, np.minimum(samples, 2047))
        assert bool(seen) == (want > 0)


def test_pgm_accepts_header_comments():
    frame, _ = read_pgm(b"P5 # recorder v2\n2 1 # size\n2047\n\x00\x01\x00\x02")
    assert frame.samples.tolist() == [[1, 2]]


def test_pgm_rejects_ascii_variant():
    with pytest.raises(FormatError):
        read_pgm(b"P2\n1 1\n2047\n0")


def test_pgm_rejects_8bit_maxval():
    with pytest.raises(FormatError):
        read_pgm(b"P5\n1 1\n255\n\x00")


def test_pgm_truncation_reports_offset():
    data = b"P5\n2 2\n2047\n\x00\x01"
    with pytest.raises(FormatError) as info:
        read_pgm(data)
    assert info.value.offset == len(data)


def test_pgm_bad_header_token():
    with pytest.raises(FormatError):
        read_pgm(b"P5\nwide 1\n2047\n\x00\x00")
    with pytest.raises(FormatError):
        read_pgm(b"P5\n1 1")


# --- raw .r16 ---

def test_read_raw_masks_to_11_bits():
    assert read_raw(b"\xff\x07", 1, 1).samples.tolist() == [[2047]]
    assert read_raw(b"\x00\xf8", 1, 1).samples.tolist() == [[0]]


def test_read_raw_length_check():
    with pytest.raises(FormatError):
        read_raw(b"\x00\x00\x00", 1, 1)


def test_raw_round_trips():
    rng = np.random.default_rng(13)
    for _ in range(20):
        frame = random_frame(rng)
        assert read_raw(write_raw(frame), frame.width, frame.height) == frame


# --- arbitrary bytes ---

@st.composite
def damaged_pgms(draw):
    """A valid 16-bit PGM, whole, cut short, or with one header byte changed."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    header = f"P5\n{width} {height}\n{draw(st.sampled_from([256, 2047, 65535]))}\n".encode()
    payload = draw(st.binary(min_size=2 * width * height, max_size=2 * width * height + 3))
    data = bytearray(header + payload)
    edit = draw(st.sampled_from(["none", "cut", "byte"]))
    if edit == "cut":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif edit == "byte":
        data[draw(st.integers(0, len(header) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


# PGM-like headers: width, height and maxval tokens that may be huge or junk.
header_tokens = st.one_of(st.integers(-3, 10**20).map(str), st.text("0123456789+-.x#\n ", max_size=6))
junk_header_pgms = st.builds(
    lambda w, h, maxval, sep, payload: f"P5 {w} {h} {maxval}".encode() + sep + payload,
    header_tokens, header_tokens, header_tokens,
    st.sampled_from([b"\n", b" ", b"", b"x"]),
    st.binary(max_size=80),
)
fuzz = settings(max_examples=400, derandomize=True, database=None, deadline=None)


@fuzz
@given(st.one_of(st.binary(max_size=64), damaged_pgms(), junk_header_pgms))
def test_read_pgm_raises_only_format_error(data):
    try:
        frame, clamped = read_pgm(data)
    except FormatError:
        return
    assert 0 <= clamped <= frame.samples.size and int(frame.samples.max()) <= 2047


@fuzz
@given(st.binary(max_size=200), st.integers(1, 12), st.one_of(st.integers(1, 12), st.integers(1, 10**12)))
def test_read_raw_raises_only_format_error(data, width, height):
    try:
        frame = read_raw(data, width, height)
    except FormatError:
        return
    assert frame.samples.shape == (height, width)


# --- DepthFrame validation ---

def test_frame_validation():
    with pytest.raises(ValueError):
        DepthFrame(np.zeros((0, 3), dtype=np.uint16))
    with pytest.raises(ValueError):
        DepthFrame(np.array([1, 2, 3], dtype=np.uint16))
    with pytest.raises(ValueError):
        DepthFrame(np.array([[2048]], dtype=np.int32))
    with pytest.raises(ValueError):
        DepthFrame(np.array([[-1]], dtype=np.int32))
    with pytest.raises(ValueError):
        DepthFrame(np.array([[0, 2048]], dtype=np.uint16))
    with pytest.raises(ValueError):
        DepthFrame(np.array([[1.5]]))


# --- reports ---

def hand(hand_id, color, x, y, radius, tips):
    return HandReport(
        hand_id=hand_id,
        overlay_color=color,
        palm=PalmCenter(x=x, y=y, inradius_px=radius),
        fingertips=tips,
    )


def test_report_empty():
    out = write_report(DetectionReport(frame_index=0, hands=[]))
    assert out == b'{"frame_index":0,"hands":[]}'


def test_report_golden_single_hand_single_tip():
    tip = Fingertip(x=12, y=8, depth_cm=74.25, finger_index=0)
    report = DetectionReport(
        frame_index=3,
        hands=[hand(HandId.SINGLE, WHITE, 20, 30, 10.5, [tip])],
    )
    expected = (
        b'{"frame_index":3,"hands":['
        b'{"id":"Single","overlay_color":[255,255,255],'
        b'"palm_center":{"x":20,"y":30},"palm_radius_px":10.50,'
        b'"fingertips":[{"x":12,"y":8,"depth_cm":74.25}]}]}'
    )
    assert write_report(report) == expected


def test_report_orders_right_before_left():
    left = hand(HandId.LEFT, PINK, 5, 5, 8.0, [])
    right = hand(HandId.RIGHT, WHITE, 50, 5, 8.0, [])
    out = write_report(DetectionReport(frame_index=1, hands=[left, right]))
    doc = json.loads(out)
    assert [h["id"] for h in doc["hands"]] == ["Right", "Left"]
    assert doc["hands"][0]["overlay_color"] == [255, 255, 255]
    assert doc["hands"][1]["overlay_color"] == [255, 105, 180]


def test_report_sorts_fingertips_by_x_then_y():
    tips = [
        Fingertip(x=9, y=2, depth_cm=70.0, finger_index=0),
        Fingertip(x=3, y=7, depth_cm=70.0, finger_index=1),
        Fingertip(x=3, y=1, depth_cm=70.0, finger_index=2),
    ]
    out = write_report(
        DetectionReport(frame_index=0, hands=[hand(HandId.SINGLE, WHITE, 4, 4, 5.0, tips)])
    )
    doc = json.loads(out)
    coords = [(t["x"], t["y"]) for t in doc["hands"][0]["fingertips"]]
    assert coords == [(3, 1), (3, 7), (9, 2)]


def test_report_deterministic():
    tips = [Fingertip(x=1, y=2, depth_cm=66.666, finger_index=0)]
    report = DetectionReport(frame_index=9, hands=[hand(HandId.SINGLE, WHITE, 3, 4, 7.07, tips)])
    assert write_report(report) == write_report(report)
    assert b'"depth_cm":66.67' in write_report(report)


# --- overlays ---

def gray_expected(raw: int) -> int:
    return 0 if raw == 2047 else raw * 255 // 2046


def parse_ppm(data: bytes):
    magic, dims, maxval, payload = data.split(b"\n", 3)
    assert magic == b"P6" and maxval == b"255"
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)


def test_overlay_no_hands_is_grayscale():
    frame = frame_of([[0, 1023], [2046, 2047]])
    rgb = parse_ppm(write_overlay(frame, []))
    assert (rgb[:, :, 0] == rgb[:, :, 1]).all() and (rgb[:, :, 1] == rgb[:, :, 2]).all()
    assert rgb[0, 0, 0] == gray_expected(0)
    assert rgb[0, 1, 0] == gray_expected(1023)
    assert rgb[1, 0, 0] == gray_expected(2046) == 255
    assert rgb[1, 1, 0] == gray_expected(2047) == 0


def test_overlay_draws_marks_and_leaves_rest():
    samples = np.full((20, 20), 1000, dtype=np.uint16)
    frame = DepthFrame(samples)
    tip = Fingertip(x=15, y=4, depth_cm=70.0, finger_index=0)
    report = hand(HandId.SINGLE, WHITE, 8, 10, 5.0, [tip])
    rgb = parse_ppm(write_overlay(frame, [report]))
    assert (rgb[10, 8] == WHITE).all()          # cross center
    assert (rgb[10, 5] == WHITE).all() and (rgb[10, 11] == WHITE).all()
    assert (rgb[7, 8] == WHITE).all() and (rgb[13, 8] == WHITE).all()
    assert (rgb[3, 14] == WHITE).all() and (rgb[5, 16] == WHITE).all()  # 3x3 tip square
    untouched = gray_expected(1000)
    assert (rgb[0, 0] == untouched).all()
    assert (rgb[10, 3] == untouched).all()       # one past the cross arm
    assert (rgb[2, 14] == untouched).all()       # one past the tip square


def test_overlay_two_hand_colors():
    samples = np.full((16, 30), 800, dtype=np.uint16)
    right = hand(HandId.RIGHT, WHITE, 22, 8, 4.0, [])
    left = hand(HandId.LEFT, PINK, 6, 8, 4.0, [])
    rgb = parse_ppm(write_overlay(DepthFrame(samples), [right, left]))
    assert (rgb[8, 22] == WHITE).all()
    assert (rgb[8, 6] == PINK).all()


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (4, 3), (6, 7)])
def test_overlay_marks_match_the_per_pixel_painter_at_and_past_every_edge(shape):
    h, w = shape
    rng = np.random.default_rng(h * 10 + w)
    frame = random_frame(rng, shape)
    gray = parse_ppm(write_overlay(frame, []))
    for y in range(-5, h + 5):
        for x in range(-5, w + 5):
            tips = [Fingertip(x=x, y=y, depth_cm=70.0, finger_index=0),
                    Fingertip(x=w - 1 - x, y=y + 1, depth_cm=70.0, finger_index=1)]
            hands = [hand(HandId.RIGHT, WHITE, x, y, 4.0, tips),
                     hand(HandId.LEFT, PINK, w - x, h - 1 - y, 4.0, tips[:1])]
            want = gray.copy()
            paint_marks_per_pixel(want, hands)
            assert (parse_ppm(write_overlay(frame, hands)) == want).all(), (x, y)
