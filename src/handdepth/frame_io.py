"""Bit-exact serialization of depth frames, detection reports, and overlays.

Depth frames travel as binary 16-bit PGM (big-endian, maxval 2047 on
write) or as headerless little-endian .r16 with dimensions supplied out
of band.  Detection reports serialize to a fixed-key-order JSON schema
with two-decimal floats, so identical runs produce identical bytes.
Overlays are 8-bit binary PPM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .calibration import RAW_CEILING, RAW_SENTINEL
from .errors import FormatError

if TYPE_CHECKING:
    from .tracking import HandReport


class DepthFrame:
    """A rectangular grid of 11-bit raw disparity samples.

    ``samples`` is uint16 with shape (height, width); every value is at
    most 2047, where 2047 means "no measurement here".
    """

    __slots__ = ("samples",)

    def __init__(self, samples: np.ndarray):
        arr = np.asarray(samples)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("samples must be a non-empty 2-D array")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("raw samples must be integers")
        # unsigned samples, as every reader gives, cannot be negative
        if int(arr.max()) > RAW_SENTINEL or (arr.dtype.kind != "u" and int(arr.min()) < 0):
            raise ValueError("raw samples must lie in [0, 2047]")
        self.samples = np.ascontiguousarray(arr, dtype=np.uint16)

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, DepthFrame) and np.array_equal(self.samples, other.samples)

    __hash__ = None  # mutable payload

    def __repr__(self) -> str:
        return f"DepthFrame({self.width}x{self.height})"


@dataclass
class DetectionReport:
    """Per-frame pipeline output: which hands were found and where."""

    frame_index: int
    hands: list["HandReport"]


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited header token, skipping '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError("unexpected end of header", offset=pos)
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    if not token.isdigit():
        raise FormatError(f"invalid {what} {token!r}", offset=pos - len(token))
    return int(token), pos


def read_pgm(data: bytes) -> tuple[DepthFrame, int]:
    """Decode a binary 16-bit PGM ("P5") into a frame.

    Accepts any maxval in [256, 65535]; samples above 2047 are clamped to
    the sentinel.  Returns the frame and the number of clamped samples.
    An in-range payload is read in two passes, the byte swap and
    DepthFrame's range check; the clamp mask and its count are built
    only when that check fails.
    """
    if data[:2] != b"P5":
        raise FormatError(f"not a binary PGM (magic {data[:2]!r})", offset=0)
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}", offset=2)
    if not 256 <= maxval <= 65535:
        raise FormatError(f"maxval {maxval} outside the 16-bit range [256, 65535]", offset=pos)
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise FormatError("missing single whitespace after maxval", offset=pos)
    pos += 1
    count = width * height
    if len(data) - pos < 2 * count:
        raise FormatError(
            f"payload truncated: need {2 * count} bytes, have {len(data) - pos}",
            offset=len(data),
        )
    raw = np.frombuffer(data, dtype=">u2", count=count, offset=pos).astype(np.uint16)
    raw = raw.reshape(height, width)
    try:
        return DepthFrame(raw), 0
    except ValueError:  # some sample lies past the sentinel: the only check raw can fail
        over = raw > RAW_SENTINEL
        raw[over] = RAW_SENTINEL  # raw is a fresh copy, so clamp in place
        return DepthFrame(raw), int(np.count_nonzero(over))


def write_pgm(frame: DepthFrame) -> bytes:
    """Canonical binary PGM: maxval 2047, big-endian, single-space header."""
    header = f"P5\n{frame.width} {frame.height}\n{RAW_SENTINEL}\n".encode("ascii")
    return header + frame.samples.astype(">u2").tobytes()


def read_raw(data: bytes, width: int, height: int) -> DepthFrame:
    """Decode headerless little-endian 16-bit samples; only 11 bits are kept."""
    if width < 1 or height < 1:
        raise ValueError("dimensions must be positive")
    expected = 2 * width * height
    if len(data) != expected:
        raise FormatError(
            f"raw payload is {len(data)} bytes, expected {expected}",
            offset=min(len(data), expected),
        )
    raw = np.frombuffer(data, dtype="<u2").astype(np.uint16) & 0x7FF
    return DepthFrame(raw.reshape(height, width))


def write_raw(frame: DepthFrame) -> bytes:
    """Headerless little-endian 16-bit samples, row-major."""
    return frame.samples.astype("<u2").tobytes()


def _fmt(value: float) -> str:
    return f"{value:.2f}"


_HAND_ORDER = {"Right": 0, "Left": 1, "Single": 0}


def write_report(report: DetectionReport) -> bytes:
    """Serialize a detection report to canonical UTF-8 JSON.

    Key order is fixed, floats carry exactly two decimals, hands appear
    Right before Left, and fingertips are sorted by x then y, so equal
    reports always produce identical bytes.
    """
    hands = sorted(report.hands, key=lambda h: _HAND_ORDER[h.hand_id.value])
    parts = []
    for hand in hands:
        tips = sorted(hand.fingertips, key=lambda t: (t.x, t.y))
        tips_json = ",".join(
            f'{{"x":{t.x},"y":{t.y},"depth_cm":{_fmt(t.depth_cm)}}}' for t in tips
        )
        color = ",".join(str(c) for c in hand.overlay_color)
        parts.append(
            f'{{"id":"{hand.hand_id.value}"'
            f',"overlay_color":[{color}]'
            f',"palm_center":{{"x":{hand.palm.x},"y":{hand.palm.y}}}'
            f',"palm_radius_px":{_fmt(hand.palm.inradius_px)}'
            f',"fingertips":[{tips_json}]}}'
        )
    doc = f'{{"frame_index":{report.frame_index},"hands":[{",".join(parts)}]}}'
    return doc.encode("utf-8")


def _depth_to_gray(samples: np.ndarray) -> np.ndarray:
    """Linear map of the measurable raw range [0, 2046] to [0, 255]; sentinel -> 0."""
    gray = (samples.astype(np.uint32) * 255) // RAW_CEILING
    gray[samples == RAW_SENTINEL] = 0
    return gray.astype(np.uint8)


def _box(rgb: np.ndarray, x0: int, x1: int, y0: int, y1: int,
         color: tuple[int, int, int]) -> None:
    """Paint the pixels x0 <= x < x1, y0 <= y < y1 that lie inside the image."""
    # Clamp both ends at 0: a negative stop would wrap; slicing clips stops past the edge.
    rgb[max(y0, 0):max(y1, 0), max(x0, 0):max(x1, 0)] = color


def write_overlay(frame: DepthFrame, hands: list["HandReport"]) -> bytes:
    """Binary PPM of the depth frame with detections drawn on top.

    Depth renders as 8-bit gray; each fingertip becomes a filled 3x3
    square and each palm center a cross spanning 7 pixels, both in the
    hand's overlay color.  Pixels outside the marks are untouched.
    """
    gray = _depth_to_gray(frame.samples)
    rgb = np.stack((gray, gray, gray), axis=-1)
    for hand in hands:
        color = hand.overlay_color
        for tip in hand.fingertips:
            _box(rgb, tip.x - 1, tip.x + 2, tip.y - 1, tip.y + 2, color)
        px, py = hand.palm.x, hand.palm.y
        _box(rgb, px - 3, px + 4, py, py + 1, color)
        _box(rgb, px, px + 1, py - 3, py + 4, color)
    header = f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii")
    return header + rgb.tobytes()
