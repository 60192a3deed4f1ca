"""Parametric hand renderer with exact analytic ground truth.

A hand is a filled palm disk plus up to five fingers, each a rotated
rectangle capped by a half-disc, rasterized by a center-in-shape test.
Raw depth decreases linearly along each finger so the tip is the strict
depth minimum; the renderer records the exact pixel it guarantees the
detector must find, which makes rendered scenes usable as oracles for
accuracy measurements.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .calibration import (
    CalibrationParams,
    DEFAULT_CALIBRATION,
    RAW_SENTINEL,
    cm_per_raw,
    cm_to_raw,
)
from .errors import ConfigError, GeometryError
from .frame_io import DepthFrame


def _unit(angle_deg: float) -> tuple[float, float]:
    """Direction vector for an angle in degrees, exact on the cardinals."""
    a = angle_deg % 360.0
    cardinal = {0.0: (1.0, 0.0), 90.0: (0.0, 1.0), 180.0: (-1.0, 0.0), 270.0: (0.0, -1.0)}
    if a in cardinal:
        return cardinal[a]
    rad = math.radians(a)
    return math.cos(rad), math.sin(rad)


def _as_tuple(value, count: int, name: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        return (float(value),) * count
    out = tuple(float(v) for v in value)
    if len(out) != count:
        raise ValueError(f"{name} must have one entry per finger ({count}), got {len(out)}")
    return out


@dataclass(frozen=True)
class HandSpec:
    """Geometry and depth of one synthetic hand.

    ``finger_length`` and ``finger_width`` accept a scalar (shared by all
    fingers) or one value per finger.  ``tip_slope`` is how many raw
    units shallower the finger gets per pixel of travel toward its tip.
    """

    palm_center: tuple[float, float]
    palm_radius: float
    finger_count: int
    finger_length: tuple[float, ...] | float = ()
    finger_width: tuple[float, ...] | float = ()
    orientation_deg: float = 0.0
    finger_spread_deg: float = 30.0
    base_depth_cm: float = 80.0
    tip_slope: float = 2.0

    def __post_init__(self) -> None:
        if not 0 <= self.finger_count <= 5:
            raise ValueError("finger_count must lie in [0, 5]")
        if self.palm_radius < 1:
            raise ValueError("palm_radius must be >= 1 px")
        if self.tip_slope < 0:
            raise ValueError("tip_slope must be >= 0")
        if not self.base_depth_cm > 0:  # also rejects NaN
            raise ValueError("base_depth_cm must be positive")
        lengths = _as_tuple(self.finger_length, self.finger_count, "finger_length")
        widths = _as_tuple(self.finger_width, self.finger_count, "finger_width")
        for L, w in zip(lengths, widths):
            if L < 1 or w < 1:
                raise ValueError("finger lengths and widths must be >= 1 px")
            if w >= self.palm_radius:
                raise ValueError("finger width must be smaller than the palm radius")
        if self.finger_count >= 2:
            if self.finger_spread_deg <= 0:
                raise ValueError("finger_spread_deg must be positive for multiple fingers")
            if self.finger_spread_deg * (self.finger_count - 1) >= 360:
                raise ValueError("finger fan wraps past a full turn")
        object.__setattr__(self, "finger_length", lengths)
        object.__setattr__(self, "finger_width", widths)

    def finger_angles_deg(self) -> list[float]:
        """Centerline angle of each finger, fanned around the orientation."""
        n = self.finger_count
        return [
            self.orientation_deg + (i - (n - 1) / 2.0) * self.finger_spread_deg
            for i in range(n)
        ]


@dataclass
class GroundTruth:
    """Exact per-hand answers the pipeline is expected to recover."""

    palm_center: tuple[int, int]
    palm_radius: float
    fingertips: list[tuple[int, int]]
    support: np.ndarray = field(repr=False)
    finger_widths: tuple[float, ...] = ()


def _check_in_frame(points: list[tuple[float, float]], width: int, height: int) -> None:
    for x, y in points:
        if not (0 <= x <= width - 1 and 0 <= y <= height - 1):
            raise GeometryError(f"hand geometry leaves the frame at ({x:.1f}, {y:.1f})")


def render_hand(
    spec: HandSpec,
    frame_size: tuple[int, int],
    background_depth_cm: float,
    params: CalibrationParams = DEFAULT_CALIBRATION,
) -> tuple[DepthFrame, GroundTruth]:
    """Rasterize one hand over a flat background.

    The background must sit at least 50 cm behind the hand so that depth
    segmentation has something to separate.  Raises GeometryError if any
    part of the hand leaves the frame.
    """
    width, height = frame_size
    if background_depth_cm < spec.base_depth_cm + 50:
        raise ValueError("background must be at least 50 cm behind the hand")
    cx, cy = spec.palm_center
    base_raw = cm_to_raw(spec.base_depth_cm, params)
    bg_raw = cm_to_raw(background_depth_cm, params)

    extremes = [(cx - spec.palm_radius, cy - spec.palm_radius),
                (cx + spec.palm_radius, cy + spec.palm_radius)]
    geom = []
    for angle, length, fwidth in zip(
        spec.finger_angles_deg(), spec.finger_length, spec.finger_width
    ):
        ux, uy = _unit(angle)
        vx, vy = -uy, ux
        half = fwidth / 2.0
        ax, ay = cx + spec.palm_radius * ux, cy + spec.palm_radius * uy
        tx, ty = cx + (spec.palm_radius + length) * ux, cy + (spec.palm_radius + length) * uy
        extremes += [
            (ax + half * vx, ay + half * vy),
            (ax - half * vx, ay - half * vy),
            (tx + half * vx, ty + half * vy),
            (tx - half * vx, ty - half * vy),
            (tx - half, ty - half),
            (tx + half, ty + half),
        ]
        geom.append((ux, uy, length, half, tx, ty))
    _check_in_frame(extremes, width, height)

    X, Y = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    dx, dy = X - cx, Y - cy
    palm = dx * dx + dy * dy <= spec.palm_radius * spec.palm_radius
    raw = np.full((height, width), bg_raw, dtype=np.int64)
    raw[palm] = base_raw
    support = palm.copy()

    tips: list[tuple[int, int]] = []
    for ux, uy, length, half, tx, ty in geom:
        s = dx * ux + dy * uy - spec.palm_radius
        t = -dx * uy + dy * ux
        rect = (s >= 0) & (s <= length) & (np.abs(t) <= half)
        cap = (X - tx) ** 2 + (Y - ty) ** 2 <= half * half
        shape = rect | cap
        if not shape.any():
            raise GeometryError("finger rasterized to nothing; widen or lengthen it")
        fraw = base_raw - np.rint(spec.tip_slope * np.maximum(s, 0.0)).astype(np.int64)
        if int(fraw[shape].min()) < 0:
            raise GeometryError("finger slope descends below raw 0; reduce tip_slope")

        # ground-truth tip: the pixel farthest along the finger axis
        s_in = np.where(shape, s, -np.inf)
        flat = int(np.argmax(s_in))  # ties: min y, then min x
        ty_px, tx_px = divmod(flat, width)
        if spec.tip_slope > 0:
            # rounding can tie nearby cap pixels with the apex; deepen the
            # apex one raw unit so the tip is the strict minimum
            lowest = int(fraw[shape].min())
            if int((fraw[shape] == lowest).sum()) > 1:
                fraw[ty_px, tx_px] = lowest - 1
                if lowest - 1 < 0:
                    raise GeometryError("finger slope descends below raw 0; reduce tip_slope")
        raw = np.where(shape, np.minimum(raw, fraw), raw)
        support |= shape
        tips.append((tx_px, ty_px))

    frame = DepthFrame(raw.astype(np.uint16))
    truth = GroundTruth(
        palm_center=(int(round(cx)), int(round(cy))),
        palm_radius=float(spec.palm_radius),
        fingertips=tips,
        support=support,
        finger_widths=tuple(spec.finger_width),
    )
    return frame, truth


def render_scene(
    specs: list[HandSpec],
    frame_size: tuple[int, int],
    background_depth_cm: float,
    noise_seed: int = 0,
    dropout_rate: float = 0.0,
    params: CalibrationParams = DEFAULT_CALIBRATION,
) -> tuple[DepthFrame, list[GroundTruth]]:
    """Composite up to two hands, then knock out a fraction of hand pixels.

    Hands must not overlap.  Dropout replaces a deterministic,
    seed-chosen fraction of hand-support pixels with the no-measurement
    sentinel; ground truth refers to the pre-dropout scene.
    """
    if len(specs) > 2:
        raise ValueError("a scene holds at most two hands")
    if not 0 <= dropout_rate < 1:
        raise ValueError("dropout_rate must lie in [0, 1)")
    width, height = frame_size
    bg_raw = cm_to_raw(background_depth_cm, params)
    raw = np.full((height, width), bg_raw, dtype=np.int64)
    truths = []
    occupied = np.zeros((height, width), dtype=bool)
    for spec in specs:
        frame, truth = render_hand(spec, frame_size, background_depth_cm, params)
        if (occupied & truth.support).any():
            raise GeometryError("hand supports overlap")
        occupied |= truth.support
        raw = np.where(truth.support, np.minimum(raw, frame.samples.astype(np.int64)), raw)
        truths.append(truth)

    if dropout_rate > 0 and occupied.any():
        ys, xs = np.nonzero(occupied)
        count = int(round(dropout_rate * ys.size))
        if count:
            rng = np.random.default_rng(noise_seed)
            pick = rng.choice(ys.size, size=count, replace=False)
            raw[ys[pick], xs[pick]] = RAW_SENTINEL
    return DepthFrame(raw.astype(np.uint16)), truths


@dataclass(frozen=True)
class Scene:
    """Everything needed to render one reproducible frame."""

    hands: tuple[HandSpec, ...]
    frame_size: tuple[int, int] = (320, 240)
    background_depth_cm: float = 200.0
    dropout_rate: float = 0.0
    noise_seed: int = 0

    def render(
        self, params: CalibrationParams = DEFAULT_CALIBRATION
    ) -> tuple[DepthFrame, list[GroundTruth]]:
        return render_scene(
            list(self.hands),
            self.frame_size,
            self.background_depth_cm,
            self.noise_seed,
            self.dropout_rate,
            params,
        )


def random_hand_spec(
    rng: np.random.Generator,
    frame_size: tuple[int, int],
    depth_cm: float,
    center_box: tuple[float, float, float, float] | None = None,
) -> HandSpec:
    """Draw one plausible desk-scale hand with 1-5 fingers, guaranteed to fit the frame.

    ``center_box`` (x0, y0, x1, y1) limits where the palm center may fall.
    The tip slope is chosen so fingers reach a few centimeters toward the
    camera yet stay steep enough (>= 4 raw units per width) that a tip
    displaced by a dropout still lands within half a finger width, under
    the default calibration.
    """
    width, height = frame_size
    radius = rng.uniform(20, 34)
    count = int(rng.integers(1, 6))
    lengths = tuple(radius * rng.uniform(1.1, 1.4) for _ in range(count))
    widths = tuple(radius * rng.uniform(0.30, 0.42) for _ in range(count))
    s_max = max(L + w / 2 for L, w in zip(lengths, widths))
    reach = radius + s_max
    margin = reach + 3
    lo_x, lo_y, hi_x, hi_y = center_box or (0, 0, width - 1, height - 1)
    lo_x, lo_y = max(lo_x, margin), max(lo_y, margin)
    hi_x, hi_y = min(hi_x, width - 1 - margin), min(hi_y, height - 1 - margin)
    if lo_x > hi_x or lo_y > hi_y:
        raise GeometryError("frame too small for the drawn hand")
    center = (rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y))

    base_raw = cm_to_raw(depth_cm, DEFAULT_CALIBRATION)
    per_raw = cm_per_raw(base_raw, DEFAULT_CALIBRATION)
    metric_target = rng.uniform(3.0, 6.0)
    slope = max(4.0 / min(widths), metric_target / (per_raw * s_max))
    return HandSpec(
        palm_center=center,
        palm_radius=radius,
        finger_count=count,
        finger_length=lengths,
        finger_width=widths,
        orientation_deg=float(rng.uniform(0, 360)),
        finger_spread_deg=float(rng.uniform(30, 38)),
        base_depth_cm=depth_cm,
        tip_slope=float(slope),
    )


def build_corpus(
    n_scenes: int,
    seed: int,
    frame_size: tuple[int, int] = (320, 240),
    dropout_rate: float = 0.02,
) -> list[Scene]:
    """Seeded single-hand benchmark corpus with uniform orientations and 60-150 cm depths."""
    rng = np.random.default_rng(seed)
    scenes = []
    for _ in range(n_scenes):
        depth = float(rng.uniform(60.0, 150.0))
        spec = random_hand_spec(rng, frame_size, depth)
        scenes.append(
            Scene(
                hands=(spec,),
                frame_size=frame_size,
                background_depth_cm=depth + float(rng.uniform(60, 90)),
                dropout_rate=dropout_rate,
                noise_seed=int(rng.integers(0, 2**32)),
            )
        )
    return scenes


# A one-hand render peaks near 100 bytes per pixel, so this caps a scene
# file's frame at about 430 MB of rendering instead of an allocation failure.
MAX_FRAME_PIXELS = 2048 * 2048

_HAND_KEYS = {f.name for f in fields(HandSpec)}
_SCENE_KEYS = {f.name for f in fields(Scene)}


def _numbers(items) -> bool:  # every item a JSON number: no string or boolean, no int past a float
    return all(isinstance(v, float) or type(v) is int and abs(v) <= sys.float_info.max for v in items)


def hand_spec_from_dict(data: dict) -> HandSpec:
    unknown = set(data) - _HAND_KEYS
    if unknown:
        raise ConfigError(f"unknown hand spec keys: {sorted(unknown)}")
    try:
        kwargs = dict(data)
        count = kwargs.get("finger_count")
        if type(count) is not int:  # not a float, and not a bool (an int subclass)
            raise ValueError(f"finger_count must be an integer, got {count!r}")
        center = kwargs.get("palm_center")
        if not (isinstance(center, (list, tuple)) and len(center) == 2 and _numbers(center)):
            raise ValueError(f"palm_center must be two numbers, got {center!r}")
        for name in ("finger_length", "finger_width"):
            value = kwargs.get(name, ())
            if not _numbers(value if isinstance(value, (list, tuple)) else [value]):
                raise ValueError(f"{name} must be a number or one per finger, got {value!r}")
        for name in ("palm_radius", "orientation_deg", "finger_spread_deg", "base_depth_cm",
                     "tip_slope"):
            if name in kwargs and not _numbers([kwargs[name]]):
                raise ValueError(f"{name} must be a number, got {kwargs[name]!r}")
        kwargs["palm_center"] = tuple(center)
        return HandSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad hand spec: {exc}") from exc


def scene_from_dict(data: dict) -> Scene:
    if not isinstance(data, dict):
        raise ConfigError("each scene must be an object")
    unknown = set(data) - _SCENE_KEYS
    if unknown:
        raise ConfigError(f"unknown scene keys: {sorted(unknown)}")
    size = data.get("frame_size", (320, 240))
    if not (isinstance(size, (list, tuple)) and len(size) == 2
            and all(type(v) is int and v > 0 for v in size)):
        raise ConfigError(f"frame_size must be two positive integers, got {size!r}")
    if size[0] * size[1] > MAX_FRAME_PIXELS:
        raise ConfigError(f"frame_size {list(size)} exceeds {MAX_FRAME_PIXELS} pixels (2048x2048)")
    noise_seed = data.get("noise_seed", 0)
    if type(noise_seed) is not int or noise_seed < 0:
        raise ConfigError(f"noise_seed must be a non-negative integer, got {noise_seed!r}")
    try:
        hands = tuple(hand_spec_from_dict(h) for h in data.get("hands", []))
        if len(hands) > 2:
            raise ConfigError(f"a scene holds at most two hands, got {len(hands)}")
        for name in ("dropout_rate", "background_depth_cm"):
            if name in data and not _numbers([data[name]]):
                raise ConfigError(f"{name} must be a number, got {data[name]!r}")
        dropout_rate = float(data.get("dropout_rate", 0.0))
        if not 0 <= dropout_rate < 1:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
        background_depth_cm = float(data.get("background_depth_cm", 200.0))
        if not math.isfinite(background_depth_cm):
            raise ConfigError(f"background_depth_cm must be finite, got {background_depth_cm}")
        if any(background_depth_cm < spec.base_depth_cm + 50 for spec in hands):
            raise ConfigError("background_depth_cm must be at least 50 cm behind every hand")
        return Scene(
            hands=hands,
            frame_size=tuple(size),
            background_depth_cm=background_depth_cm,
            dropout_rate=dropout_rate,
            noise_seed=noise_seed,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an int past any float
        raise ConfigError(f"bad scene: {exc}") from exc


def scene_to_dict(scene: Scene) -> dict:
    return asdict(scene)
