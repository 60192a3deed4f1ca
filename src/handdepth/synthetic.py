"""Parametric hand renderer with exact analytic ground truth.

A hand is a filled palm disk plus up to five fingers, each a rotated
rectangle capped by a half-disc, rasterized by a center-in-shape test.
Raw depth decreases linearly along each finger so the tip is the strict
depth minimum; the renderer records the exact pixel it guarantees the
detector must find, which makes rendered scenes usable as oracles for
accuracy measurements.

A ``Scene`` is checked once, when it is built (ConfigError); its
``render`` draws every hand into one raw array, then applies the seeded
dropout.  ``render_scene`` builds a ``Scene`` and renders it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .calibration import (
    CalibrationParams,
    DEFAULT_CALIBRATION,
    RAW_SENTINEL,
    cm_per_raw,
    cm_to_raw,
)
from .errors import ConfigError, GeometryError, check_keys, number
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
    """A scalar or one entry per finger, as ``count`` floats of at least 1 px."""
    if not isinstance(value, (list, tuple)):
        return (float(number(value, name, ValueError, low=1)),) * count
    if len(value) != count:
        raise ValueError(f"{name} must have one entry per finger ({count}), got {len(value)}")
    return tuple(float(number(v, name, ValueError, low=1)) for v in value)


@dataclass(frozen=True)
class HandSpec:
    """Geometry and depth of one synthetic hand.

    ``finger_length`` and ``finger_width`` accept a scalar (shared by all
    fingers) or one value per finger.  ``tip_slope`` is how many raw
    units shallower the finger gets per pixel of travel toward its tip.
    Every field must be a finite number (``finger_count`` an integer in
    [0, 5]); a bad one raises ValueError.
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
        center = self.palm_center
        if not (isinstance(center, (list, tuple)) and len(center) == 2):
            raise ValueError(f"palm_center must be two numbers, not {center!r}")
        for value in center:
            number(value, "palm_center", ValueError)
        number(self.finger_count, "finger_count", ValueError, integer=True, low=0, high=5)
        number(self.palm_radius, "palm_radius", ValueError, low=1)
        number(self.orientation_deg, "orientation_deg", ValueError)
        number(self.finger_spread_deg, "finger_spread_deg", ValueError)
        if number(self.base_depth_cm, "base_depth_cm", ValueError) <= 0:
            raise ValueError("base_depth_cm must be positive")
        number(self.tip_slope, "tip_slope", ValueError, low=0)
        lengths = _as_tuple(self.finger_length, self.finger_count, "finger_length")
        widths = _as_tuple(self.finger_width, self.finger_count, "finger_width")
        if any(w >= self.palm_radius for w in widths):
            raise ValueError("finger width must be smaller than the palm radius")
        if self.finger_count >= 2:
            if self.finger_spread_deg <= 0:
                raise ValueError("finger_spread_deg must be positive for multiple fingers")
            if self.finger_spread_deg * (self.finger_count - 1) >= 360:
                raise ValueError("finger fan wraps past a full turn")
        object.__setattr__(self, "palm_center", tuple(center))
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


def _draw_hand(spec: HandSpec, raw: np.ndarray, X: np.ndarray, Y: np.ndarray,
               params: CalibrationParams) -> GroundTruth:
    """Paint one hand into ``raw`` (raw codes over the frame's pixel grid ``X``, ``Y``).

    Raises GeometryError if any part of the hand leaves the frame, a
    finger covers no pixel or its slope descends below raw 0.
    """
    height, width = raw.shape
    cx, cy = spec.palm_center
    base_raw = cm_to_raw(spec.base_depth_cm, params)

    extremes = [(cx - spec.palm_radius, cy - spec.palm_radius),
                (cx + spec.palm_radius, cy + spec.palm_radius)]
    geom = []
    for angle, length, fwidth in zip(spec.finger_angles_deg(), spec.finger_length, spec.finger_width):
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
    for x, y in extremes:
        if not (0 <= x <= width - 1 and 0 <= y <= height - 1):
            raise GeometryError(f"hand geometry leaves the frame at ({x:.1f}, {y:.1f})")

    dx, dy = X - cx, Y - cy
    support = dx * dx + dy * dy <= spec.palm_radius * spec.palm_radius
    raw[support] = base_raw

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

        # ground-truth tip: the pixel farthest along the finger axis (ties: min y, then min x)
        ty_px, tx_px = divmod(int(np.argmax(np.where(shape, s, -np.inf))), width)
        lowest = int(fraw[shape].min())  # at the tip, as fraw never rises along s
        if spec.tip_slope > 0 and int((fraw[shape] == lowest).sum()) > 1:
            # rounding can tie nearby cap pixels with the apex; deepen the
            # apex one raw unit so the tip is the strict minimum
            lowest -= 1
            fraw[ty_px, tx_px] = lowest
        if lowest < 0:
            raise GeometryError("finger slope descends below raw 0; reduce tip_slope")
        np.minimum(raw, fraw, out=raw, where=shape)
        support |= shape
        tips.append((tx_px, ty_px))

    return GroundTruth(
        palm_center=(int(round(cx)), int(round(cy))),
        palm_radius=float(spec.palm_radius),
        fingertips=tips,
        support=support,
        finger_widths=tuple(spec.finger_width),
    )


# A render peaks near 94 bytes per pixel (tracemalloc, a 1024x1024 frame of
# one or two five-finger hands), so this caps a scene's frame at about
# 400 MB of rendering instead of an allocation failure.
MAX_FRAME_PIXELS = 2048 * 2048


@dataclass(frozen=True)
class Scene:
    """Everything needed to render one reproducible frame.

    A scene is a scene file's record, so a bad field raises ConfigError.
    """

    hands: tuple[HandSpec, ...]
    frame_size: tuple[int, int] = (320, 240)
    background_depth_cm: float = 200.0
    dropout_rate: float = 0.0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        size = self.frame_size
        if not (isinstance(size, (list, tuple)) and len(size) == 2):
            raise ConfigError(f"frame_size must be two positive integers, not {size!r}")
        for value in size:
            number(value, "frame_size", ConfigError, integer=True, low=1)
        if size[0] * size[1] > MAX_FRAME_PIXELS:
            raise ConfigError(f"frame_size {list(size)} exceeds {MAX_FRAME_PIXELS} pixels (2048x2048)")
        number(self.noise_seed, "noise_seed", ConfigError, integer=True, low=0)
        dropout_rate = float(number(self.dropout_rate, "dropout_rate", ConfigError))
        if not 0 <= dropout_rate < 1:
            raise ConfigError(f"dropout_rate must lie in [0, 1), not {dropout_rate}")
        background = float(number(self.background_depth_cm, "background_depth_cm", ConfigError))
        hands = self.hands
        if not (isinstance(hands, (list, tuple)) and all(isinstance(h, HandSpec) for h in hands)):
            raise ConfigError(f"hands must be a list of hand specs, not {hands!r}")
        if len(hands) > 2:
            raise ConfigError(f"a scene holds at most two hands, got {len(hands)}")
        if any(background < spec.base_depth_cm + 50 for spec in hands):
            raise ConfigError("background_depth_cm must be at least 50 cm behind every hand")
        object.__setattr__(self, "hands", tuple(hands))
        object.__setattr__(self, "frame_size", tuple(size))
        object.__setattr__(self, "background_depth_cm", background)
        object.__setattr__(self, "dropout_rate", dropout_rate)

    def render(
        self, params: CalibrationParams = DEFAULT_CALIBRATION
    ) -> tuple[DepthFrame, list[GroundTruth]]:
        """Draw every hand into one frame, then knock out a fraction of hand pixels.

        Hands must not overlap (GeometryError).  Dropout replaces a
        deterministic, ``noise_seed``-chosen fraction of hand-support
        pixels with the no-measurement sentinel; ground truth refers to
        the pre-dropout scene.
        """
        width, height = self.frame_size
        X, Y = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
        raw = np.full((height, width), cm_to_raw(self.background_depth_cm, params), dtype=np.int64)
        occupied = np.zeros((height, width), dtype=bool)
        truths = []
        for spec in self.hands:
            truth = _draw_hand(spec, raw, X, Y, params)
            if (occupied & truth.support).any():
                raise GeometryError("hand supports overlap")
            occupied |= truth.support
            truths.append(truth)

        if self.dropout_rate > 0 and occupied.any():
            ys, xs = np.nonzero(occupied)
            count = int(round(self.dropout_rate * ys.size))
            if count:
                rng = np.random.default_rng(self.noise_seed)
                pick = rng.choice(ys.size, size=count, replace=False)
                raw[ys[pick], xs[pick]] = RAW_SENTINEL
        return DepthFrame(raw.astype(np.uint16)), truths


def render_scene(
    specs: list[HandSpec],
    frame_size: tuple[int, int],
    background_depth_cm: float,
    noise_seed: int = 0,
    dropout_rate: float = 0.0,
    params: CalibrationParams = DEFAULT_CALIBRATION,
) -> tuple[DepthFrame, list[GroundTruth]]:
    """``Scene(specs, ...).render(params)``: a bad argument raises ConfigError as in a scene file."""
    return Scene(specs, frame_size, background_depth_cm, dropout_rate, noise_seed).render(params)


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


_HAND_KEYS = {f.name for f in fields(HandSpec)}
_SCENE_KEYS = {f.name for f in fields(Scene)}


def hand_spec_from_dict(data: dict) -> HandSpec:
    check_keys(data, _HAND_KEYS, "hand spec")
    try:
        return HandSpec(**data)
    except (TypeError, ValueError) as exc:  # TypeError: a required key is missing
        raise ConfigError(f"bad hand spec: {exc}") from exc


def scene_from_dict(data: dict) -> Scene:
    check_keys(data, _SCENE_KEYS, "scene")
    hands = data.get("hands", [])
    if isinstance(hands, (list, tuple)):
        hands = [hand_spec_from_dict(h) for h in hands]
    return Scene(**{**data, "hands": hands})


def scene_to_dict(scene: Scene) -> dict:
    return asdict(scene)
