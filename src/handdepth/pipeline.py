"""End-to-end detection: frames in, labeled hand reports out.

Per frame and per hand the stages run in a fixed order: seed finding,
the seed's depth-band blob (the seed's slab blob itself when every band
code is a slab code and the blob lies wholly in the band, otherwise the
band labelled over the whole frame), hole filling, distance transform,
palm center and inradius, opening with an inradius-scaled disk, finger
masks by subtraction, minimum-depth fingertips, then identity labeling
and tracking.  The distance transform runs before palm extraction so
the opening radius r can scale with the measured inradius.  The opening
keeps every pixel where that map exceeds r*r and is empty if there is
none, so the map's argmax, the palm center, lies in every non-empty
opening.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator

from .calibration import CalibrationParams, DEFAULT_CALIBRATION
from .distance import distance_transform, find_palm_center
from .errors import (
    ConfigError,
    DegenerateHandError,
    DomainError,
    EmptyResultError,
    NotFoundError,
    check_keys,
    number,
)
from .fingertips import detect_fingertips
from .frame_io import DepthFrame, DetectionReport
from .morphology import auto_radius, default_min_finger_area, extract_palm, finger_masks
from .segmentation import Blob, fill_holes, find_hand_seeds, segment_hand
from .tracking import HandObservation, TrackState, label_hands, update

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the detection pipeline, with working defaults.

    The opening radius (0.7 of the palm inradius, auto_radius) and the
    finger sliver floor (default_min_finger_area of the hand's area) are
    fixed constants of the pipeline, not settings.
    """

    calibration: CalibrationParams = DEFAULT_CALIBRATION
    band_cm: float = 15.0
    slab_cm: float = 20.0
    min_area: int = 100
    max_hands: int = 2
    max_misses: int = 5

    def __post_init__(self) -> None:
        if not isinstance(self.calibration, CalibrationParams):
            raise ConfigError(f"calibration must be a CalibrationParams, not {self.calibration!r}")
        for name in ("band_cm", "slab_cm"):
            if number(getattr(self, name), name, ConfigError) <= 0:
                raise ConfigError(f"{name} must be positive")
        number(self.min_area, "min_area", ConfigError, integer=True, low=1)
        number(self.max_hands, "max_hands", ConfigError, integer=True, low=1, high=2)
        number(self.max_misses, "max_misses", ConfigError, integer=True, low=1)


_CALIBRATION_KEYS = {"h": "h_rad", "k": "k_cm", "l": "l_rad", "o": "o_cm",
                     "raw_valid_max": "raw_valid_max"}


def config_from_dict(data: dict) -> PipelineConfig:
    """Build a config from parsed JSON; unknown keys are rejected."""
    kwargs = dict(check_keys(data, {f.name for f in fields(PipelineConfig)}, "config"))
    if "calibration" in kwargs:
        cal = check_keys(kwargs["calibration"], _CALIBRATION_KEYS, "calibration")
        try:
            kwargs["calibration"] = CalibrationParams(
                **{_CALIBRATION_KEYS[k]: v for k, v in cal.items()}
            )
        except (DomainError, OverflowError) as exc:  # overflow: an int h_rad past int64
            raise ConfigError(f"bad calibration: {exc}") from exc
    return PipelineConfig(**kwargs)


def _analyze_hand(frame: DepthFrame, blob: Blob, config: PipelineConfig) -> HandObservation:
    """Palm center and fingertips of one segmented hand blob."""
    # The exact bbox: every per-hand stage treats pixels outside it as background.
    x0, y0 = blob.bbox[:2]
    hand = fill_holes(blob.mask)

    dist = distance_transform(hand)
    palm = find_palm_center(dist)
    palm_mask = extract_palm(dist, auto_radius(palm.inradius_px))
    fingers = finger_masks(hand, palm_mask, default_min_finger_area(int(hand.sum())))
    tips = detect_fingertips(frame.samples[blob.box], fingers, config.calibration)
    return (
        replace(palm, x=palm.x + x0, y=palm.y + y0),
        [replace(t, x=t.x + x0, y=t.y + y0) for t in tips],
        blob,
    )


def extract_hands(frame: DepthFrame, config: PipelineConfig) -> list[HandObservation]:
    """Stateless per-frame analysis: everything before identity labeling.

    A frame with nothing segmentable yields an empty list; a hand that
    fails partway (degenerate mask, empty opening) is skipped with a
    warning rather than failing the frame.
    """
    try:
        seeds = find_hand_seeds(
            frame, config.max_hands, config.min_area, config.slab_cm, config.calibration
        )
    except NotFoundError:
        return []
    observations: list[HandObservation] = []
    for seed in seeds:
        if any(obs[2].contains(seed.x, seed.y) for obs in observations):
            continue  # both seeds landed on one blob; report it once
        try:
            blob = segment_hand(frame, seed, config.band_cm, config.calibration)
            observations.append(_analyze_hand(frame, blob, config))
        except (NotFoundError, DegenerateHandError, EmptyResultError, DomainError) as exc:
            log.warning("hand at seed (%d, %d) dropped: %s", seed.x, seed.y, exc)
    return observations


def run_pipeline(
    frames: Iterable[DepthFrame], config: PipelineConfig = PipelineConfig()
) -> Iterator[DetectionReport]:
    """Detect, label, and track hands over an ordered frame sequence.

    Frames are pulled one at a time: each report is yielded before the
    next frame is drawn, and the tracker state advances frame by frame.
    """
    state = TrackState(max_misses=config.max_misses)
    for index, frame in enumerate(frames):
        reports = label_hands(extract_hands(frame, config), state)
        update(state, reports)
        yield DetectionReport(frame_index=index, hands=reports)
