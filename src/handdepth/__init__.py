"""Hand analysis on 11-bit raw depth frames.

Segments hands by depth band, isolates the palm with an inradius-scaled
morphological opening, finds fingertips as per-finger depth minima, and
centers the palm on the distance-transform maximum.  A synthetic scene
renderer with exact ground truth backs the test and benchmark suites.
"""

from .calibration import (
    CalibrationParams,
    DEFAULT_CALIBRATION,
    RAW_CEILING,
    RAW_SENTINEL,
    cm_per_raw,
    cm_to_raw,
    raw_to_cm,
    valid_domain,
)
from .distance import PalmCenter, distance_transform, find_palm_center, sq_edt
from .errors import (
    ConfigError,
    DegenerateHandError,
    DomainError,
    EmptyResultError,
    FormatError,
    GeometryError,
    HandDepthError,
    NotFoundError,
)
from .fingertips import Fingertip, detect_fingertips
from .frame_io import (
    DepthFrame,
    DetectionReport,
    read_pgm,
    read_raw,
    write_overlay,
    write_pgm,
    write_raw,
    write_report,
)
from .morphology import auto_radius, default_min_finger_area, extract_palm, finger_masks
from .pipeline import PipelineConfig, config_from_dict, extract_hands, run_pipeline
from .segmentation import (
    Blob,
    HandSeed,
    connected_components,
    fill_holes,
    find_hand_seeds,
    segment_hand,
    select_hand_blob,
)
from .synthetic import (
    GroundTruth,
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
from .tracking import HandId, HandReport, OVERLAY_COLORS, PINK, TrackState, WHITE, label_hands, update
from .benchmark import run_benchmark, score_scene, tip_tolerance_px

__version__ = "0.1.0"
