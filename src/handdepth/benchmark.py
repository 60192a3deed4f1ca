"""Accuracy metrics of the detector against synthetic ground truth.

Each scene renders to a frame with exact expected answers; the detector
runs on the frame alone and its output is scored against the ground
truth.  A detected tip matches a true tip when their distance is at most
max(2 px, half the finger width); palm centers count as correct within a
quarter of the true palm radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .pipeline import PipelineConfig, extract_hands
from .synthetic import GroundTruth, Scene
from .tracking import HandObservation

PALM_TOLERANCE_FRACTION = 0.25
ORIENTATION_BIN_DEG = 45.0


def tip_tolerance_px(finger_width: float) -> float:
    return max(2.0, finger_width / 2.0)


@dataclass
class SceneScore:
    """Raw match counts for one scene."""

    true_tips: int = 0
    detected_tips: int = 0
    matched_tips: int = 0
    tip_errors_px: list[float] = field(default_factory=list)
    hands: int = 0
    palm_hits: int = 0
    palm_error_fractions: list[float] = field(default_factory=list)


def _greedy_pairs(pairs: list[tuple[float, int, int]]) -> list[tuple[float, int, int]]:
    """Greedy nearest-first matching: each ``(dist, a, b)`` in order, if both ends are free."""
    used_a: set[int] = set()
    used_b: set[int] = set()
    taken = []
    for dist, a, b in sorted(pairs):
        if a not in used_a and b not in used_b:
            used_a.add(a)
            used_b.add(b)
            taken.append((dist, a, b))
    return taken


def _match_tips(
    detected: list[tuple[int, int]],
    truth: GroundTruth,
) -> tuple[int, list[float]]:
    """Greedy nearest-pair matching under per-finger tolerances."""
    pairs = []
    for ti, (tx, ty) in enumerate(truth.fingertips):
        tol = tip_tolerance_px(truth.finger_widths[ti])
        for di, (dx, dy) in enumerate(detected):
            dist = math.hypot(dx - tx, dy - ty)
            if dist <= tol:
                pairs.append((dist, ti, di))
    taken = _greedy_pairs(pairs)
    return len(taken), [dist for dist, _, _ in taken]


def score_scene(observations: list[HandObservation], truths: list[GroundTruth]) -> SceneScore:
    """Score detected hands against a scene's ground truth.

    Hands pair greedily by palm-center distance; unpaired truths count
    as full misses, unpaired detections as pure false positives.
    """
    score = SceneScore()
    score.hands = len(truths)
    score.true_tips = sum(len(t.fingertips) for t in truths)
    score.detected_tips = sum(len(obs[1]) for obs in observations)

    pairs = []
    for ti, truth in enumerate(truths):
        cx, cy = truth.palm_center
        for oi, (palm, _tips, _blob) in enumerate(observations):
            pairs.append((math.hypot(palm.x - cx, palm.y - cy), ti, oi))
    for dist, ti, oi in _greedy_pairs(pairs):
        truth = truths[ti]
        palm, tips, _blob = observations[oi]
        frac = dist / truth.palm_radius
        score.palm_error_fractions.append(frac)
        if frac <= PALM_TOLERANCE_FRACTION:
            score.palm_hits += 1
        matched, errors = _match_tips([(t.x, t.y) for t in tips], truth)
        score.matched_tips += matched
        score.tip_errors_px.extend(errors)
    return score


def _rate(num: int, den: int) -> float | None:
    return (num / den) if den else None


def _bin_label(orientation_deg: float) -> str:
    lo = int(orientation_deg % 360.0 // ORIENTATION_BIN_DEG) * int(ORIENTATION_BIN_DEG)
    return f"{lo}-{lo + int(ORIENTATION_BIN_DEG)}"


def run_benchmark(scenes: list[Scene], config: PipelineConfig) -> dict:
    """Render every scene, run the detector, and aggregate the metrics."""
    params = config.calibration
    total = SceneScore()
    bins: dict[str, SceneScore] = {}
    for scene in scenes:
        frame, truths = scene.render(params)
        observations = extract_hands(frame, config)
        score = score_scene(observations, truths)
        if scene.hands:  # bins are per scene, keyed on the first hand's orientation
            bucket = bins.setdefault(_bin_label(scene.hands[0].orientation_deg), SceneScore())
            _accumulate(bucket, score)
        _accumulate(total, score)
    return {
        "scenes": len(scenes),
        "hands": total.hands,
        "fingertips": _tip_block(total),
        "palm": _palm_block(total),
        "orientation_bins": {
            label: {"fingertips": _tip_block(s), "palm": _palm_block(s)}
            for label, s in sorted(bins.items(), key=lambda kv: int(kv[0].split("-")[0]))
        },
    }


def _accumulate(into: SceneScore, part: SceneScore) -> None:
    for f in fields(SceneScore):  # counts add, error lists concatenate
        setattr(into, f.name, getattr(into, f.name) + getattr(part, f.name))


def _mean_max(values: list[float]) -> tuple[float | None, float | None]:
    return (sum(values) / len(values), max(values)) if values else (None, None)


def _tip_block(s: SceneScore) -> dict:
    mean, worst = _mean_max(s.tip_errors_px)
    return {
        "true": s.true_tips,
        "detected": s.detected_tips,
        "matched": s.matched_tips,
        "recall": _rate(s.matched_tips, s.true_tips),
        "precision": _rate(s.matched_tips, s.detected_tips),
        "error_px_mean": mean,
        "error_px_max": worst,
    }


def _palm_block(s: SceneScore) -> dict:
    mean, worst = _mean_max(s.palm_error_fractions)
    return {
        "hands": s.hands,
        "within_tolerance": s.palm_hits,
        "fraction": _rate(s.palm_hits, s.hands),
        "error_fraction_mean": mean,
        "error_fraction_max": worst,
    }
