"""Seeded input generators for the three benchmark workloads.

Each generator takes the workload seed and returns streams of
``(DepthFrame, [(hand_index, GroundTruth), ...])`` pairs, listing the
hands in view by a stable physical index.  A stream is an ordered
sequence the detector sees through one ``run_pipeline`` call (one
tracker lifetime).  The program under test only ever receives the
rendered frames; ground truth stays with the benchmark for scoring.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from handdepth.frame_io import write_pgm
from handdepth.synthetic import GroundTruth, build_corpus, random_hand_spec, render_scene

QVGA = (320, 240)
VGA = (640, 480)
DROPOUT = 0.02

# Frames per pass.  Sized so one pass takes 2-3 s on a 2-core x86 box:
# a 30 s measurement then times every frame 10-15 times, spread over the
# whole run, and keeps its best time (see README.md).
QVGA_FRAMES = 60
CLI_FRAMES = 60
VGA_SEQUENCES = 5
VGA_SEQUENCE_LENGTH = 6

# Two-hand geometry.  A random_hand_spec hand reaches at most
# 34 * (1 + 1.4 + 0.21) < 89 px from its palm center, so palm centers at
# least 180 px apart vertically can never touch, whatever their x.
UPPER_BAND_MAX_Y = 150
LOWER_BAND_MIN_Y = 330
MAX_GAP = 3  # frames a hand may leave the view; below the default max_misses (5)
# Each hand travels at most 2 * CROSS_HALF_SPAN px, so it moves at most
# 60 px per frame: even after a MAX_GAP gap the nearest-track assignment
# (4 * 60)^2 + 60^2 stays below the swapped one, at least 2 * 180^2.
CROSS_HALF_SPAN = 150

def qvga_single(seed: int, frames: int = QVGA_FRAMES) -> list[list[tuple]]:
    """One stream of independent single-hand 320x240 frames (the acceptance corpus law)."""
    scenes = build_corpus(frames, seed=seed, frame_size=QVGA, dropout_rate=DROPOUT)
    stream = []
    for scene in scenes:
        frame, truths = scene.render()
        stream.append((frame, list(enumerate(truths))))
    return [stream]


def cli_stream(seed: int, frames: int = CLI_FRAMES) -> list[list[tuple]]:
    """Same law as qvga_single; the frames travel through the CLI as PGM files."""
    return qvga_single(seed, frames)


def two_hand_paths(seed: int, sequences: int = VGA_SEQUENCES,
                   length: int = VGA_SEQUENCE_LENGTH) -> list[dict]:
    """Per sequence: the two hand specs, their straight paths, and the gap.

    Hand ``a`` sits in the upper band and moves left to right; hand ``b``
    sits in the lower band and moves right to left, both through a
    common middle column, so the two cross in x.  Their base depths
    differ by at most 4 cm (inside the 20 cm seed slab).  One hand
    leaves the view for 1..MAX_GAP frames somewhere after the pair is
    born.
    """
    rng = np.random.default_rng(seed)
    width, height = VGA
    plans = []
    for _ in range(sequences):
        depth = float(rng.uniform(62.0, 146.0))
        a = random_hand_spec(rng, VGA, depth, center_box=(0, 0, width - 1, UPPER_BAND_MAX_Y))
        b = random_hand_spec(rng, VGA, depth + float(rng.uniform(-4.0, 4.0)),
                             center_box=(0, LOWER_BAND_MIN_Y, width - 1, height - 1))
        middle = width / 2 + float(rng.uniform(-40.0, 40.0))
        paths = []
        for spec, direction in ((a, 1.0), (b, -1.0)):
            back, ahead = rng.uniform(0.6, 1.0, size=2) * CROSS_HALF_SPAN
            y = spec.palm_center[1]
            paths.append(((middle - direction * back, y), (middle + direction * ahead, y)))
        gap_len = int(rng.integers(1, MAX_GAP + 1))
        gap_start = int(rng.integers(2, length - gap_len))
        plans.append({
            "specs": (a, b),
            "paths": paths,
            "gap_hand": int(rng.integers(0, 2)),
            "gap": (gap_start, gap_start + gap_len),
            "background_cm": max(a.base_depth_cm, b.base_depth_cm) + float(rng.uniform(60, 90)),
            "noise_seeds": [int(s) for s in rng.integers(0, 2**32, size=length)],
        })
    return plans


def _position(path, t: float) -> tuple[float, float]:
    (x0, y0), (x1, y1) = path
    return (x0 + (x1 - x0) * t, y0 + (y1 - y0) * t)


def vga_two_hand(seed: int, sequences: int = VGA_SEQUENCES,
                 length: int = VGA_SEQUENCE_LENGTH) -> list[list[tuple]]:
    """Two-hand 640x480 sequences: crossing straight paths with short gaps.

    Hand 0 is the upper-band hand and hand 1 the lower-band one in every
    frame, so identity continuity can be scored.
    """
    streams = []
    for plan in two_hand_paths(seed, sequences, length):
        stream = []
        for i in range(length):
            t = i / (length - 1)
            visible = [h for h in (0, 1)
                       if not (h == plan["gap_hand"] and plan["gap"][0] <= i < plan["gap"][1])]
            specs = [dataclasses.replace(plan["specs"][h], palm_center=_position(plan["paths"][h], t))
                     for h in visible]
            frame, truths = render_scene(specs, VGA, plan["background_cm"],
                                         noise_seed=plan["noise_seeds"][i], dropout_rate=DROPOUT)
            stream.append((frame, list(zip(visible, truths))))
        streams.append(stream)
    return streams


GENERATORS = {"qvga_single": qvga_single, "vga_two_hand": vga_two_hand, "cli_stream": cli_stream}


def _truth_json(truth: GroundTruth, hand: int) -> dict:
    return {
        "hand": hand,
        "palm_center": list(truth.palm_center),
        "palm_radius": truth.palm_radius,
        "fingertips": [list(p) for p in truth.fingertips],
        "finger_widths": list(truth.finger_widths),
    }


def truth_from_json(doc: dict) -> tuple[int, GroundTruth]:
    return doc["hand"], GroundTruth(
        palm_center=tuple(doc["palm_center"]),
        palm_radius=doc["palm_radius"],
        fingertips=[tuple(p) for p in doc["fingertips"]],
        support=None,
        finger_widths=tuple(doc["finger_widths"]),
    )


def materialize(workload: str, seed: int, out_dir: Path) -> dict:
    """Render a workload's frames as PGM files under ``out_dir``.

    Returns the manifest: per stream, the frame paths and their ground
    truth.  Frame files are named so that a sorted directory listing is
    the stream order (the CLI reads them that way).
    """
    streams = GENERATORS[workload](seed)
    manifest = {"workload": workload, "seed": seed, "streams": []}
    for s, stream in enumerate(streams):
        stream_dir = out_dir / f"stream_{s:03d}"
        stream_dir.mkdir(parents=True)
        entries = []
        for i, (frame, truths) in enumerate(stream):
            path = stream_dir / f"frame_{i:05d}.pgm"
            path.write_bytes(write_pgm(frame))
            entries.append({"path": str(path), "truths": [_truth_json(t, h) for h, t in truths]})
        manifest["streams"].append(entries)
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    return manifest


if __name__ == "__main__":
    # Usage: python workloads.py WORKLOAD SEED OUT_DIR  (writes OUT_DIR/manifest.json)
    materialize(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
