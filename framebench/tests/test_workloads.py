"""Workload generators: deterministic per seed, distinct across seeds, valid geometry."""

import numpy as np
import pytest

import workloads
from handdepth.errors import GeometryError
from handdepth.pipeline import PipelineConfig


def _samples(streams):
    return [frame.samples for stream in streams for frame, _truths in stream]


SMALL = {
    "qvga_single": lambda seed: workloads.qvga_single(seed, frames=4),
    "cli_stream": lambda seed: workloads.cli_stream(seed, frames=4),
    "vga_two_hand": lambda seed: workloads.vga_two_hand(seed, sequences=2, length=6),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(name):
    first, again, other = SMALL[name](3), SMALL[name](3), SMALL[name](4)
    assert all(np.array_equal(a, b) for a, b in zip(_samples(first), _samples(again), strict=True))
    assert not all(np.array_equal(a, b) for a, b in zip(_samples(first), _samples(other)))


def test_generators_cover_every_workload():
    assert set(workloads.GENERATORS) == {"qvga_single", "vga_two_hand", "cli_stream"}


def _reach(spec) -> float:
    """Largest distance from the palm center any part of the hand can cover."""
    return spec.palm_radius + max(
        (length + width / 2 for length, width in zip(spec.finger_length, spec.finger_width)),
        default=0.0,
    )


@pytest.mark.parametrize("seed", range(40))
def test_two_hand_paths_cross_stay_in_frame_and_cannot_touch(seed):
    width, _height = workloads.VGA
    for plan in workloads.two_hand_paths(seed):
        (a_start, a_y), (a_end, _) = plan["paths"][0]
        (b_start, b_y), (b_end, _) = plan["paths"][1]
        assert a_start < b_start and a_end > b_end  # the hands swap x order
        a, b = plan["specs"]
        assert b_y - a_y > _reach(a) + _reach(b)
        for spec, path in zip((a, b), plan["paths"]):
            for x, _y in path:
                assert _reach(spec) <= x <= width - 1 - _reach(spec)
        assert abs(a.base_depth_cm - b.base_depth_cm) <= 4.0
        gap_start, gap_end = plan["gap"]
        assert 1 <= gap_end - gap_start < PipelineConfig().max_misses
        assert gap_start >= 2 and gap_end < workloads.VGA_SEQUENCE_LENGTH


@pytest.mark.parametrize("seed", [0, 1])
def test_two_hand_sequences_render_without_overlap(seed):
    try:
        streams = workloads.vga_two_hand(seed)
    except GeometryError as exc:  # overlap or leaving the frame
        pytest.fail(f"seed {seed}: {exc}")
    for stream in streams:
        counts = [len(truths) for _frame, truths in stream]
        assert counts[0] == 2 and counts[-1] == 2 and 1 in counts


def test_materialize_writes_frames_in_stream_order(tmp_path):
    manifest = workloads.materialize("vga_two_hand", 5, tmp_path)
    assert len(manifest["streams"]) == workloads.VGA_SEQUENCES
    for stream in manifest["streams"]:
        paths = [entry["path"] for entry in stream]
        assert paths == sorted(paths)
    _hand, truth = workloads.truth_from_json(manifest["streams"][0][0]["truths"][0])
    assert truth.palm_radius >= 20
