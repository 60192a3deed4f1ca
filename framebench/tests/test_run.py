"""Statistics, report parsing and the refusal to run outside a checkout."""

import shutil
import subprocess
import sys

import run
from conftest import BENCH
from reference import NOMINAL_S


def test_tail_is_the_highest_rank_with_ten_samples_beyond():
    assert run.tail_rank(60) == 50
    assert run.tail_rank(30) == 20
    assert run.tail_rank(12) == 6  # too few samples: fall back to the median
    nominal = [{"times": [v / 1000.0 for v in range(1, 61)], "refs": [NOMINAL_S] * 60}]
    metrics, record = run.timing_metrics(nominal)
    assert record["tail"] == {"percentile": 83.33, "samples": 60, "beyond": 10}
    assert abs(metrics["frame_ms_tail"] - 50.0) < 1e-9
    assert abs(metrics["frame_ms_p50"] - 30.5) < 1e-9


def test_frame_times_are_rescaled_by_the_reference_and_medianed_over_passes():
    passes = [
        {"times": [0.010, 0.040], "refs": [NOMINAL_S, NOMINAL_S]},
        {"times": [0.020, 0.060], "refs": [2 * NOMINAL_S, 2 * NOMINAL_S]},  # machine at half speed
        {"times": [0.090, 0.020], "refs": [NOMINAL_S, NOMINAL_S]},  # one burst each way
    ]
    metrics, record = run.timing_metrics(passes)
    assert abs(metrics["frames_per_s"] - 2 / (0.010 + 0.030)) < 1e-9
    assert abs(record["wall_frames_per_s_best"] - round(2 / (0.010 + 0.020), 3)) < 1e-9


def test_parse_report_rejects_malformed_lines():
    good = b'{"frame_index":0,"hands":[]}\n'
    assert run.parse_report(good, 0) == {"frame_index": 0, "hands": []}
    assert run.parse_report(good, 1) is None
    assert run.parse_report(b"{not json", 0) is None
    assert run.parse_report(b'{"frame_index":0,"hands":[{"id":"Both"}]}', 0) is None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "framebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "framebench/run.py", "--workload", "qvga_single",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith(b"}")
    assert not (tmp_path / ".framebench").exists()
