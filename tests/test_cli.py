import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import handdepth
from handdepth.cli import main
from handdepth.frame_io import read_pgm, write_overlay, write_pgm, write_raw
from handdepth.pipeline import PipelineConfig, run_pipeline
from handdepth.synthetic import HandSpec, Scene, build_corpus, scene_to_dict


@pytest.fixture()
def scene():
    spec = HandSpec(palm_center=(160.0, 120.0), palm_radius=26, finger_count=4,
                    finger_length=32, finger_width=9, orientation_deg=40,
                    base_depth_cm=85, tip_slope=2)
    return Scene(hands=(spec,), frame_size=(320, 240), background_depth_cm=175)


@pytest.fixture()
def frame_dir(tmp_path, scene):
    frame, _ = scene.render()
    d = tmp_path / "frames"
    d.mkdir()
    (d / "f000.pgm").write_bytes(write_pgm(frame))
    (d / "f001.pgm").write_bytes(write_pgm(frame))
    return d


def test_detect_writes_jsonl_and_overlays(tmp_path, frame_dir):
    report_path = tmp_path / "out.jsonl"
    overlay_dir = tmp_path / "overlays"
    code = main([
        "detect", "--input", str(frame_dir),
        "--out-report", str(report_path),
        "--out-overlay-dir", str(overlay_dir),
    ])
    assert code == 0
    lines = report_path.read_bytes().splitlines()
    assert len(lines) == 2
    docs = [json.loads(line) for line in lines]
    assert [d["frame_index"] for d in docs] == [0, 1]
    assert docs[0]["hands"][0]["id"] == "Single"
    assert len(docs[0]["hands"][0]["fingertips"]) == 4
    assert sorted(p.name for p in overlay_dir.iterdir()) == ["f000.ppm", "f001.ppm"]
    assert (overlay_dir / "f000.ppm").read_bytes().startswith(b"P6\n320 240\n255\n")


def test_detect_overlays_are_write_overlay_bytes_and_no_thread_outlives_it(tmp_path, frame_dir):
    overlay_dir = tmp_path / "overlays"
    threads = threading.active_count()
    assert main(["detect", "--input", str(frame_dir), "--out-report", str(tmp_path / "r.jsonl"),
                 "--out-overlay-dir", str(overlay_dir)]) == 0
    assert threading.active_count() == threads
    paths = sorted(frame_dir.iterdir())
    frames = [read_pgm(p.read_bytes())[0] for p in paths]
    for path, frame, report in zip(paths, frames, run_pipeline(frames, PipelineConfig())):
        assert (overlay_dir / f"{path.stem}.ppm").read_bytes() == write_overlay(frame, report.hands)


def expected_overlays(frame_dir):
    paths = sorted(frame_dir.iterdir())
    frames = [read_pgm(p.read_bytes())[0] for p in paths]
    return {f"{path.stem}.ppm": write_overlay(frame, report.hands)
            for path, frame, report in zip(paths, frames, run_pipeline(frames, PipelineConfig()))}


def detect_overlays(frame_dir, overlay_dir, report):
    return main(["detect", "--input", str(frame_dir), "--out-report", str(report),
                 "--out-overlay-dir", str(overlay_dir)])


@pytest.mark.parametrize("kind", ["longer", "shorter", "symlink", "hard link"])
def test_detect_rewrites_an_existing_overlay(tmp_path, frame_dir, kind):
    want = expected_overlays(frame_dir)
    overlay_dir = tmp_path / "overlays"
    overlay_dir.mkdir()
    overlay = overlay_dir / "f000.ppm"
    other = tmp_path / "other.ppm"  # the symlink's target, or the hard link's other name
    if kind == "longer":
        overlay.write_bytes(b"\xff" * (len(want["f000.ppm"]) + 4096))
    elif kind == "shorter":
        overlay.write_bytes(b"P6\n")
    elif kind == "symlink":
        other.write_bytes(b"old" * 100_000)  # longer than the overlay, so its tail is cut
        overlay.symlink_to(other)
    else:
        other.write_bytes(b"old" * 100_000)
        os.link(other, overlay)
    assert detect_overlays(frame_dir, overlay_dir, tmp_path / "r.jsonl") == 0
    assert {p.name: p.read_bytes() for p in overlay_dir.iterdir()} == want
    assert overlay.is_symlink() == (kind == "symlink")
    if kind in ("symlink", "hard link"):
        assert os.path.samefile(other, overlay)
        assert other.read_bytes() == want["f000.ppm"]


def test_detect_keeps_an_old_overlay_mode_and_gives_a_new_one_the_umask(tmp_path, frame_dir):
    overlay_dir = tmp_path / "overlays"
    overlay_dir.mkdir()
    old = overlay_dir / "f000.ppm"
    old.write_bytes(b"old")
    old.chmod(0o600)
    fresh = tmp_path / "fresh"
    fresh.write_bytes(b"")  # the mode write_bytes gives a new file under this umask
    assert detect_overlays(frame_dir, overlay_dir, tmp_path / "r.jsonl") == 0
    assert old.stat().st_mode & 0o777 == 0o600
    assert (overlay_dir / "f001.ppm").stat().st_mode & 0o777 == fresh.stat().st_mode & 0o777


def test_detect_overlay_symlinked_to_dev_null_exits_0(tmp_path, frame_dir):
    want = expected_overlays(frame_dir)
    overlay_dir = tmp_path / "overlays"
    overlay_dir.mkdir()
    (overlay_dir / "f000.ppm").symlink_to(os.devnull)
    assert detect_overlays(frame_dir, overlay_dir, tmp_path / "r.jsonl") == 0
    assert (overlay_dir / "f001.ppm").read_bytes() == want["f001.ppm"]


def test_detect_never_opens_an_overlay_with_o_trunc(tmp_path, frame_dir, monkeypatch):
    overlay_dir = tmp_path / "overlays"
    opened = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        opened.append((Path(path).name, flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    for _ in range(2):  # the second run finds every overlay in place
        assert detect_overlays(frame_dir, overlay_dir, tmp_path / "r.jsonl") == 0
    overlays = [(name, flags) for name, flags in opened if name.endswith(".ppm")]
    assert sorted(name for name, _ in overlays) == ["f000.ppm", "f000.ppm", "f001.ppm", "f001.ppm"]
    assert not any(flags & os.O_TRUNC for _, flags in overlays)


def test_detect_stops_at_a_failed_overlay_write(tmp_path, frame_dir, capsys):
    frame, _ = read_pgm((frame_dir / "f000.pgm").read_bytes())
    samples = bytearray(frame.samples.astype(">u2").tobytes())
    samples[:2] = b"\x0f\xff"  # frame 2 holds one sample above 2047
    (frame_dir / "f002.pgm").write_bytes(b"P5\n320 240\n4095\n" + samples)
    report = tmp_path / "out.jsonl"
    overlays = tmp_path / "overlays"
    (overlays / "f001.ppm").mkdir(parents=True)  # the write of frame 1's overlay fails
    args = ["detect", "--input", str(frame_dir), "--out-report", str(report),
            "--out-overlay-dir", str(overlays)]
    assert main(args) == 2
    lines = report.read_bytes().splitlines()
    assert [json.loads(line)["frame_index"] for line in lines] == [0, 1]
    assert sorted(p.name for p in overlays.iterdir()) == ["f000.ppm", "f001.ppm"]
    assert (overlays / "f000.ppm").is_file()
    # the failed write is reported after the next frame is read, so its clamp warning shows first
    err = capsys.readouterr().err
    assert "f002.pgm: clamped" in err and err.index("f002.pgm: clamped") < err.index("error:")
    # a corrupt next frame does not hide the failed write: it still exits 2
    (frame_dir / "f002.pgm").write_bytes(b"P5\n4 4\n2047\n\x00\x01")
    assert main(args) == 2
    assert report.read_bytes().splitlines() == lines
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "format error" not in err and "Traceback" not in err


def test_detect_leaves_an_old_report_intact_when_the_overlay_dir_is_a_file(
        tmp_path, frame_dir, capsys):
    report_path = tmp_path / "out.jsonl"
    report_path.write_bytes(b"old report\n")
    blocker = tmp_path / "overlays"
    blocker.write_bytes(b"")
    code = main([
        "detect", "--input", str(frame_dir),
        "--out-report", str(report_path),
        "--out-overlay-dir", str(blocker),
    ])
    assert code == 2
    assert report_path.read_bytes() == b"old report\n"
    assert "Traceback" not in capsys.readouterr().err


def test_detect_stdout(capsys, frame_dir):
    assert main(["detect", "--input", str(frame_dir / "f000.pgm")]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["frame_index"] == 0


def test_detect_r16_requires_dims(tmp_path, scene):
    frame, _ = scene.render()
    raw_path = tmp_path / "frame.r16"
    raw_path.write_bytes(write_raw(frame))
    assert main(["detect", "--input", str(raw_path)]) == 2
    assert main(["detect", "--input", str(raw_path), "--raw-dims", "320x240"]) == 0
    # checked before any frame is decoded or any report written
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "a.pgm").write_bytes(write_pgm(frame))
    (mixed / "b.r16").write_bytes(write_raw(frame))
    report = tmp_path / "out.jsonl"
    assert main(["detect", "--input", str(mixed), "--out-report", str(report)]) == 2
    assert not report.exists()


def test_detect_missing_input(tmp_path):
    assert main(["detect", "--input", str(tmp_path / "nope.pgm")]) == 2


def test_detect_skips_directories_named_like_frames(tmp_path, frame_dir, capsys):
    (frame_dir / "f000x.pgm").mkdir()  # sorts between the two frames
    (frame_dir / "sub.r16").mkdir()  # would ask for --raw-dims if it were a frame
    report = tmp_path / "out.jsonl"
    assert main(["detect", "--input", str(frame_dir), "--out-report", str(report)]) == 0
    assert [json.loads(line)["frame_index"] for line in report.read_bytes().splitlines()] == [0, 1]
    only_dirs = tmp_path / "only_dirs"
    (only_dirs / "sub.pgm").mkdir(parents=True)
    assert main(["detect", "--input", str(only_dirs)]) == 2
    err = capsys.readouterr().err
    assert "no .pgm/.r16 frames" in err and "Traceback" not in err


def test_detect_corrupt_pgm_is_format_error(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n2047\n\x00\x01")  # truncated
    assert main(["detect", "--input", str(bad)]) == 1


def test_detect_reports_frames_before_a_corrupt_one(tmp_path, frame_dir, capsys):
    (frame_dir / "f001.pgm").write_bytes(b"P5\n4 4\n2047\n\x00\x01")  # truncated
    report = tmp_path / "out.jsonl"
    overlays = tmp_path / "overlays"
    code = main([
        "detect", "--input", str(frame_dir),
        "--out-report", str(report), "--out-overlay-dir", str(overlays),
    ])
    assert code == 1
    (line,) = report.read_bytes().splitlines()
    assert json.loads(line)["frame_index"] == 0
    assert [p.name for p in overlays.iterdir()] == ["f000.ppm"]
    err = capsys.readouterr().err
    assert err.startswith("format error:")
    assert "Traceback" not in err


def test_detect_rejects_unknown_config_key(tmp_path, frame_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"band_cm": 12, "wavelength": 7}))
    assert main(["detect", "--input", str(frame_dir), "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "calibration", [{"h": "abc"}, {"raw_valid_max": "x"}, {"h": None}, {"l": -1.6},
                    {"k": True, "o": False}, {"l": False}, {"o": True}]
)
def test_detect_and_bench_reject_mistyped_calibration(tmp_path, frame_dir, capsys, calibration):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"calibration": calibration}))
    assert main(["detect", "--input", str(frame_dir), "--config", str(cfg)]) == 2
    assert main(["bench", "--generate", "1", "--config", str(cfg)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ['{"max_hands": 1.0}', '{"band_cm": NaN}', '{"slab_cm": NaN}',
             '{"min_finger_area": NaN}', '{"band_cm": Infinity}', '{"radius_factor": "0.7"}',
             '{"min_area": true}']
)
def test_detect_and_bench_reject_malformed_numbers(tmp_path, frame_dir, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["detect", "--input", str(frame_dir), "--config", str(cfg)]) == 2
    assert main(["bench", "--generate", "1", "--config", str(cfg)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_detect_accepts_config(tmp_path, frame_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "band_cm": 16.0,
        "calibration": {"h": 3.5e-4, "k": 12.36, "l": 1.18, "o": 3.7, "raw_valid_max": 1100},
    }))
    report = tmp_path / "r.jsonl"
    assert main(["detect", "--input", str(frame_dir), "--config", str(cfg),
                 "--out-report", str(report)]) == 0
    assert report.exists()


@pytest.mark.parametrize("h", [1e-300, 5e-324])
def test_tiny_h_detects_and_bench_exits_2(tmp_path, frame_dir, h):
    # a child process with a timeout, so a hang fails the test instead of stalling the suite
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"calibration": {"h": h}}))
    env = {**os.environ, "PYTHONPATH": str(Path(handdepth.__file__).parents[1])}
    for args, code in ((["detect", "--input", str(frame_dir)], 0), (["bench", "--generate", "1"], 2)):
        done = subprocess.run([sys.executable, "-m", "handdepth.cli", *args, "--config", str(cfg)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == code and "Traceback" not in done.stderr


def test_import_loads_only_the_detector():
    code = ("import sys, handdepth; "
            "print(sorted(m for m in ('handdepth.synthetic', 'handdepth.benchmark', 'handdepth.cli')"
            " if m in sys.modules)); "
            "print([n for n in ('PipelineConfig', 'read_pgm', 'run_pipeline', 'write_report')"
            " if not hasattr(handdepth, n)]); "
            # the cli, as detect runs it, loads neither the renderer nor the scorer either
            "import handdepth.cli; "
            "print([m for m in ('handdepth.synthetic', 'handdepth.benchmark') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(handdepth.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]", "[]"]


def test_synth_scene_file_round_trip(tmp_path, scene):
    scene_file = tmp_path / "scenes.json"
    scene_file.write_text(json.dumps({"scenes": [scene_to_dict(scene)]}))
    out_dir = tmp_path / "rendered"
    assert main(["synth", "--scenes", str(scene_file), "--out-dir", str(out_dir)]) == 0
    frame, _ = read_pgm((out_dir / "scene_0000.pgm").read_bytes())
    expected, truths = scene.render()
    assert frame == expected
    manifest = json.loads((out_dir / "ground_truth.json").read_text())
    assert manifest[0]["hands"][0]["palm_center"] == list(truths[0].palm_center)
    assert len(manifest[0]["hands"][0]["fingertips"]) == 4


def test_synth_generate_corpus(tmp_path):
    out_scenes = tmp_path / "corpus.json"
    assert main(["synth", "--generate", "3", "--seed", "9",
                 "--out-scenes", str(out_scenes)]) == 0
    doc = json.loads(out_scenes.read_text())
    assert len(doc["scenes"]) == 3
    # the written corpus is itself loadable
    out_dir = tmp_path / "frames"
    assert main(["synth", "--scenes", str(out_scenes), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "scene_0002.pgm").exists()


def test_synth_needs_some_output(tmp_path):
    assert main(["synth", "--generate", "1"]) == 2


def test_synth_checks_its_outputs_before_its_scenes(tmp_path, monkeypatch, capsys):
    built = []
    monkeypatch.setattr("handdepth.synthetic.build_corpus", lambda *a, **k: built.append(a))
    assert main(["synth", "--generate", "20000"]) == 2
    assert built == []  # the missing output is found before any scene is made
    assert main(["synth", "--scenes", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("synth needs --out-dir or --out-scenes") == 2
    assert "scene file" not in err and "Traceback" not in err


def test_bench_metrics(tmp_path):
    out = tmp_path / "metrics.json"
    assert main(["bench", "--generate", "5", "--seed", "21", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["scenes"] == 5
    assert doc["fingertips"]["recall"] == 1.0
    assert doc["palm"]["fraction"] == 1.0
    assert doc["orientation_bins"]


def test_bench_bad_scene_file(tmp_path, capsys):
    bad = tmp_path / "scenes.json"
    for entry in ({"hands": [], "sensor": "x"}, [], {"hands": [], "frame_size": "x"},
                  {"hands": [], "frame_size": [320, 0]}):
        bad.write_text(json.dumps({"scenes": [entry]}))
        assert main(["bench", "--scenes", str(bad)]) == 2
        assert main(["synth", "--scenes", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    for scenes in (5, None, {"a": 1}, {}):  # "scenes" must be an array
        bad.write_text(json.dumps({"scenes": scenes}))
        assert main(["bench", "--scenes", str(bad)]) == 2
        assert main(["synth", "--scenes", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # rejected before anything is allocated: rendering it would need ~10**20 bytes
    bad.write_text(json.dumps({"scenes": [{"hands": [], "frame_size": [1000000000, 1000000000]}]}))
    for args in (["bench"], ["synth", "--out-dir", str(tmp_path / "out")]):
        assert main([*args, "--scenes", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("error:") == 1


def test_non_finite_scene_numbers_exit_2(tmp_path, scene, capsys):
    # Python's json writes and reads the NaN and Infinity literals, which strict JSON forbids
    hand = scene_to_dict(scene)["hands"][0]
    scenes_file, out = tmp_path / "scenes.json", tmp_path / "o.json"
    for name, value in (("palm_radius", float("nan")), ("tip_slope", float("inf")),
                        ("palm_center", [float("nan"), 120.0])):
        entry = {**scene_to_dict(scene), "hands": [{**hand, name: value}]}
        scenes_file.write_text(json.dumps({"scenes": [entry]}))
        assert main(["synth", "--scenes", str(scenes_file), "--out-scenes", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and name in err and "Traceback" not in err
    assert not out.exists()


def test_convert_round_trip(tmp_path, scene):
    frame, _ = scene.render()
    src = tmp_path / "frame.pgm"
    src.write_bytes(write_pgm(frame))
    r16 = tmp_path / "frame.r16"
    assert main(["convert", "--input", str(src), "--output", str(r16)]) == 0
    back = tmp_path / "back.pgm"
    assert main(["convert", "--input", str(r16), "--raw-dims", "320x240",
                 "--output", str(back)]) == 0
    assert back.read_bytes() == src.read_bytes()
    ppm = tmp_path / "view.ppm"
    assert main(["convert", "--input", str(src), "--output", str(ppm)]) == 0
    assert ppm.read_bytes().startswith(b"P6\n320 240\n255\n")


def test_convert_unknown_target(tmp_path, scene):
    frame, _ = scene.render()
    src = tmp_path / "frame.pgm"
    src.write_bytes(write_pgm(frame))
    assert main(["convert", "--input", str(src), "--output", str(tmp_path / "x.png")]) == 2


def test_bad_raw_dims_argument(tmp_path, capsys):
    src = tmp_path / "frame.r16"
    src.write_bytes(b"\x00\x00")
    dst = tmp_path / "frame.pgm"
    for dims in (["--raw-dims", "banana"], ["--raw-dims", "0x240"], ["--raw-dims", "320x0"],
                 ["--raw-dims=-3x4"]):
        assert main(["detect", "--input", str(src), *dims]) == 2
        assert main(["convert", "--input", str(src), *dims, "--output", str(dst)]) == 2
    assert not dst.exists()
    assert "Traceback" not in capsys.readouterr().err


def test_workers_option_and_config_key_are_rejected(tmp_path, frame_dir, capsys):
    assert main(["detect", "--input", str(frame_dir), "--workers", "2"]) == 2
    assert main(["detect", "--input", str(frame_dir), "--max-hands", "1"]) == 2
    cfg = tmp_path / "cfg.json"
    for removed in ({"workers": 2}, {"radius_factor": 0.7}, {"min_finger_area": None}):
        cfg.write_text(json.dumps(removed))
        assert main(["detect", "--input", str(frame_dir), "--config", str(cfg)]) == 2
        assert main(["bench", "--generate", "1", "--config", str(cfg)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_out_of_range_dropout_and_three_hand_scenes_exit_2(tmp_path, scene, capsys):
    out = tmp_path / "out"
    for dropout in ("5", "-0.5", "1", "1.5", "nan"):
        assert main(["synth", "--generate", "2", "--dropout", dropout, "--out-dir", str(out)]) == 2
        assert main(["bench", "--generate", "1", "--dropout", dropout]) == 2
    base = scene_to_dict(scene)
    scenes_file = tmp_path / "scenes.json"
    near_background = base["hands"][0]["base_depth_cm"] + 10
    for entry in ({**base, "dropout_rate": 3.0}, {**base, "dropout_rate": -0.1},
                  {**base, "dropout_rate": 1.0}, {**base, "hands": base["hands"] * 3},
                  {**base, "background_depth_cm": near_background},
                  {**base, "background_depth_cm": float("nan")},
                  {**base, "hands": [{**base["hands"][0], "base_depth_cm": float("nan")}]},
                  {**base, "hands": [{**base["hands"][0], "finger_count": 2,
                                      "finger_length": "45", "finger_width": "56"}]},
                  {**base, "hands": [{**base["hands"][0], "palm_center": "ab"}]},
                  {**base, "hands": [{**base["hands"][0], "palm_center": [100, 100, 5]}]},
                  {**base, "noise_seed": -1, "dropout_rate": 0.05}, {**base, "noise_seed": 1.7},
                  {**base, "noise_seed": True}, {**base, "dropout_rate": "0.05"},
                  {**base, "dropout_rate": False}, {**base, "background_depth_cm": " 250 "},
                  {**base, "background_depth_cm": True},
                  {**base, "hands": [{**base["hands"][0], "finger_count": True,
                                      "finger_length": 32, "finger_width": 9}]}):
        scenes_file.write_text(json.dumps({"scenes": [entry]}))
        assert main(["synth", "--scenes", str(scenes_file), "--out-dir", str(out)]) == 2
        assert main(["bench", "--scenes", str(scenes_file)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "dropout" in err and "two hands" in err and "50 cm behind" in err
    assert "Traceback" not in err


def test_generate_needs_a_positive_count(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    for n in ("0", "-1", "-3"):
        assert main(["bench", "--generate", n]) == 2
        assert main(["synth", "--generate", n, "--out-scenes", str(corpus)]) == 2
    assert main(["bench", "--generate", "1", "--seed", "-1"]) == 2
    assert main(["synth", "--generate", "1", "--seed", "-1", "--out-scenes", str(corpus)]) == 2
    assert not corpus.exists()
    err = capsys.readouterr().err
    assert "--generate needs N >= 1" in err and "--seed must be >= 0" in err
    assert "Traceback" not in err


def test_scenes_and_generate_together_exit_2(tmp_path, scene, capsys):
    scenes = tmp_path / "two.json"
    scenes.write_text(json.dumps({"scenes": [scene_to_dict(scene)] * 2}))
    out = tmp_path / "out.json"
    assert main(["synth", "--scenes", str(scenes), "--generate", "5", "--out-scenes", str(out)]) == 2
    assert main(["bench", "--scenes", str(scenes), "--generate", "5", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("not allowed with argument --scenes") == 2 and "Traceback" not in err

def test_bench_generates_200_scenes_by_default(monkeypatch):
    sizes = []

    def small_corpus(n_scenes, **kwargs):
        sizes.append(n_scenes)
        return build_corpus(1, **kwargs)

    monkeypatch.setattr("handdepth.synthetic.build_corpus", small_corpus)
    assert main(["bench"]) == 0
    assert main(["bench", "--generate", "1"]) == 0
    assert sizes == [200, 1]
