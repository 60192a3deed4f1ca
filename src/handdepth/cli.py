"""Command-line entry point: detect, synth, bench, and convert subcommands.

Exit codes: 0 on success, 1 for malformed inputs (FormatError), 2 for
configuration problems (bad config file, bad scene file, bad arguments).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from pathlib import Path

from .benchmark import run_benchmark
from .errors import ConfigError, FormatError, HandDepthError
from .frame_io import (
    DepthFrame,
    read_pgm,
    read_raw,
    write_overlay,
    write_pgm,
    write_raw,
    write_report,
)
from .pipeline import PipelineConfig, config_from_dict, run_pipeline
from .synthetic import Scene, build_corpus, scene_from_dict, scene_to_dict

FRAME_SUFFIXES = (".pgm", ".r16")


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        w, h = int(w), int(h)
    except ValueError as exc:
        raise ConfigError(f"--raw-dims must look like 320x240, got {text!r}") from exc
    if w < 1 or h < 1:
        raise ConfigError(f"--raw-dims needs both dimensions >= 1, got {text!r}")
    return w, h


def _load_config(path: str | None) -> PipelineConfig:
    data = {}
    if path:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def _read_frame(path: Path, raw_dims: tuple[int, int] | None) -> DepthFrame:
    data = path.read_bytes()
    if path.suffix == ".r16":
        if raw_dims is None:
            raise ConfigError("--raw-dims is required for .r16 input")
        return read_raw(data, *raw_dims)
    frame, clamped = read_pgm(data)
    if clamped:
        print(f"{path}: clamped {clamped} samples to the sentinel", file=sys.stderr)
    return frame


def _input_frames(
    input_path: str, raw_dims: tuple[int, int] | None
) -> Iterator[tuple[str, DepthFrame]]:
    """Check the input now; decode its frames one file at a time as they are pulled."""
    root = Path(input_path)
    if root.is_dir():
        paths = sorted(p for p in root.iterdir() if p.suffix in FRAME_SUFFIXES)
        if not paths:
            raise ConfigError(f"no .pgm/.r16 frames under {root}")
    else:
        if not root.exists():
            raise ConfigError(f"input {root} does not exist")
        paths = [root]
    if raw_dims is None and any(p.suffix == ".r16" for p in paths):
        raise ConfigError("--raw-dims is required for .r16 input")
    return ((p.stem, _read_frame(p, raw_dims)) for p in paths)


def _cmd_detect(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    named, to_pipeline = itertools.tee(_input_frames(args.input, args.raw_dims))
    reports = run_pipeline((frame for _, frame in to_pipeline), config)

    # The overlay directory comes first: a failure here leaves an old report intact.
    overlay_dir = Path(args.out_overlay_dir) if args.out_overlay_dir else None
    if overlay_dir:
        overlay_dir.mkdir(parents=True, exist_ok=True)
    with open(args.out_report, "wb") if args.out_report else nullcontext(sys.stdout.buffer) as out:
        for (name, frame), report in zip(named, reports):
            out.write(write_report(report) + b"\n")
            if overlay_dir:
                (overlay_dir / f"{name}.ppm").write_bytes(
                    write_overlay(frame, report.hands)
                )
    return 0


def _load_scenes(path: str) -> list[Scene]:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scene file {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("scenes"), list):
        raise ConfigError('scene file must be an object with a "scenes" array')
    return [scene_from_dict(s) for s in data["scenes"]]


def _generate_corpus(n_scenes: int, args: argparse.Namespace) -> list[Scene]:
    if n_scenes < 1:
        raise ConfigError(f"--generate needs N >= 1, got {n_scenes}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    return build_corpus(n_scenes, seed=args.seed, dropout_rate=args.dropout)


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.generate is not None:
        scenes = _generate_corpus(args.generate, args)
    elif args.scenes:
        scenes = _load_scenes(args.scenes)
    else:
        raise ConfigError("synth needs --scenes or --generate")

    if args.out_scenes:
        doc = {"scenes": [scene_to_dict(s) for s in scenes]}
        Path(args.out_scenes).write_text(json.dumps(doc, indent=2) + "\n")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        manifest = []
        for i, scene in enumerate(scenes):
            frame, truths = scene.render()
            (out / f"scene_{i:04d}.pgm").write_bytes(write_pgm(frame))
            manifest.append(
                {
                    "frame": f"scene_{i:04d}.pgm",
                    "hands": [
                        {
                            "palm_center": list(t.palm_center),
                            "palm_radius": t.palm_radius,
                            "fingertips": [list(p) for p in t.fingertips],
                            "finger_widths": list(t.finger_widths),
                        }
                        for t in truths
                    ],
                }
            )
        (out / "ground_truth.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if not args.out_scenes and not args.out_dir:
        raise ConfigError("synth needs --out-dir or --out-scenes")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if args.scenes:
        scenes = _load_scenes(args.scenes)
    else:
        scenes = _generate_corpus(200 if args.generate is None else args.generate, args)
    metrics = run_benchmark(scenes, config)
    text = json.dumps(metrics, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    src = Path(args.input)
    frame = _read_frame(src, args.raw_dims)
    dst = Path(args.output)
    if dst.suffix == ".pgm":
        dst.write_bytes(write_pgm(frame))
    elif dst.suffix == ".r16":
        dst.write_bytes(write_raw(frame))
    elif dst.suffix == ".ppm":
        dst.write_bytes(write_overlay(frame, []))
    else:
        raise ConfigError(f"cannot convert to {dst.suffix!r} (want .pgm, .r16, or .ppm)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handdepth",
        description="Fingertip and palm-center detection on raw depth frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="run the pipeline over frames")
    detect.add_argument("--input", required=True, help="frame file or directory")
    detect.add_argument("--raw-dims", type=_parse_dims, default=None, metavar="WxH")
    detect.add_argument("--config", default=None, help="pipeline config JSON")
    detect.add_argument("--out-report", default=None, help="JSONL report path (default stdout)")
    detect.add_argument("--out-overlay-dir", default=None, help="write PPM overlays here")
    detect.set_defaults(func=_cmd_detect)

    synth = sub.add_parser("synth", help="render synthetic scenes with ground truth")
    synth.add_argument("--scenes", default=None, help="scene description JSON")
    synth.add_argument("--generate", type=int, default=None, metavar="N",
                       help="generate a random N-scene corpus instead")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--dropout", type=float, default=0.02)
    synth.add_argument("--out-dir", default=None, help="write frames + ground truth here")
    synth.add_argument("--out-scenes", default=None, help="write the scene JSON here")
    synth.set_defaults(func=_cmd_synth)

    bench = sub.add_parser("bench", help="score the detector on a synthetic corpus")
    bench.add_argument("--scenes", default=None, help="scene description JSON")
    bench.add_argument("--generate", type=int, default=None, metavar="N")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--dropout", type=float, default=0.02)
    bench.add_argument("--config", default=None)
    bench.add_argument("--out", default=None, help="metrics JSON path (default stdout)")
    bench.set_defaults(func=_cmd_bench)

    convert = sub.add_parser("convert", help="convert between pgm/r16/overlay ppm")
    convert.add_argument("--input", required=True)
    convert.add_argument("--raw-dims", type=_parse_dims, default=None, metavar="WxH")
    convert.add_argument("--output", required=True)
    convert.set_defaults(func=_cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse errors (exit 2) and --help (exit 0)
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 1
    except (HandDepthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
