"""In-process closed-loop measurement, run as the benchmark's child process.

One caller feeds frames one at a time: PGM bytes -> read_pgm ->
run_pipeline -> write_report, each frame's report finished before the
next frame's bytes are taken.  Between frames, outside their timers, the
reference kernel measures the machine's current speed.  A pass runs
every stream of the manifest through its own run_pipeline call.  Passes
repeat until the time budget is spent; with --trace 1 plain and traced
passes alternate, so tracing overhead is measured on the same frames
under the same machine state.

Usage: python measure.py MANIFEST RESULT_JSON REPORT_JSONL SECONDS TRACE
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import handdepth.frame_io as frame_io
import handdepth.pipeline as pipeline
from handdepth.pipeline import PipelineConfig

import reference
from tracer import Tracer

WARMUP_FRAMES = 5
MIN_PASSES = 3  # per kind; each frame's median over passes needs a few samples


def run_pass(streams: list[list[Path]], config: PipelineConfig, tracer: Tracer | None):
    """One pass over all streams.

    Returns per-frame seconds, the reference kernel's seconds around each
    frame (mean of the runs just before and just after), report lines,
    and the number of frames that failed.
    """
    times: list[float] = []
    refs: list[float] = []
    lines: list[bytes] = []
    failed = 0
    for paths in streams:
        starts: list[float] = []
        done = 0
        ref_before = reference.timed()

        def frames():
            for path in paths:
                data = path.read_bytes()
                starts.append(tracer.begin() if tracer else time.perf_counter())
                frame, _clamped = frame_io.read_pgm(data)
                yield frame

        try:
            for report in pipeline.run_pipeline(frames(), config):
                line = frame_io.write_report(report)
                if tracer:
                    times.append(tracer.end("bench.frame", starts[-1]))
                else:
                    times.append(time.perf_counter() - starts[-1])
                ref_after = reference.timed()
                refs.append((ref_before + ref_after) / 2)
                ref_before = ref_after
                lines.append(line)
                done += 1
        except Exception as exc:  # a raising frame fails; the rest of its stream is missing
            print(f"stream failed after {done} frames: {type(exc).__name__}: {exc}", file=sys.stderr)
            if tracer:
                tracer.reset()
        failed += len(paths) - done
    return times, refs, lines, failed


def main(argv: list[str]) -> int:
    manifest_path, result_path, report_path, seconds, trace = argv
    manifest = json.loads(Path(manifest_path).read_text())
    streams = [[Path(e["path"]) for e in stream] for stream in manifest["streams"]]
    config = PipelineConfig()
    traced = trace == "1"
    tracer = Tracer() if traced else None

    run_pass([streams[0][:WARMUP_FRAMES]], config, None)

    kinds = ["plain", "traced"] if traced else ["plain"]
    passes = []
    budget = float(seconds)
    start = time.perf_counter()
    while True:
        done = {k: sum(p["kind"] == k for p in passes) for k in kinds}
        if time.perf_counter() - start >= budget and min(done.values()) >= MIN_PASSES:
            break
        kind = kinds[len(passes) % len(kinds)]
        if kind == "traced":
            tracer.reset()
            tracer.install()
            try:
                times, refs, lines, failed = run_pass(streams, config, tracer)
            finally:
                tracer.uninstall()
            trace_doc = tracer.reset().to_json()
        else:
            times, refs, lines, failed = run_pass(streams, config, None)
            trace_doc = None
        body = b"".join(line + b"\n" for line in lines)
        if not passes:
            Path(report_path).write_bytes(body)
        passes.append({
            "kind": kind,
            "times": times,
            "refs": refs,
            "failed": failed,
            "sha256": hashlib.sha256(body).hexdigest(),
            "trace": trace_doc,
        })
    result = {
        "passes": passes,
        "elapsed_s": time.perf_counter() - start,
        "missing_bindings": tracer.missing if tracer else [],
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
