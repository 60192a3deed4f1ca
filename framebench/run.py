"""Frame-to-report benchmark for handdepth.

Run from the root of a checkout:

    python3 framebench/run.py --workload qvga_single --seed 1 --seconds 30 --trace 0
    python3 framebench/run.py --workload all

Workloads (see README.md for why each was chosen):

- qvga_single: 320x240 single-hand frames, in process:
  PGM bytes -> read_pgm -> run_pipeline -> write_report.
- vga_two_hand: 640x480 two-hand sequences (crossing paths, short gaps),
  same in-process path.
- cli_stream: ``python -m handdepth.cli detect`` as a child process over a
  directory of 320x240 PGM frames, writing PPM overlays.

One caller drives the program in a closed loop.  Every timed frame runs
in several passes.  Each frame time is rescaled by the speed a fixed
reference kernel had next to it, which cancels the slowdowns a shared
machine shows, and the median over passes is kept (see README.md).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` prints the per-layer
metrics of a traced run that alternates with untraced passes.  The last
line of stdout is one JSON object; the exit code is non-zero when an
output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".framebench"

SETUP_PROBES = 7
MIN_CLI_PASSES = 3  # per kind
REFERENCE_REPS = 9  # kernel calls per machine-speed reading in this process
CHILD_TIMEOUT_S = 150.0
TAIL_BEYOND = 10

# name -> (unit, better); bounds live in BENCHMARK.json
END_TO_END = {
    "frames_per_s": ("1/s", "higher"),
    "frame_ms_p50": ("ms", "lower"),
    "frame_ms_tail": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "tip_recall": ("ratio", "higher"),
    "tip_precision": ("ratio", "higher"),
    "palm_hit_rate": ("ratio", "higher"),
    "id_continuity": ("ratio", "higher"),
    "frame_ok_share": ("ratio", "higher"),
}

WORKLOADS = ("qvga_single", "vga_two_hand", "cli_stream")

# The paper's acceptance floors, checked on qvga_single.
FLOORS = {"tip_recall": 0.99, "tip_precision": 0.99, "palm_hit_rate": 0.90}


# -- child processes ---------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run a child to completion, timestamping each stdout line as it arrives.

    Returns wall seconds, exit code, peak RSS in MB (from wait4), and the
    lines with their arrival times relative to the spawn.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    lines, arrivals = [], []
    try:
        for line in proc.stdout:
            arrivals.append(time.perf_counter() - start)
            lines.append(line)
        proc.stdout.close()
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "code": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "lines": lines,
        "arrivals": arrivals,
    }


def machine_speed() -> float:
    """Reference kernel seconds now (median of REFERENCE_REPS calls).

    Importing numpy here raises this process's RSS high-water mark to
    about 30 MB, which children then start from; call it only after the
    in-process measurement, and for the CLI, whose children exceed it.
    """
    import reference

    return statistics.median(reference.timed() for _ in range(REFERENCE_REPS))


def setup_time(cmd: list[str], expected_line: bytes,
               out_file: Path | None = None) -> tuple[float, float, bool]:
    """Median rescaled and raw wall times of SETUP_PROBES cold starts.

    Each probe's wall time is rescaled by the reference kernel timed just
    before it.  Also checks that every probe reported the first frame.
    """
    from reference import NOMINAL_S

    scaled, walls, ok = [], [], True
    for _ in range(SETUP_PROBES):
        speed = machine_speed()
        res = run_child(cmd)
        walls.append(res["wall_s"])
        scaled.append(res["wall_s"] * NOMINAL_S / speed)
        got = out_file.read_bytes().splitlines(keepends=True) if out_file else res["lines"]
        ok &= res["code"] == 0 and got[:1] == [expected_line]
    return statistics.median(scaled), statistics.median(walls), ok


# -- timing statistics -------------------------------------------------------

def normalized(p: dict) -> list[float]:
    """A pass's frame times rescaled to the reference kernel's nominal speed."""
    from reference import NOMINAL_S

    return [t * NOMINAL_S / r for t, r in zip(p["times"], p["refs"])]


def tail_rank(n: int) -> int:
    """1-based rank of the highest percentile with TAIL_BEYOND samples beyond it."""
    return n - TAIL_BEYOND if n > 2 * TAIL_BEYOND else (n + 1) // 2


def timing_metrics(passes: list[dict]) -> tuple[dict, dict]:
    """Time metrics from each frame's median normalized time over the passes.

    The record part also gives the raw wall-clock rate (each frame's best
    pass) and the median reference kernel time, so the rescaling is visible.
    """
    frame_s = sorted(statistics.median(s) for s in zip(*(normalized(p) for p in passes)))
    n = len(frame_s)
    rank = tail_rank(n)
    metrics = {
        "frames_per_s": n / sum(frame_s),
        "frame_ms_p50": statistics.median(frame_s) * 1e3,
        "frame_ms_tail": frame_s[rank - 1] * 1e3,
    }
    wall_best = [min(s) for s in zip(*(p["times"] for p in passes))]
    record = {
        "tail": {"percentile": round(100.0 * rank / n, 2), "samples": n, "beyond": n - rank},
        "wall_frames_per_s_best": round(n / sum(wall_best), 3),
        "reference_ms_median": round(statistics.median(r for p in passes for r in p["refs"]) * 1e3, 4),
    }
    return metrics, record


# -- output checks and accuracy ----------------------------------------------

def parse_report(line: bytes, index: int) -> dict | None:
    """The report as a dict if it is well formed for frame ``index``, else None."""
    try:
        doc = json.loads(line)
    except ValueError:
        return None
    if not isinstance(doc, dict) or set(doc) != {"frame_index", "hands"}:
        return None
    if doc["frame_index"] != index or not isinstance(doc["hands"], list):
        return None
    keys = {"id", "overlay_color", "palm_center", "palm_radius_px", "fingertips"}
    for hand in doc["hands"]:
        if not isinstance(hand, dict) or set(hand) != keys:
            return None
        if hand["id"] not in ("Single", "Right", "Left"):
            return None
    return doc


def split_streams(manifest: dict, lines: list[bytes]) -> list[list[dict | None]]:
    """Parsed reports per stream, None where a report is missing or malformed."""
    out, pos = [], 0
    for stream in manifest["streams"]:
        chunk = lines[pos:pos + len(stream)]
        pos += len(stream)
        parsed = [parse_report(line, i) for i, line in enumerate(chunk)]
        out.append(parsed + [None] * (len(stream) - len(parsed)))
    return out


def _observations(doc: dict):
    from handdepth.distance import PalmCenter
    from handdepth.fingertips import Fingertip

    return [
        (
            PalmCenter(h["palm_center"]["x"], h["palm_center"]["y"], h["palm_radius_px"]),
            [Fingertip(t["x"], t["y"], t["depth_cm"], i) for i, t in enumerate(h["fingertips"])],
            None,
        )
        for h in doc["hands"]
    ]


def _nearest_hands(doc: dict, truths) -> dict[str, int]:
    """Reported hand id -> physical hand index, paired greedily by palm distance."""
    pairs = sorted(
        (math.hypot(h["palm_center"]["x"] - t.palm_center[0], h["palm_center"]["y"] - t.palm_center[1]),
         hi, phys)
        for hi, h in enumerate(doc["hands"])
        for phys, t in truths
    )
    used_h, used_p, out = set(), set(), {}
    for _d, hi, phys in pairs:
        if hi in used_h or phys in used_p:
            continue
        used_h.add(hi)
        used_p.add(phys)
        out[doc["hands"][hi]["id"]] = phys
    return out


def accuracy(manifest: dict, parsed: list[list[dict | None]]) -> dict:
    """Tip recall/precision and palm hits via score_scene; identity continuity."""
    from handdepth.benchmark import score_scene
    from workloads import truth_from_json

    true_tips = detected = matched = hands = palm_hits = 0
    id_frames = id_ok = 0
    for stream, reports in zip(manifest["streams"], parsed):
        birth = None  # physical hand labelled Right when the pair was born
        for entry, doc in zip(stream, reports):
            truths = [truth_from_json(t) for t in entry["truths"]]
            obs = _observations(doc) if doc else []
            score = score_scene(obs, [t for _, t in truths])
            true_tips += score.true_tips
            detected += score.detected_tips
            matched += score.matched_tips
            hands += score.hands
            palm_hits += score.palm_hits
            if not truths:
                continue
            id_frames += 1
            ids = sorted(h["id"] for h in doc["hands"]) if doc else []
            if len(truths) == 1:
                id_ok += ids == ["Single"]
            elif ids == ["Left", "Right"]:
                right = _nearest_hands(doc, truths)["Right"]
                if birth is None:
                    birth = right
                id_ok += right == birth
    return {
        "tip_recall": matched / true_tips if true_tips else 1.0,
        "tip_precision": matched / detected if detected else 1.0,
        "palm_hit_rate": palm_hits / hands if hands else 1.0,
        "id_continuity": id_ok / id_frames if id_frames else 1.0,
    }


def in_process_reference(manifest: dict) -> tuple[list[bytes], list[bytes]]:
    """Report lines and overlays of the library called directly on the same frames."""
    from handdepth.frame_io import read_pgm, write_overlay, write_report
    from handdepth.pipeline import PipelineConfig, run_pipeline

    lines, overlays = [], []
    for stream in manifest["streams"]:
        frames = [read_pgm(Path(e["path"]).read_bytes())[0] for e in stream]
        for frame, report in zip(frames, run_pipeline(iter(frames), PipelineConfig())):
            lines.append(write_report(report) + b"\n")
            overlays.append(write_overlay(frame, report.hands))
    return lines, overlays


# -- trace claims --------------------------------------------------------------

# The layers each workload was chosen to stress, as module groups.
STRESSED = {
    "qvga_single": ("distance", "morphology"),
    "vga_two_hand": ("segmentation", "calibration"),
}


def claim(name: str, shares: dict[str, float], metrics: dict, frames: int) -> str:
    """Whether the traced run confirms the workload's reason for being chosen."""
    if name == "cli_stream":
        decoded = metrics["cli.frames_decoded_before_first_report"]
        return (f"frames decoded before the first report = {decoded:g} of {frames}: "
                + ("holds" if decoded == frames else "does not hold"))
    groups = {"+".join(g): sum(shares.get(m, 0.0) for m in g) for g in STRESSED.values()}
    rest = {m: v for m, v in shares.items() if not any(m in g for g in STRESSED.values())}
    mine = "+".join(STRESSED[name])
    rivals = {**{g: v for g, v in groups.items() if g != mine}, **rest}
    top = max(rivals, key=rivals.get)
    verdict = "holds" if groups[mine] > rivals[top] else "does not hold"
    return (f"{mine} self share {groups[mine]:.3f} vs largest other {top} "
            f"{rivals[top]:.3f}: {verdict}")


# -- workloads ---------------------------------------------------------------

def measure_in_process(manifest: dict, work: Path, seconds: int, trace: int) -> dict:
    result_path, report_path = work / "result.json", work / "report.jsonl"
    res = run_child([sys.executable, str(BENCH / "measure.py"), str(work / "frames" / "manifest.json"),
                     str(result_path), str(report_path), str(seconds), str(trace)])
    if res["code"] != 0:
        raise RuntimeError(f"measurement child exited with {res['code']}")
    result = json.loads(result_path.read_text())
    result["rss_mb"] = res["rss_mb"]
    result["lines"] = report_path.read_bytes().splitlines(keepends=True)
    return result


def measure_cli(manifest: dict, work: Path, seconds: int, trace: int) -> dict:
    frames_dir = Path(manifest["streams"][0][0]["path"]).parent
    overlay_dir = work / "overlays"
    detect = ["detect", "--input", str(frames_dir), "--out-overlay-dir", str(overlay_dir)]
    kinds = ["plain", "traced"] if trace else ["plain"]
    passes, rss, missing = [], [], []
    # The kernel cannot run inside the CLI, so it runs here around each detect run.
    ref_before = machine_speed()
    start = time.perf_counter()
    while True:
        done = {k: sum(p["kind"] == k for p in passes) for k in kinds}
        if time.perf_counter() - start >= seconds and min(done.values()) >= MIN_CLI_PASSES:
            break
        kind = kinds[len(passes) % len(kinds)]
        stats_path = work / f"trace_{len(passes)}.json"
        if kind == "traced":
            cmd = [sys.executable, "-u", str(BENCH / "traced_cli.py"), str(stats_path)] + detect
        else:
            cmd = [sys.executable, "-u", "-m", "handdepth.cli"] + detect
        res = run_child(cmd)
        ref_after = machine_speed()
        body = b"".join(res["lines"])
        arrivals = res["arrivals"]
        times = [b - a for a, b in zip([0.0] + arrivals, arrivals)]
        refs = [(ref_before + ref_after) / 2] * len(times)
        ref_before = ref_after
        n = len(manifest["streams"][0])
        failed = n - len(res["lines"]) if res["code"] == 0 else n
        trace_doc = None
        if kind == "traced":
            doc = json.loads(stats_path.read_text())
            trace_doc, missing = doc["trace"], doc["missing"]
        else:
            rss.append(res["rss_mb"])
        passes.append({"kind": kind, "times": times, "refs": refs, "failed": failed,
                       "sha256": hashlib.sha256(body).hexdigest(), "trace": trace_doc,
                       "lines": res["lines"]})
    return {
        "passes": passes,
        "elapsed_s": time.perf_counter() - start,
        "rss_mb": statistics.median(rss),
        "lines": passes[0]["lines"],
        "missing_bindings": missing,
        "overlay_dir": overlay_dir,
    }


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # Inputs are rendered in a child: a child's peak RSS (wait4) starts
        # from this process's high-water mark, which must stay small.
        frames = work / "frames"
        res = run_child([sys.executable, str(BENCH / "workloads.py"), name, str(seed), str(frames)])
        if res["code"] != 0:
            raise RuntimeError(f"input generation exited with {res['code']}")
        manifest = json.loads((frames / "manifest.json").read_text())
        return _run_workload(name, seconds, trace, work, manifest)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _run_workload(name: str, seconds: int, trace: int, work: Path, manifest: dict) -> dict:
    checks: list[tuple[str, bool, str]] = []
    first_frame = Path(manifest["streams"][0][0]["path"])
    cli = name == "cli_stream"

    if cli:
        measured = measure_cli(manifest, work, seconds, trace)
    else:
        measured = measure_in_process(manifest, work, seconds, trace)
    lines = measured["lines"]
    passes = measured["passes"]
    plain = [p for p in passes if p["kind"] == "plain"]
    traced = [p for p in passes if p["kind"] == "traced"]
    frames = sum(len(s) for s in manifest["streams"])

    shas = {p["sha256"] for p in passes}
    checks.append(("passes_identical", len(shas) == 1,
                   f"{len(passes)} passes ({len(traced)} traced), {len(shas)} distinct report digests"))
    parsed = split_streams(manifest, lines)
    malformed = sum(doc is None for stream in parsed for doc in stream)
    failed = sum(p["failed"] for p in passes) + (malformed * len(passes) if len(shas) == 1 else 0)
    attempted = frames * len(passes)
    checks.append(("no_failed_frames", failed == 0, f"{failed} of {attempted} frames failed"))

    metrics: dict[str, float] = {}
    record: dict = {}
    timing: dict[str, float] = {}
    if not failed and len(shas) == 1:
        timing, timing_record = timing_metrics(plain)
        record.update(timing_record)

    if trace == 0:
        if cli:
            one = work / "one"
            one.mkdir()
            shutil.copy(first_frame, one / first_frame.name)
            out_file = work / "one.jsonl"
            cmd = [sys.executable, "-m", "handdepth.cli", "detect", "--input", str(one),
                   "--out-report", str(out_file), "--out-overlay-dir", str(work / "one_overlay")]
            setup_s, setup_wall, probe_ok = setup_time(cmd, lines[0] if lines else b"", out_file)
        else:
            cmd = [sys.executable, str(BENCH / "cold_start.py"), str(first_frame)]
            setup_s, setup_wall, probe_ok = setup_time(cmd, lines[0] if lines else b"")
        record["setup_wall_s"] = round(setup_wall, 4)
        checks.append(("setup_probe_report", probe_ok,
                       f"{SETUP_PROBES} cold starts reported the first frame as the run did"))
        metrics.update(timing)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = measured["rss_mb"]
        metrics.update(accuracy(manifest, parsed))
        metrics["frame_ok_share"] = 1.0 - failed / attempted
        if name == "qvga_single":
            below = {k: metrics[k] for k, floor in FLOORS.items() if metrics[k] < floor}
            checks.append(("acceptance_floors", not below,
                           "recall, precision >= 0.99 and palm hits >= 0.90"
                           + (f"; below: {below}" if below else "")))

    if cli:
        ref_lines, ref_overlays = in_process_reference(manifest)
        same = all(p["lines"] == ref_lines for p in passes)
        checks.append(("cli_matches_in_process", same,
                       "every CLI JSONL stream equals the in-process bytes for the same frames"))
        overlays = [(measured["overlay_dir"] / Path(e["path"]).with_suffix(".ppm").name)
                    for e in manifest["streams"][0]]
        same_overlays = all(p.is_file() and p.read_bytes() == o for p, o in zip(overlays, ref_overlays))
        checks.append(("cli_overlays_match", same_overlays,
                       f"{len(overlays)} PPM overlays equal in-process write_overlay bytes"))

    if trace:
        from tracer import counts_only, layer_metrics, self_shares, self_time_gap

        root = "cli.main" if cli else "bench.frame"
        docs = [p["trace"] for p in traced]
        counts = [counts_only(d) for d in docs]
        checks.append(("trace_counts_repeat", all(c == counts[0] for c in counts),
                       f"work counts identical in all {len(docs)} traced passes"))
        gap = max(self_time_gap(d, root) for d in docs)
        checks.append(("self_times_add_up", gap < 1e-6,
                       f"summed self time vs traced frame time differ by {gap:.1e} (relative)"))
        traced_timing, _ = timing_metrics(traced)
        overhead = (timing["frames_per_s"] / traced_timing["frames_per_s"] - 1.0) * 100.0 if timing else 0.0
        from reference import NOMINAL_S

        scales = [NOMINAL_S / statistics.median(p["refs"]) for p in traced]
        metrics.update(layer_metrics(docs, scales, overhead))
        shares = self_shares(docs[0])
        record["self_share"] = {k: round(v, 4) for k, v in shares.items()}
        record["missing_bindings"] = measured["missing_bindings"]
        record["claim"] = claim(name, shares, metrics, frames)

    record.update({
        "frames_per_pass": frames,
        "passes": {"plain": len(plain), "traced": len(traced)},
        "frames_timed": frames * len(plain),
        "measure_s": round(measured["elapsed_s"], 3),
    })
    return {
        "workload": name,
        "report_sha256": hashlib.sha256(b"".join(lines)).hexdigest(),
        "checks": checks,
        "metrics": metrics,
        "record": record,
        "attempted": attempted,
        "failed": failed,
    }


# -- output ------------------------------------------------------------------

def environment(seed: int) -> dict:
    from importlib.metadata import version

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def metric_units(trace: int) -> dict[str, tuple[str, str]]:
    if not trace:
        return END_TO_END
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}


def print_result(res: dict, env: dict, units: dict) -> None:
    w = res["workload"]
    print(f"== {w}")
    print(f"record {json.dumps({**env, **res['record']}, sort_keys=True)}")
    print(f"report_sha256 {w} {res['report_sha256']}")
    for name, ok, detail in res["checks"]:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    if "claim" in res["record"]:
        print(f"claim {w}: {res['record']['claim']}")
    for name, (unit, better) in units.items():
        if name in res["metrics"]:
            print(f"metric {name:<52} {res['metrics'][name]:>14.6g} {unit:<6} ({better} is better)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM raises SystemExit, so children are killed and scratch files removed.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    if not (SRC / "handdepth" / "__init__.py").is_file():
        print(f"error: no handdepth sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment(args.seed)
    # One CPU for every process of the run: the reference kernel then
    # measures the same CPU the frames run on, also for the CLI child.
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = metric_units(args.trace)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        print_result(res, env, units)
        results.append(res)

    correct = all(ok for res in results for _name, ok, _detail in res["checks"])
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": units[k][0]} for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{res['workload']}.{k}": {"value": v, "unit": units[k][0]}
                   for res in results for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
