"""Tracer: bindings restored, missing bindings read zero, counts repeat exactly."""

import json
import logging
import subprocess
import sys

import pytest

import handdepth.pipeline as pipeline
import handdepth.segmentation as segmentation
import tracer
import workloads
from conftest import BENCH
from handdepth.errors import EmptyResultError

ROOT = BENCH.parent


def test_install_wraps_and_uninstall_restores():
    before = (pipeline.extract_hands, segmentation.label_image, pipeline.fill_holes)
    t = tracer.Tracer()
    t.install()
    try:
        assert pipeline.extract_hands.__wrapped__ is before[0]
        assert segmentation.label_image.__wrapped__ is before[1]
        assert pipeline.fill_holes.__wrapped__ is before[2]
        assert t.missing == []
    finally:
        t.uninstall()
    assert (pipeline.extract_hands, segmentation.label_image, pipeline.fill_holes) == before


def test_missing_binding_is_skipped_and_reads_zero(monkeypatch):
    monkeypatch.setattr(tracer, "EXTRA_BINDINGS",
                        tracer.EXTRA_BINDINGS + (("handdepth.morphology", "no_such_kernel"),))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["handdepth.morphology.no_such_kernel"]
    empty = tracer.Trace().to_json()
    metrics = tracer.layer_metrics([empty], [1.0], 0.0)
    assert all(value == 0.0 for value in metrics.values())


def test_drop_counter_counts_by_exception_type():
    t = tracer.Tracer()
    t.install()
    try:
        logging.getLogger("handdepth.pipeline").warning(
            "hand at seed (%d, %d) dropped: %s", 1, 2, EmptyResultError("gone"))
    finally:
        t.uninstall()
    assert t.trace.drops == {"EmptyResultError": 1}


def test_nested_spans_split_self_time_exactly():
    t = tracer.Tracer()
    outer = t.begin()
    inner = t.begin()
    t.end("b.inner", inner)
    t.end("a.outer", outer)
    doc = t.trace.to_json()
    assert tracer.self_time_gap(doc, "a.outer") < 1e-12
    calls, total, self_s, _ = doc["spans"]["a.outer"]
    assert calls == 1 and self_s <= total


def _traced_run(manifest_path, tmp_path, tag):
    result, report = tmp_path / f"result_{tag}.json", tmp_path / f"report_{tag}.jsonl"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    subprocess.run([sys.executable, str(BENCH / "measure.py"), str(manifest_path),
                    str(result), str(report), "0", "1"], check=True, env=env, timeout=300)
    return json.loads(result.read_text())


@pytest.fixture(scope="module")
def two_traced_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    streams = workloads.vga_two_hand(2, sequences=1, length=6)
    manifest = {"streams": []}
    from handdepth.frame_io import write_pgm
    entries = []
    for i, (frame, _truths) in enumerate(streams[0]):
        path = tmp / f"frame_{i:05d}.pgm"
        path.write_bytes(write_pgm(frame))
        entries.append({"path": str(path), "truths": []})
    manifest["streams"].append(entries)
    manifest_path = tmp / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    return _traced_run(manifest_path, tmp, "a"), _traced_run(manifest_path, tmp, "b")


def test_work_counts_repeat_exactly_across_traced_runs(two_traced_runs):
    counts = [tracer.counts_only(p["trace"]) for run in two_traced_runs
              for p in run["passes"] if p["kind"] == "traced"]
    assert len(counts) >= 2
    assert all(c == counts[0] for c in counts)
    assert counts[0]["calls"]["distance.distance_transform"][0] > 0


def test_traced_reports_equal_untraced_and_self_times_add_up(two_traced_runs):
    for run in two_traced_runs:
        assert len({p["sha256"] for p in run["passes"]}) == 1
        assert all(p["failed"] == 0 for p in run["passes"])
        for p in run["passes"]:
            if p["kind"] == "traced":
                assert tracer.self_time_gap(p["trace"], "bench.frame") < 1e-6


def test_benchmark_json_names_every_metric_the_runs_print():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(tracer.layer_metrics([tracer.Trace().to_json()], [1.0], 0.0))
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
