"""Per-layer tracing from outside the program.

The tracer replaces the module-level bindings through which one layer
calls another (``pipeline.distance_transform``, ``segmentation.label_image``
and so on) with timing wrappers, and restores them afterwards.  Nothing
under ``src/`` changes.  Spans nest on a stack, so each span's self time
is its duration minus the durations of the spans it caused, and the self
times of all spans add up to the root spans' total exactly.

Span names are ``<module>.<function>`` of the function being called, so
the same function reached through several bindings aggregates into one
layer metric.  A binding that does not exist (a later version deleted
the call) is skipped and its metrics read as zero.
"""

from __future__ import annotations

import importlib
import inspect
import logging
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

_clock = time.perf_counter

# Bindings traced besides the functions handdepth.pipeline imports from
# other modules: the calls each layer makes into the next one down.
EXTRA_BINDINGS = (
    ("handdepth.pipeline", "extract_hands"),
    ("handdepth.morphology", "distance_transform"),
    ("handdepth.morphology", "sq_edt"),
    ("handdepth.morphology", "connected_components"),
    ("handdepth.distance", "sq_edt"),
    ("handdepth.segmentation", "label_image"),
    ("handdepth.segmentation", "depth_image_cm"),
    ("handdepth.segmentation", "connected_components"),
    # frame I/O: the in-process loop calls through frame_io, the CLI through cli
    ("handdepth.frame_io", "read_pgm"),
    ("handdepth.frame_io", "write_report"),
    ("handdepth.cli", "read_pgm"),
    ("handdepth.cli", "write_report"),
    ("handdepth.cli", "write_overlay"),
)

# Spans whose first argument is an image: the pixels handed to the layer are counted.
PIXEL_SPANS = {"distance.distance_transform", "segmentation.label_image"}

DROP_TYPES = ("NotFoundError", "DegenerateHandError", "EmptyResultError", "DomainError")


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def pipeline_imports() -> list[tuple[str, str]]:
    """Functions handdepth.pipeline imported from other handdepth modules."""
    pipeline = importlib.import_module("handdepth.pipeline")
    return [
        ("handdepth.pipeline", name)
        for name, obj in sorted(vars(pipeline).items())
        if inspect.isfunction(obj)
        and obj.__module__.startswith("handdepth.")
        and obj.__module__ != "handdepth.pipeline"
    ]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    pixels: int = 0


@dataclass
class Trace:
    """Everything one traced pass records; plain data, JSON-friendly via ``to_json``."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    seeds: int = 0
    observations: int = 0
    reports: int = 0
    hands: int = 0
    tips: int = 0
    drops: dict[str, int] = field(default_factory=dict)
    decoded_before_first_report: int | None = None

    def stat(self, name: str) -> SpanStats:
        st = self.spans.get(name)
        if st is None:
            st = self.spans[name] = SpanStats()
        return st

    def to_json(self) -> dict:
        return {
            "spans": {k: [v.calls, v.total_s, v.self_s, v.pixels] for k, v in sorted(self.spans.items())},
            "seeds": self.seeds,
            "observations": self.observations,
            "reports": self.reports,
            "hands": self.hands,
            "tips": self.tips,
            "drops": dict(sorted(self.drops.items())),
            "decoded_before_first_report": self.decoded_before_first_report,
        }


class _DropCounter(logging.Handler):
    """Counts hands the pipeline dropped, by the exception type it logged."""

    def __init__(self, trace: Trace):
        super().__init__(logging.WARNING)
        self.trace = trace

    def emit(self, record: logging.LogRecord) -> None:
        exc = next((a for a in record.args or () if isinstance(a, BaseException)), None)
        kind = type(exc).__name__ if exc is not None else "unknown"
        self.trace.drops[kind] = self.trace.drops.get(kind, 0) + 1


class Tracer:
    """Installs span wrappers on module bindings; one ``Trace`` per pass."""

    def __init__(self) -> None:
        self.trace = Trace()
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._handler = _DropCounter(self.trace)

    # -- spans -------------------------------------------------------------
    def begin(self) -> float:
        self._stack.append([0.0])
        return _clock()

    def end(self, name: str, start: float) -> float:
        elapsed = _clock() - start
        children = self._stack.pop()[0]
        st = self.trace.stat(name)
        st.calls += 1
        st.total_s += elapsed
        st.self_s += elapsed - children
        if self._stack:
            self._stack[-1][0] += elapsed
        return elapsed

    def _wrap(self, fn):
        name = span_name(fn)
        count_pixels = name in PIXEL_SPANS
        observe = _OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if count_pixels:
                tracer.trace.stat(name).pixels += int(np.asarray(args[0]).size)
            start = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(name, start)
            if observe is not None:
                observe(tracer.trace, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced binding that exists; remember the missing ones."""
        self.missing = []
        for module_name, attr in pipeline_imports() + list(EXTRA_BINDINGS):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))
        logging.getLogger("handdepth.pipeline").addHandler(self._handler)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        logging.getLogger("handdepth.pipeline").removeHandler(self._handler)

    def reset(self) -> Trace:
        """Start a fresh trace (one per pass); returns the finished one."""
        done = self.trace
        self.trace = Trace()
        self._handler.trace = self.trace
        self._stack.clear()
        return done


def _observe_seeds(trace: Trace, args, result) -> None:
    trace.seeds += len(result)


def _observe_extract(trace: Trace, args, result) -> None:
    trace.observations += len(result)


def _observe_report(trace: Trace, args, result) -> None:
    report = args[0]
    if trace.decoded_before_first_report is None:
        trace.decoded_before_first_report = trace.stat("frame_io.read_pgm").calls
    trace.reports += 1
    trace.hands += len(report.hands)
    trace.tips += sum(len(hand.fingertips) for hand in report.hands)


_OBSERVERS = {
    "segmentation.find_hand_seeds": _observe_seeds,
    "pipeline.extract_hands": _observe_extract,
    "frame_io.write_report": _observe_report,
}


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass_metrics(doc: dict, scale: float) -> dict[str, float]:
    """One traced pass's layer metrics; times in ms, multiplied by ``scale``."""
    frames, hands = doc["reports"], doc["hands"]
    out: dict[str, float] = {}

    def add(name: str, per: str, *kinds: str) -> None:
        calls, total_s, self_s, pixels = doc["spans"].get(name, (0, 0.0, 0.0, 0))
        total, self_ = total_s * 1e3 * scale, self_s * 1e3 * scale
        values = {"ms": total, "total_ms": total, "self_ms": self_, "calls": calls, "pixels": pixels}
        for kind in kinds:
            out[f"{name}.{kind}_per_{per}"] = _per(values[kind], hands if per == "hand" else frames)

    add("distance.distance_transform", "hand", "ms", "calls", "pixels")
    add("distance.sq_edt", "hand", "ms", "calls")
    add("distance.find_palm_center", "hand", "ms")
    add("morphology.extract_palm", "hand", "self_ms", "total_ms")
    add("morphology.finger_masks", "hand", "self_ms", "total_ms")
    for name in ("find_hand_seeds", "depth_threshold", "connected_components"):
        add(f"segmentation.{name}", "frame", "self_ms", "calls")
    add("segmentation.label_image", "frame", "ms", "calls", "pixels")
    add("segmentation.fill_holes", "hand", "self_ms")
    drops = sum(doc["drops"].values())
    out["segmentation.seeds_per_frame"] = _per(doc["seeds"], frames)
    out["segmentation.seeds_merged_per_frame"] = _per(
        doc["seeds"] - doc["observations"] - drops, frames)
    add("calibration.depth_image_cm", "frame", "ms", "calls")
    add("fingertips.detect_fingertips", "hand", "ms")
    out["fingertips.tips_per_hand"] = _per(doc["tips"], hands)
    add("tracking.label_hands", "frame", "ms")
    add("tracking.update", "frame", "ms")
    add("pipeline.extract_hands", "frame", "total_ms", "self_ms")
    for kind in DROP_TYPES:
        out[f"pipeline.hands_dropped_per_frame.{kind}"] = _per(doc["drops"].get(kind, 0), frames)
    out["pipeline.hand_yield"] = _per(doc["observations"], doc["seeds"])
    for name in ("read_pgm", "write_report", "write_overlay"):
        add(f"frame_io.{name}", "frame", "ms")
    out["cli.frames_decoded_before_first_report"] = float(doc["decoded_before_first_report"] or 0)
    return out


def counts_only(doc: dict) -> dict:
    """The parts of a pass trace that must repeat exactly: everything but times."""
    return {
        "calls": {k: (v[0], v[3]) for k, v in doc["spans"].items()},
        **{k: doc[k] for k in ("seeds", "observations", "reports", "hands", "tips", "drops",
                               "decoded_before_first_report")},
    }


# Time metrics are medians over the traced passes, each pass rescaled to
# the reference kernel's nominal speed like the end-to-end times; counts
# are identical in every pass (checked by the caller), so the median is
# the count.
def layer_metrics(traces: list[dict], scales: list[float], overhead_pct: float) -> dict[str, float]:
    per_pass = [_pass_metrics(doc, scale) for doc, scale in zip(traces, scales)]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_pct"] = overhead_pct
    return metrics


def self_shares(doc: dict) -> dict[str, float]:
    """Share of all traced self time spent in each module (root spans included)."""
    by_module: dict[str, float] = {}
    for name, (_calls, _total, self_s, _pixels) in doc["spans"].items():
        module = name.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + self_s
    whole = sum(by_module.values())
    return {k: _per(v, whole) for k, v in sorted(by_module.items(), key=lambda kv: -kv[1])}


def self_time_gap(doc: dict, root: str) -> float:
    """Relative difference between the summed self times and the root spans' total."""
    root_total = doc["spans"][root][1]
    summed = sum(v[2] for v in doc["spans"].values())
    return abs(summed - root_total) / root_total if root_total else 0.0
