"""Span tracing of cyclerisk layers from outside the package.

Wrappers are installed around the public functions listed in LAYERS. Each
call records a span (name, operation id, start, end, parent) and each
wrapper may also observe the call's arguments and result to count work.
Because `pipeline` and `cli` bind names at import time (for example
`from .emd import classify_risk`), a wrapper only takes effect if it
replaces the name where the caller looks it up; `install` therefore
replaces every reference held by any loaded `cyclerisk` module. A reference
held elsewhere (a closure, a container) still bypasses its wrapper; the
benchmark detects that from call counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field


class TraceError(RuntimeError):
    """The trace cannot be trusted: spans did not nest."""


# (module, attribute, layer metric). Several functions may feed one layer;
# `emd.emd` feeds `emd.classify` so that the exact solves a retrieval makes
# count as retrieval time, while the solve count is kept separately.
LAYERS = (
    ("cyclerisk.fileio", "read_pgm", "fileio.read_pgm"),
    ("cyclerisk.fileio", "read_sensor_csv", "fileio.read_sensor_csv"),
    ("cyclerisk.fileio", "write_pgm", "fileio.write"),
    ("cyclerisk.fileio", "write_detections", "fileio.write"),
    ("cyclerisk.fileio", "write_sensor_csv", "fileio.write"),
    ("cyclerisk.fileio", "write_descriptors", "fileio.write"),
    ("cyclerisk.fileio", "write_training_set", "fileio.write"),
    ("cyclerisk.fileio", "write_model", "fileio.write"),
    ("cyclerisk.fileio", "write_report_geojson", "fileio.write"),
    ("cyclerisk.fileio", "write_ride_meta", "fileio.write"),
    ("cyclerisk.fileio", "write_window_labels", "fileio.write"),
    ("cyclerisk.vision.clahe", "clahe", "vision.clahe"),
    ("cyclerisk.vision.corners", "detect_corners", "vision.corners"),
    ("cyclerisk.vision.flow", "lk_flow", "vision.flow"),
    ("cyclerisk.foe", "refine_foe", "foe.refine"),
    ("cyclerisk.risk", "lane_region_map", "risk.region_map"),
    ("cyclerisk.risk", "proximity_region_map", "risk.region_map"),
    ("cyclerisk.risk", "risk_descriptor", "risk.descriptor"),
    ("cyclerisk.emd", "build_distance_matrix", "emd.distance_matrix"),
    ("cyclerisk.emd", "classify_risk", "emd.classify"),
    ("cyclerisk.emd", "emd", "emd.classify"),
    ("cyclerisk.behavior.preprocess", "preprocess", "behavior.preprocess"),
    ("cyclerisk.behavior.preprocess", "make_windows", "behavior.preprocess"),
    ("cyclerisk.behavior.features", "features_matrix", "behavior.features"),
    ("cyclerisk.behavior.rfe", "ova_rankings", "behavior.rfe"),
    ("cyclerisk.behavior.rfe", "consensus_select", "behavior.rfe"),
    ("cyclerisk.behavior.svm", "train_svm", "behavior.svm_train"),
    ("cyclerisk.behavior.svm", "SvmModel.decision_values", "behavior.svm_decision"),
    ("cyclerisk.behavior.temporal", "smooth_sequence", "behavior.temporal"),
    ("cyclerisk.behavior.temporal", "softmax", "behavior.temporal"),
    ("cyclerisk.synth", "gen_ride", "synth.gen_ride"),
    ("cyclerisk.synth", "render_ride_frames", "synth.render"),
)

ROOT_LAYER = "pipeline"   # an operation's own span; its self time is pipeline.self_s


@dataclass(eq=False)
class Span:
    name: str            # "module.attribute" of the wrapped function, or the op
    layer: str
    op: int              # operation id shared by every span of one operation
    parent: "Span | None"
    start: float
    end: float = 0.0
    child: float = 0.0   # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


@dataclass
class Counters:
    """Work counted at the layer boundaries, from arguments and results."""

    corners: int = 0
    corner_calls: int = 0
    flow_points: int = 0
    flow_tracked: int = 0
    foe_calls: int = 0
    foe_iterations: int = 0
    foe_active: int = 0
    descriptors: int = 0
    empty_descriptors: int = 0
    solves: int = 0
    possible_solves: int = 0   # non-empty retrievals x usable training items


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)   # op id -> Counters
    op: int = -1
    _stack: list = field(default_factory=list)

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, layer=layer, op=self.op, parent=parent,
                    start=time.perf_counter())
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise TraceError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child += span.duration
        self.spans.append(span)

    def operation(self, op: int, kind: str, fn, *args):
        """Run fn(*args) as operation `op`, the root span of its calls."""
        self.op = op
        self.counters[op] = Counters()
        span = self._open(f"op.{kind}", ROOT_LAYER)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def wrap(self, name: str, layer: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)
        if inspect.isgeneratorfunction(fn):
            # time each resumption, so the consumer's work between items
            # is not charged to the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = tracer._open(name, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                observe(tracer.counters[tracer.op], args, kwargs, result)
            return result
        return wrapper


# ----------------------------------------------------------------- observers

def _obs_corners(c, args, kwargs, result):
    c.corner_calls += 1
    c.corners += len(result)


def _obs_flow(c, args, kwargs, result):
    c.flow_points += len(result)
    c.flow_tracked += int(result.tracked.sum())


def _obs_foe(c, args, kwargs, result):
    c.foe_calls += 1
    c.foe_iterations += int(result.iterations)
    c.foe_active += int(result.active_count)


def _obs_descriptor(c, args, kwargs, result):
    c.descriptors += 1
    c.empty_descriptors += int(result.total <= 0.0)


def _obs_classify(c, args, kwargs, result):
    desc = args[0] if args else kwargs["descriptor"]
    train = args[1] if len(args) > 1 else kwargs["train"]
    if getattr(desc, "values", desc).sum() > 0.0:
        c.possible_solves += sum(1 for it in train.items if it.values.sum() > 0.0)


def _obs_emd(c, args, kwargs, result):
    c.solves += 1


_OBSERVERS = {
    "cyclerisk.vision.corners.detect_corners": _obs_corners,
    "cyclerisk.vision.flow.lk_flow": _obs_flow,
    "cyclerisk.foe.refine_foe": _obs_foe,
    "cyclerisk.risk.risk_descriptor": _obs_descriptor,
    "cyclerisk.emd.classify_risk": _obs_classify,
    "cyclerisk.emd.emd": _obs_emd,
}


# --------------------------------------------------------------- installing

def _cyclerisk_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "cyclerisk" or n.startswith("cyclerisk.")) and m is not None]


class Installed:
    """Wrappers in place; `remove()` puts every original back."""

    def __init__(self, tracer: Tracer):
        self._undo = []
        originals = {}
        # the command line imports every module that binds a wrapped name
        importlib.import_module("cyclerisk.cli")
        for module_name, path, layer in LAYERS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            originals[id(fn)] = (fn, tracer.wrap(f"{module_name}.{path}", layer, fn))
            if classes:   # a method is looked up on its class
                self._set(owner, attr, originals[id(fn)][1])
        for module in _cyclerisk_modules():
            for key, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, key, hit[1])

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def remove(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


# -------------------------------------------------------------- aggregation

def layer_names() -> list[str]:
    return sorted({layer for _, _, layer in LAYERS})


def root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def call_counts(spans, ops) -> dict:
    """Calls per wrapped function name over the given operation ids."""
    out = {}
    for s in spans:
        if s.op in ops and s.layer != ROOT_LAYER:
            out[s.name] = out.get(s.name, 0) + 1
    return out


def self_times(spans, ops) -> dict:
    """Summed self seconds per layer (and ROOT_LAYER) over the given ops."""
    out = {name: 0.0 for name in layer_names()}
    out[ROOT_LAYER] = 0.0
    for s in spans:
        if s.op in ops:
            out[s.layer] += s.self_time
    return out

