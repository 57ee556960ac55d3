"""Ride analysis orchestration.

Composes the full chain: sensor log -> transport-mode labels; frames ->
flow -> focus of expansion -> 25-bin risk descriptor -> risk level; then
joins both timelines into mode segments with per-segment risk histograms.
Only frames whose transport mode is `bike` receive risk analysis.

Everything here is a deterministic function of (inputs, config, seed):
repeated runs write byte-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fileio
from .behavior import (make_windows, preprocess, smooth_sequence, softmax)
from .behavior.features import features_matrix
from .behavior.preprocess import WINDOW_SIZE
from .behavior.stream import SensorStream
from .behavior.svm import SvmModel
from .config import PipelineConfig, VisionConfig
from .emd import RiskTrainingSet, build_distance_matrix, classify_risk
from .errors import (CycleRiskError, InvalidInputError)
from .foe import FoeSmoother, magnitude_weights, object_weights, refine_foe
from .risk import RiskParams, region_map_for, risk_descriptor
from .vision import GrayFrame, clahe, detect_corners, lk_flow

GPS_JOIN_TOLERANCE = 0.5   # s, frame-to-position nearest join
POLYLINE_STEP = 1.0        # s, GPS subsampling for report polylines


@dataclass
class RideInputs:
    """Parsed on-disk ride: frame clock, frame files, detections, sensor log."""

    ride_dir: Path
    fps: float              # frames per second, finite and > 0
    frame_start: float      # sensor-clock time of frame 0, s
    frames: list            # (index, path), sorted
    detections: dict        # frame index -> list[Detection]
    stream: SensorStream

    def frame_time(self, index: int) -> float:
        return self.frame_start + index / self.fps


def load_ride(ride_dir) -> RideInputs:
    ride_dir = Path(ride_dir)
    meta_path = ride_dir / "ride.json"
    sensors_path = ride_dir / "sensors.csv"
    if not ride_dir.is_dir():
        raise InvalidInputError(f"ride directory not found: {ride_dir}")
    if not meta_path.exists():
        raise InvalidInputError(f"missing {meta_path}")
    if not sensors_path.exists():
        raise InvalidInputError(f"missing {sensors_path}")
    meta = fileio.read_ride_meta(meta_path)
    if not isinstance(meta, dict):
        raise InvalidInputError(f"{meta_path} must hold an object")
    fps, frame_start = meta.get("fps", 0.0), meta.get("frame_start", 0.0)
    if not (fileio.is_json(fps, "number") and fileio.is_json(frame_start, "number")):
        raise InvalidInputError(f"{meta_path}: fps and frame_start must be numbers: "
                                "finite JSON numbers, not strings or booleans")
    if fps <= 0:
        raise InvalidInputError(f"{meta_path} must declare a positive fps")
    frames = fileio.list_frames(ride_dir / "frames")
    if frames and not math.isfinite(frame_start + frames[-1][0] / fps):
        raise InvalidInputError(f"{meta_path}: frame {frames[-1][0]} has no finite "
                                "time (frame_start + index / fps)")
    dets: dict[int, list] = {}
    det_path = ride_dir / "detections.ndjson"
    if det_path.exists():
        for d in fileio.read_detections(det_path):
            dets.setdefault(d.frame, []).append(d)
    stream = fileio.read_sensor_csv(sensors_path)
    return RideInputs(ride_dir=ride_dir, fps=float(fps), frame_start=float(frame_start),
                      frames=frames, detections=dets, stream=stream)


@dataclass
class WindowRow:
    start: int
    t0: float
    t1: float
    label: str

    @property
    def center(self) -> float:
        return 0.5 * (self.t0 + self.t1)

    def to_json(self) -> str:
        """This window's row of windows.ndjson."""
        return fileio.canonical_json({"start": self.start, "t0": self.t0,
                                      "t1": self.t1, "label": self.label})


@dataclass
class FrameRow:
    frame: int
    t: float
    mode: str
    foe: tuple | None = None
    level: int | None = None
    pos: tuple | None = None
    note: str = ""


@dataclass
class RideAnalysis:
    criterion: str
    windows: list = field(default_factory=list)      # WindowRow
    frames: list = field(default_factory=list)       # FrameRow
    descriptors: list = field(default_factory=list)  # RiskDescriptor
    segments: list = field(default_factory=list)     # dicts for the report


# ------------------------------------------------------------- mode labeling

def label_windows(stream: SensorStream, model: SvmModel,
                  cfg: PipelineConfig) -> list[WindowRow]:
    grid = preprocess(stream)
    starts, windows = make_windows(grid)
    X = features_matrix(windows)
    probs = softmax(model.decision_values(X))
    Xs = model.standardize(X)
    bandwidth = cfg.behavior.bandwidth
    if bandwidth is None:
        bandwidth = (1.0 if model.smoother_bandwidth is None
                     else model.smoother_bandwidth)
    idx = smooth_sequence(Xs, probs, bandwidth, cfg.behavior)
    return [WindowRow(start=s, t0=float(grid.t[s]),
                      t1=float(grid.t[s + WINDOW_SIZE - 1]),
                      label=model.classes[int(i)])
            for s, i in zip(starts.tolist(), idx)]


# ------------------------------------------------------------- full analyze

def _load_clahe(path, index, cfg: VisionConfig) -> GrayFrame:
    return clahe(GrayFrame(data=fileio.read_pgm(path), index=index), cfg)


def _pair_flows(prev: GrayFrame, nxt: GrayFrame,
                cfg: VisionConfig) -> tuple[np.ndarray, np.ndarray]:
    """(points, vectors) of prev's corners tracked into nxt, zero flows dropped."""
    fl = lk_flow(prev, nxt, detect_corners(prev, cfg), cfg)
    keep = fl.tracked & (fl.vectors != 0.0).any(axis=1)
    return fl.points[keep], fl.vectors[keep]


def analyze_ride(ride: RideInputs, model: SvmModel, train: RiskTrainingSet,
                 cfg: PipelineConfig, risk_params: RiskParams) -> RideAnalysis:
    """Label the ride's windows and cut them into mode segments, then score
    each bike frame pair in order.

    Each pair's frames are read and equalized as the loop reaches it; the
    later frame carries over as the next pair's earlier frame, so every
    frame is read once and at most two are held.
    """
    criterion = train.criterion
    if not ride.frames:
        raise InvalidInputError(f"no frames under {ride.ride_dir}/frames")

    result = RideAnalysis(criterion=criterion)
    result.windows = label_windows(ride.stream, model, cfg)
    result.segments = segment_modes(result.windows, ride.stream)

    # processed frames: every stride-th index that still has a flow partner
    stride = cfg.vision.frame_stride
    by_index = dict(ride.frames)
    processed = [i for i in by_index if i % stride == 0
                 and i + stride in by_index]

    # each frame's segment gives its mode and counts its level: a time on a
    # boundary belongs to the later segment, one outside the sensor log to
    # the first or last
    times = [ride.frame_time(i) for i in processed]
    seg_of = np.searchsorted([s["start_t"] for s in result.segments[1:]],
                             times, side="right")
    segment = {i: result.segments[k] for i, k in zip(processed, seg_of.tolist())}
    rows = {i: FrameRow(frame=i, t=t, mode=segment[i]["mode"],
                        pos=_gps_at(ride.stream, t))
            for i, t in zip(processed, times)}
    bike = [i for i in processed if rows[i].mode == "bike"]

    smoother = FoeSmoother(cfg.foe)
    nxt = dist = None
    for i in bike:
        row = rows[i]
        # reads stay outside the try: an unreadable frame, or one whose size
        # differs from the first bike frame's, ends the run
        prev = (nxt if nxt is not None and nxt.index == i
                else _load_clahe(by_index[i], i, cfg.vision))
        nxt = _load_clahe(by_index[i + stride], i + stride, cfg.vision)
        if i == bike[0]:
            h, w = prev.data.shape
            dims = (w, h)
            prev_foe = np.array([w / 2.0, h / 2.0])
        for frame in (prev, nxt):
            fh, fw = frame.data.shape
            if (fw, fh) != dims:
                raise InvalidInputError(f"{by_index[frame.index]}: frame is {fw}x{fh}, "
                                        f"not {w}x{h} like the first bike frame")
        try:
            points, vectors = _pair_flows(prev, nxt, cfg.vision)
        except CycleRiskError as exc:
            row.note = f"vision failed: {exc}"
            continue
        dets = ride.detections.get(i, [])
        try:
            weights = (magnitude_weights(points, vectors, prev_foe, dims, cfg.foe)
                       * object_weights(points, dets))
            refined = refine_foe(points, vectors, weights, cfg.foe)
            smoothed = smoother.push(i, refined.point)
            prev_foe = smoothed
            row.foe = (float(smoothed[0]), float(smoothed[1]))
            # the proximity map ignores the focus: build it once
            if dist is None or criterion == "lane":
                rmap = region_map_for(criterion, smoothed, dims)
                dist = build_distance_matrix(rmap, train.cross_factor)
            desc = risk_descriptor(dets, rmap, risk_params, frame=i, cfg=cfg.risk)
            verdict = classify_risk(desc, train, dist, cfg.emd)
            row.level = verdict.level
            risk = segment[i]["risk"]
            risk[row.level] = risk.get(row.level, 0) + 1
            result.descriptors.append(desc)
        except CycleRiskError as exc:
            row.note = f"skipped: {exc}"

    result.frames = [rows[i] for i in processed]
    return result


def _gps_at(stream: SensorStream, t: float):
    j = int(np.argmin(np.abs(stream.t - t)))
    if abs(float(stream.t[j]) - t) > GPS_JOIN_TOLERANCE:
        return None
    return (float(stream.lon[j]), float(stream.lat[j]))


def segment_modes(windows: list[WindowRow], stream: SensorStream) -> list[dict]:
    """Merge same-label window runs into contiguous time segments.

    Segment boundaries sit halfway between the centers of the windows on
    either side of a label change; the first and last segments extend to
    the ends of the sensor log. Each segment's `risk` histogram starts
    empty for `analyze_ride` to fill.
    """
    if not windows:
        return []
    t_lo = float(stream.t[0])
    t_hi = float(stream.t[-1])
    runs = []
    start = 0
    for k in range(1, len(windows) + 1):
        if k == len(windows) or windows[k].label != windows[start].label:
            runs.append((start, k - 1))
            start = k
    segments = []
    for r, (a, b) in enumerate(runs):
        lo = t_lo if r == 0 else 0.5 * (windows[a - 1].center + windows[a].center)
        hi = (t_hi if r == len(runs) - 1
              else 0.5 * (windows[b].center + windows[b + 1].center))
        segments.append({"mode": windows[a].label, "coords": _polyline(stream, lo, hi),
                         "start_t": lo, "end_t": hi, "risk": {}})
    return segments


def _polyline(stream: SensorStream, lo: float, hi: float) -> list:
    sel = (stream.t >= lo) & (stream.t <= hi)
    ts = stream.t[sel].tolist()
    lons = stream.lon[sel].tolist()
    lats = stream.lat[sel].tolist()
    if not ts:
        return []
    keep = [0]
    for j in range(1, len(ts)):
        if ts[j] - ts[keep[-1]] >= POLYLINE_STEP or j == len(ts) - 1:
            keep.append(j)
    return [(lons[j], lats[j]) for j in keep]


# ------------------------------------------------------------------ writers

def write_analysis(out_dir, result: RideAnalysis) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_descriptors(out_dir / "descriptors.cydr", result.criterion,
                             result.descriptors)
    fileio.write_ndjson(out_dir / "frames.ndjson", (fileio.canonical_json({
        "frame": row.frame, "t": row.t, "mode": row.mode,
        "foe": None if row.foe is None else list(row.foe),
        "level": row.level,
        "pos": None if row.pos is None else list(row.pos),
        "note": row.note,
    }) for row in result.frames))
    write_windows(out_dir / "windows.ndjson", result.windows)
    fileio.write_report_geojson(out_dir / "report.geojson", result.segments)


def write_windows(path, windows: list[WindowRow]) -> None:
    fileio.write_ndjson(path, (w.to_json() for w in windows))
