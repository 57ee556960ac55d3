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
from .behavior.stream import SensorStream
from .behavior.svm import SvmModel
from .config import PipelineConfig
from .emd import RiskTrainingSet, build_distance_matrix, classify_risk
from .errors import (CycleRiskError, InvalidInputError)
from .foe import (FoeSmoother, HuberConfig, assign_magnitude_weights,
                  assign_object_weights, observations_from_flow, refine_foe)
from .risk import RiskParams, lane_region_map, proximity_region_map, risk_descriptor
from .vision import GrayFrame, clahe, detect_corners, lk_flow

GPS_JOIN_TOLERANCE = 0.5   # s, frame-to-position nearest join
POLYLINE_STEP = 1.0        # s, GPS subsampling for report polylines


@dataclass
class RideInputs:
    """Parsed on-disk ride: metadata, frame files, detections, sensor log."""

    ride_dir: Path
    meta: dict
    frames: list            # (index, path), sorted
    detections: dict        # frame index -> list[Detection]
    stream: SensorStream

    @property
    def fps(self) -> float:
        return float(self.meta["fps"])

    @property
    def frame_start(self) -> float:
        return float(self.meta.get("frame_start", 0.0))

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
        raise InvalidInputError("ride.json must hold an object")
    try:
        fps = float(meta.get("fps", 0.0))
        frame_start = float(meta.get("frame_start", 0.0))
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(
            f"ride.json fps and frame_start must be numbers: {exc}") from exc
    if not (math.isfinite(fps) and fps > 0):
        raise InvalidInputError("ride.json must declare a positive fps")
    if not math.isfinite(frame_start):
        raise InvalidInputError("ride.json frame_start must be finite")
    frames = fileio.list_frames(ride_dir / "frames")
    dets: dict[int, list] = {}
    det_path = ride_dir / "detections.ndjson"
    if det_path.exists():
        for d in fileio.read_detections(det_path):
            dets.setdefault(d.frame, []).append(d)
    stream = fileio.read_sensor_csv(sensors_path)
    return RideInputs(ride_dir=ride_dir, meta=meta, frames=frames,
                      detections=dets, stream=stream)


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
    b = cfg.behavior
    grid = preprocess(stream)
    windows = make_windows(grid)
    X = features_matrix(windows)
    probs = softmax(model.decision_values(X))
    Xs = (X[:, model.feature_mask] - model.mu) / model.scale
    bandwidth = b.bandwidth
    if bandwidth is None:
        bandwidth = model.smoother_bandwidth or 1.0
    idx = smooth_sequence(Xs, probs, window=b.smooth_window,
                          decay=b.smooth_decay, bandwidth=bandwidth)
    rows = []
    for w, i in zip(windows, idx):
        t0 = float(grid.t[w.start])
        t1 = float(grid.t[w.start + len(w.data) - 1])
        rows.append(WindowRow(start=int(w.start), t0=t0, t1=t1,
                              label=model.classes[int(i)]))
    return rows


def mode_at(windows: list[WindowRow], t: float) -> str:
    """Mode of the window whose center lies nearest t (ties: earlier)."""
    if not windows:
        raise InvalidInputError("no labeled windows")
    centers = np.array([w.center for w in windows])
    return windows[int(np.argmin(np.abs(centers - t)))].label


# ------------------------------------------------------------- full analyze

def _load_clahe(path, index, cfg: PipelineConfig) -> GrayFrame:
    img = fileio.read_pgm(path)
    return clahe(GrayFrame(data=img, index=index),
                 grid=cfg.vision.clahe_grid, clip_limit=cfg.vision.clahe_clip)


def _pair_observations(prev: GrayFrame, nxt: GrayFrame,
                       cfg: PipelineConfig) -> list:
    """Flow observations from prev's corners tracked into nxt."""
    cs = detect_corners(prev, max_per_cell=cfg.vision.corner_max_per_cell,
                        grid=cfg.vision.corner_grid,
                        quality=cfg.vision.corner_quality)
    fl = lk_flow(prev, nxt, cs, window=cfg.vision.lk_window,
                 pyramid_levels=cfg.vision.lk_levels)
    return observations_from_flow(fl)


def analyze_ride(ride: RideInputs, model: SvmModel, train: RiskTrainingSet,
                 cfg: PipelineConfig, risk_params: RiskParams) -> RideAnalysis:
    """Label the ride's windows, then score each bike frame pair in order.

    Each pair's frames are read and equalized as the loop reaches it; the
    later frame carries over as the next pair's earlier frame, so every
    frame is read once and at most two are held.
    """
    criterion = cfg.risk.criterion
    if train.criterion != criterion:
        raise InvalidInputError(
            f"training set is for {train.criterion!r} but the run uses "
            f"{criterion!r}")
    if not ride.frames:
        raise InvalidInputError(f"no frames under {ride.ride_dir}/frames")

    result = RideAnalysis(criterion=criterion)
    result.windows = label_windows(ride.stream, model, cfg)

    # processed frames: every stride-th index that still has a flow partner
    stride = cfg.vision.frame_stride
    by_index = dict(ride.frames)
    processed = [i for i in by_index if i % stride == 0
                 and i + stride in by_index]

    rows = {}
    for i in processed:
        t = ride.frame_time(i)
        rows[i] = FrameRow(frame=i, t=t, mode=mode_at(result.windows, t),
                           pos=_gps_at(ride.stream, t))
    bike = [i for i in processed if rows[i].mode == "bike"]

    hcfg = HuberConfig(delta=cfg.foe.delta, tol=cfg.foe.tol,
                       angle_thresh=cfg.foe.angle_thresh,
                       max_refine_iters=cfg.foe.max_refine_iters,
                       min_flows=cfg.foe.min_flows)
    smoother = FoeSmoother(window=cfg.foe.smooth_window,
                           decay=cfg.foe.smooth_decay)
    nxt = None
    for i in bike:
        row = rows[i]
        # reads stay outside the try: an unreadable frame ends the run
        prev = (nxt if nxt is not None and nxt.index == i
                else _load_clahe(by_index[i], i, cfg))
        nxt = _load_clahe(by_index[i + stride], i + stride, cfg)
        if i == bike[0]:
            h, w = prev.data.shape
            dims = (w, h)
            prev_foe = np.array([w / 2.0, h / 2.0])
            if criterion == "proximity":
                prox_map = proximity_region_map(dims)
                prox_dist = build_distance_matrix(prox_map, train.cross_factor)
        try:
            obs = _pair_observations(prev, nxt, cfg)
        except CycleRiskError as exc:
            row.note = f"vision failed: {exc}"
            continue
        dets = ride.detections.get(i, [])
        try:
            assign_magnitude_weights(obs, prev_foe, dims, cfg.foe.ring_radii)
            assign_object_weights(obs, dets)
            refined = refine_foe(obs, hcfg)
            smoothed = smoother.push(i, refined.point)
            prev_foe = smoothed
            row.foe = (float(smoothed[0]), float(smoothed[1]))
            if criterion == "lane":
                rmap = lane_region_map(smoothed, dims)
                dist = build_distance_matrix(rmap, train.cross_factor)
            else:
                rmap, dist = prox_map, prox_dist
            desc = risk_descriptor(dets, rmap, risk_params, frame=i)
            verdict = classify_risk(desc, train, dist, k=cfg.emd.k)
            row.level = verdict.level
            result.descriptors.append(desc)
        except CycleRiskError as exc:
            row.note = f"skipped: {exc}"

    result.frames = [rows[i] for i in processed]
    result.segments = segment_modes(result.windows, result.frames, ride.stream)
    return result


def _gps_at(stream: SensorStream, t: float):
    j = int(np.argmin(np.abs(stream.t - t)))
    if abs(float(stream.t[j]) - t) > GPS_JOIN_TOLERANCE:
        return None
    return (float(stream.lon[j]), float(stream.lat[j]))


def segment_modes(windows: list[WindowRow], frames: list[FrameRow],
                  stream: SensorStream) -> list[dict]:
    """Merge same-label window runs into contiguous time segments.

    Segment boundaries sit halfway between the centers of the windows on
    either side of a label change; the first and last segments extend to
    the ends of the sensor log. Each segment carries a histogram of the
    risk levels of the frames inside its span.
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
        coords = _polyline(stream, lo, hi)
        hist = {}
        for row in frames:
            if row.level is not None and _in_span(row.t, lo, hi, r, len(runs)):
                hist[row.level] = hist.get(row.level, 0) + 1
        segments.append({"mode": windows[a].label, "coords": coords,
                         "start_t": lo, "end_t": hi, "risk": hist})
    return segments


def _in_span(t: float, lo: float, hi: float, r: int, n: int) -> bool:
    # half-open spans except the last, so every frame lands in exactly one
    return t >= lo and (t <= hi if r == n - 1 else t < hi)


def _polyline(stream: SensorStream, lo: float, hi: float) -> list:
    sel = (stream.t >= lo) & (stream.t <= hi)
    ts = stream.t[sel]
    lons = stream.lon[sel]
    lats = stream.lat[sel]
    if ts.size == 0:
        return []
    keep = [0]
    for j in range(1, ts.size):
        if ts[j] - ts[keep[-1]] >= POLYLINE_STEP or j == ts.size - 1:
            keep.append(j)
    return [(float(lons[j]), float(lats[j])) for j in keep]


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
