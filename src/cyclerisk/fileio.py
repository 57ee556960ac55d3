"""File formats: frame images, detection and sensor logs, record files, reports.

Every writer is canonical (sorted JSON keys, shortest-round-trip float text,
fixed separators), so write(read(f)) reproduces f byte for byte and repeated
runs produce identical output. Binary record files open with a 4-byte magic,
a space, a semantic version, and a newline; the body is canonical JSON.
See docs/formats.md for the full layout of each format.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .behavior.stream import SensorStream
from .behavior.svm import BinarySvm, KernelSpec, SvmModel
from .emd import RiskTrainingSet, TrainingItem
from .errors import InvalidInputError, RecordParseError
from .risk import Detection, RiskDescriptor

MAGIC_DESCRIPTORS = b"CYDR"
MAGIC_TRAINING = b"CYTS"
MAGIC_MODEL = b"CYMD"
FORMAT_VERSION = "1.0.0"

SENSOR_HEADER = "t,ax,ay,az,gx,gy,gz,speed,lat,lon,acc"


# ---------------------------------------------------------------- JSON core

def canonical_json(obj) -> str:
    """Stable, minimal JSON text; floats keep shortest exact repr."""
    try:
        return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError as exc:
        raise InvalidInputError(f"value not serializable: {exc}") from exc


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _float_list(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=np.float64)]


def write_ndjson(path, lines) -> None:
    """Write text lines, each ended by a newline; no lines, an empty file."""
    Path(path).write_text("".join(line + "\n" for line in lines),
                          encoding="utf-8")


def _numbered_lines(path):
    """(line number, text) for each nonblank line of a text file."""
    text = Path(path).read_text(encoding="utf-8")
    return [(n, line) for n, line in enumerate(text.splitlines(), 1)
            if line.strip()]


# ----------------------------------------------------------------- PGM (P5)

def write_pgm(path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise InvalidInputError("PGM writer expects a 2-D uint8 array")
    h, w = image.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.tobytes())


def read_pgm(path) -> np.ndarray:
    path = Path(path)
    raw = path.read_bytes()
    if not raw.startswith(b"P5"):
        raise RecordParseError("not a binary PGM (P5) file", path=str(path))
    # header: magic, width, height, maxval, separated by whitespace; comments allowed
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit():
            raise RecordParseError(f"bad PGM header token {token!r}", path=str(path))
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise RecordParseError(f"unsupported PGM maxval {maxval}", path=str(path))
    data = raw[pos:pos + w * h]
    if len(data) != w * h:
        raise RecordParseError(f"PGM payload truncated: {len(data)} of {w * h} bytes",
                               path=str(path))
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w).copy()


def frame_filename(index: int) -> str:
    return f"frame_{index:06d}.pgm"


_FRAME_RE = re.compile(r"frame_(\d{6})\.pgm$")


def list_frames(directory) -> list[tuple[int, Path]]:
    """Sorted (index, path) pairs for all frame files in a directory."""
    directory = Path(directory)
    out = []
    for p in sorted(directory.glob("frame_*.pgm")):
        m = _FRAME_RE.search(p.name)
        if m:
            out.append((int(m.group(1)), p))
    return out


# ------------------------------------------------------------- detections

def write_detections(path, detections) -> None:
    write_ndjson(path, (canonical_json({
        "frame": int(det.frame),
        "class": det.label,
        "score": float(det.score),
        "bbox": _float_list(det.bbox),
    }) for det in detections))


def read_detections(path) -> list[Detection]:
    path = Path(path)
    out = []
    for lineno, line in _numbered_lines(path):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordParseError(f"bad JSON: {exc.msg}", path=str(path),
                                  line=lineno) from exc
        try:
            frame = int(rec["frame"])
            label = str(rec["class"])
            score = float(rec["score"])
            bbox = tuple(float(v) for v in rec["bbox"])
        except (KeyError, TypeError, ValueError) as exc:
            raise RecordParseError(f"bad detection record: {exc}", path=str(path),
                                  line=lineno) from exc
        if len(bbox) != 4:
            raise RecordParseError("bbox must have 4 entries", path=str(path),
                                  line=lineno)
        if any(not math.isfinite(v) for v in (score, *bbox)):
            raise RecordParseError("non-finite value in detection", path=str(path),
                                  line=lineno)
        try:
            out.append(Detection(frame=frame, label=label, score=score, bbox=bbox))
        except InvalidInputError as exc:
            raise RecordParseError(str(exc), path=str(path), line=lineno) from exc
    return out


# ------------------------------------------------------------- sensor CSV

_SENSOR_FIELDS = ("t", "ax", "ay", "az", "gx", "gy", "gz", "speed", "lat", "lon", "acc")


def write_sensor_csv(path, stream: SensorStream) -> None:
    rows = [SENSOR_HEADER]
    cols = [getattr(stream, f) for f in _SENSOR_FIELDS]
    for i in range(len(stream)):
        rows.append(",".join(repr(float(c[i])) for c in cols))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_sensor_csv(path) -> SensorStream:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != SENSOR_HEADER:
        raise RecordParseError(f"header must be {SENSOR_HEADER!r}", path=str(path),
                              line=1)
    columns: list[list[float]] = [[] for _ in _SENSOR_FIELDS]
    prev_t = None
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(_SENSOR_FIELDS):
            raise RecordParseError(f"expected {len(_SENSOR_FIELDS)} fields, "
                                   f"got {len(parts)}", path=str(path), line=lineno)
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise RecordParseError(f"bad number: {exc}", path=str(path),
                                  line=lineno) from exc
        if any(not math.isfinite(v) for v in values):
            raise RecordParseError("non-finite sensor value", path=str(path),
                                  line=lineno)
        if prev_t is not None and values[0] <= prev_t:
            raise RecordParseError(
                f"timestamp {values[0]!r} does not increase past {prev_t!r}",
                path=str(path), line=lineno)
        prev_t = values[0]
        for col, v in zip(columns, values):
            col.append(v)
    if not columns[0]:
        raise RecordParseError("no samples", path=str(path), line=2)
    data = {f: np.array(c) for f, c in zip(_SENSOR_FIELDS, columns)}
    return SensorStream(**data)


# ------------------------------------------------- magic-framed record files

def _write_record(path, magic: bytes, body: dict) -> None:
    text = canonical_json(body)
    Path(path).write_bytes(magic + b" " + FORMAT_VERSION.encode("ascii") + b"\n"
                           + text.encode("utf-8") + b"\n")


def _read_record(path, magic: bytes) -> dict:
    path = Path(path)
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    if nl < 0 or len(raw) < 6:
        raise RecordParseError("missing record header", path=str(path), line=1)
    head = raw[:nl]
    if head[:4] != magic or head[4:5] != b" ":
        raise RecordParseError(
            f"magic mismatch: expected {magic.decode()!r}, found "
            f"{head[:4].decode('ascii', 'replace')!r}", path=str(path), line=1)
    version = head[5:].decode("ascii", "replace")
    m = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", version)
    if not m:
        raise RecordParseError(f"bad version {version!r}", path=str(path), line=1)
    if m.group(1) != FORMAT_VERSION.split(".")[0]:
        raise RecordParseError(f"unsupported major version {version}",
                              path=str(path), line=1)
    try:
        return json.loads(raw[nl + 1:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RecordParseError(f"bad record body: {exc}", path=str(path),
                              line=2) from exc


def _finite(values) -> np.ndarray:
    """values as a float64 array whose every entry is finite."""
    arr = np.array(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise InvalidInputError("non-finite number")
    return arr


def write_descriptors(path, criterion: str, descriptors) -> None:
    frames = [{"frame": int(d.frame), "values": _float_list(d.values),
               "skipped_unknown": int(d.skipped_unknown)} for d in descriptors]
    _write_record(path, MAGIC_DESCRIPTORS,
                  {"criterion": criterion, "frames": frames})


def read_descriptors(path) -> tuple[str, list[RiskDescriptor]]:
    body = _read_record(path, MAGIC_DESCRIPTORS)
    try:
        criterion = str(body["criterion"])
        out = [RiskDescriptor(values=np.array(f["values"], dtype=np.float64),
                              criterion=criterion, frame=int(f["frame"]),
                              skipped_unknown=int(f.get("skipped_unknown", 0)))
               for f in body["frames"]]
    except (KeyError, TypeError, ValueError, OverflowError,
            InvalidInputError) as exc:
        raise RecordParseError(f"bad descriptor body: {exc}", path=str(path),
                              line=2) from exc
    return criterion, out


def write_training_set(path, train: RiskTrainingSet) -> None:
    _write_record(path, MAGIC_TRAINING, {
        "criterion": train.criterion,
        "cross_factor": float(train.cross_factor),
        "items": [{"values": _float_list(it.values), "level": int(it.level)}
                  for it in train.items],
    })


def read_training_set(path) -> RiskTrainingSet:
    body = _read_record(path, MAGIC_TRAINING)
    try:
        items = [TrainingItem(values=np.array(i["values"], dtype=np.float64),
                              level=int(i["level"])) for i in body["items"]]
        return RiskTrainingSet(criterion=str(body["criterion"]), items=items,
                               cross_factor=float(body.get("cross_factor", 2.0)))
    except (KeyError, TypeError, ValueError, OverflowError,
            InvalidInputError) as exc:
        raise RecordParseError(f"bad training-set body: {exc}", path=str(path),
                              line=2) from exc


def write_model(path, model: SvmModel) -> None:
    binaries = []
    for b in model.binaries:
        binaries.append({
            "sv_x": [_float_list(r) for r in b.sv_x],
            "sv_coef": _float_list(b.sv_coef),
            "bias": float(b.bias),
            "weights": None if b.weights is None else _float_list(b.weights),
        })
    _write_record(path, MAGIC_MODEL, {
        "classes": list(model.classes),
        "kernel": {"name": model.kernel.name, "bandwidth": model.kernel.bandwidth},
        "C": float(model.C),
        "mu": _float_list(model.mu),
        "scale": _float_list(model.scale),
        "feature_mask": [bool(v) for v in model.feature_mask],
        "priors": {k: float(v) for k, v in model.priors.items()},
        "smoother_bandwidth": None if model.smoother_bandwidth is None
        else float(model.smoother_bandwidth),
        "binaries": binaries,
    })


def read_model(path) -> SvmModel:
    body = _read_record(path, MAGIC_MODEL)
    try:
        kern = body["kernel"]
        binaries = tuple(
            BinarySvm(sv_x=_finite(b["sv_x"]).reshape(
                          len(b["sv_coef"]), -1) if b["sv_coef"] else
                      np.zeros((0, len(body["mu"]))),
                      sv_coef=_finite(b["sv_coef"]),
                      bias=float(_finite(b["bias"])),
                      weights=None if b["weights"] is None
                      else _finite(b["weights"]))
            for b in body["binaries"])
        model = SvmModel(
            classes=tuple(str(c) for c in body["classes"]),
            kernel=KernelSpec(str(kern["name"]),
                              None if kern["bandwidth"] is None
                              else float(kern["bandwidth"])),
            C=float(_finite(body["C"])),
            mu=_finite(body["mu"]),
            scale=_finite(body["scale"]),
            binaries=binaries,
            priors={str(k): float(_finite(v)) for k, v in body["priors"].items()},
            feature_mask=np.array(body["feature_mask"], dtype=bool),
            smoother_bandwidth=None if body.get("smoother_bandwidth") is None
            else float(_finite(body["smoother_bandwidth"])),
        )
        if not (model.scale > 0).all():
            raise InvalidInputError("every scale must be > 0")
        return model
    except (KeyError, TypeError, ValueError, OverflowError,
            InvalidInputError) as exc:
        raise RecordParseError(f"bad model body: {exc}", path=str(path),
                              line=2) from exc


# ------------------------------------------------------------------ GeoJSON

def write_report_geojson(path, segments) -> None:
    """Ride report: one LineString feature per mode segment.

    Each segment is a dict with keys mode, coords ([(lon, lat), ...]),
    start_t, end_t, risk (level -> frame count; may be empty).
    """
    features = []
    for seg in segments:
        features.append({
            "type": "Feature",
            "geometry": {
                "type": "LineString",
                "coordinates": [[float(lon), float(lat)]
                                for lon, lat in seg["coords"]],
            },
            "properties": {
                "mode": seg["mode"],
                "start_t": float(seg["start_t"]),
                "end_t": float(seg["end_t"]),
                "risk": {str(k): int(v) for k, v in seg.get("risk", {}).items()},
            },
        })
    doc = {"type": "FeatureCollection", "features": features}
    Path(path).write_text(canonical_json(doc) + "\n", encoding="utf-8")


def read_report_geojson(path) -> dict:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise RecordParseError(f"bad GeoJSON: {exc.msg}", path=str(path),
                              line=exc.lineno) from exc
    if doc.get("type") != "FeatureCollection":
        raise RecordParseError("expected a FeatureCollection", path=str(path), line=1)
    return doc


# ------------------------------------------------------------ ride layout

def write_ride_meta(path, meta: dict) -> None:
    Path(path).write_text(canonical_json(meta) + "\n", encoding="utf-8")


def read_ride_meta(path) -> dict:
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise RecordParseError(f"bad ride metadata: {exc.msg}", path=str(path),
                              line=exc.lineno) from exc


def write_window_labels(path, labels) -> None:
    """labels: iterable of (start_index, label) pairs."""
    write_ndjson(path, (canonical_json({"start": int(s), "label": str(lb)})
                        for s, lb in labels))


def read_window_labels(path) -> list[tuple[int, str]]:
    path = Path(path)
    out = []
    for lineno, line in _numbered_lines(path):
        try:
            rec = json.loads(line)
            out.append((int(rec["start"]), str(rec["label"])))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise RecordParseError(f"bad label record: {exc}", path=str(path),
                                  line=lineno) from exc
    return out
