"""File formats: frame images, detection and sensor logs, record files, reports.

Every writer is canonical (sorted string keys, shortest-round-trip float text,
fixed separators; json meets numpy values only in its `default` hook), so
write(read(f)) reproduces f byte for byte and repeated runs produce identical
output. Binary record files open with a 4-byte magic, a space, a semantic
version, and a newline; the body is canonical JSON. See docs/formats.md.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .behavior.stream import SENSOR_FIELDS, SensorStream
from .behavior.svm import BinarySvm, KernelSpec, SvmModel
from .config import usable_bandwidth
from .emd import RiskTrainingSet, TrainingItem
from .errors import InvalidInputError, RecordParseError
from .risk import Detection, RiskDescriptor

MAGIC_DESCRIPTORS = b"CYDR"
MAGIC_TRAINING = b"CYTS"
MAGIC_MODEL = b"CYMD"
FORMAT_VERSION = "1.0.0"

SENSOR_HEADER = ",".join(SENSOR_FIELDS)


# ---------------------------------------------------------------- JSON core

def _numpy_value(obj):
    """json's hook: numpy arrays and real numbers as plain lists and numbers."""
    if isinstance(obj, np.floating):
        return float(obj)   # tolist() leaves a long double as it is
    if isinstance(obj, (np.ndarray, np.integer, np.bool_)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """Stable, minimal JSON text (string keys); floats keep shortest exact repr."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False, default=_numpy_value)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"value not serializable: {exc}") from exc


def parse_json(text: str, what: str, path, line: int = 1):
    """json.loads(text); a text that does not parse raises RecordParseError.

    ValueError covers bad JSON and an integer too long to parse;
    RecursionError, arrays or objects nested too deep. `line` is the line of
    the file that `text` starts on.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise RecordParseError(f"{what}: {getattr(exc, 'msg', exc)}", path=str(path),
                               line=line + getattr(exc, "lineno", 1) - 1) from exc


# the Python types json.loads gives each scalar kind; a bool is not an int here
_JSON_TYPES = {"integer": {int}, "number": {int, float}, "string": {str},
               "boolean": {bool}, "object": {dict}}


def is_json(value, kind: str) -> bool:
    """Whether a parsed JSON value is of `kind`: the one rule the readers apply.

    The kinds are "integer", "number" (an integer or a fraction that converts
    to a finite double: not NaN, Infinity, 1e999 or 10**400), "string",
    "boolean" and "object"; "K list" is an array whose every entry is of kind
    K, and "K or null" is null or of kind K. A boolean is neither an integer
    nor a number, and nothing is coerced: "5" is not a number.
    """
    if kind.endswith(" or null"):
        return value is None or is_json(value, kind[:-len(" or null")])
    if kind.endswith(" list"):
        kind = kind[:-len(" list")]
        if type(value) is not list:
            return False
        if kind not in _JSON_TYPES:     # a list of lists
            return all(is_json(v, kind) for v in value)
        values = value
    else:
        values = (value,)
    if not set(map(type, values)) <= _JSON_TYPES[kind]:
        return False
    try:
        return kind != "number" or all(map(math.isfinite, values))
    except OverflowError:  # an integer past the float range
        return False


def _json_fields(rec, kinds: dict, what: str, path, line: int,
                 defaults: dict | None = None) -> list:
    """rec[key] for each key of `kinds`, which maps a key to its JSON kind.

    A key of `defaults` may be left out and then reads as its default. A
    record that is not an object, a missing key or a value of another kind
    raises RecordParseError naming the key; nothing is coerced.
    """
    if type(rec) is not dict:
        raise RecordParseError(f"{what}: not a JSON object", path=str(path), line=line)
    out = []
    for key, kind in kinds.items():
        if key in rec:
            if not is_json(rec[key], kind):
                rule = "; a number must be finite" if "number" in kind else ""
                raise RecordParseError(f"{what}: {key!r} must be a JSON {kind}{rule}",
                                       path=str(path), line=line)
            out.append(rec[key])
        elif defaults and key in defaults:
            out.append(defaults[key])
        else:
            raise RecordParseError(f"{what}: missing {key!r}", path=str(path), line=line)
    return out


def _float_list(values) -> list[float]:
    return np.asarray(values, dtype=np.float64).tolist()


def write_ndjson(path, lines) -> None:
    """Write text lines, each ended by a newline; no lines, an empty file."""
    Path(path).write_text("".join(line + "\n" for line in lines),
                          encoding="utf-8")


def read_text(path) -> str:
    """A UTF-8 text file with universal newlines, as `Path.read_text` reads it.

    A byte sequence that is not UTF-8 raises RecordParseError naming the line
    it sits on.
    """
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((raw[:exc.start].decode("utf-8") + "x").splitlines())
        raise RecordParseError(f"not UTF-8 text: {exc.reason}", path=str(path),
                               line=line) from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _numbered_lines(path):
    """(line number, text) for each nonblank line of a text file."""
    text = read_text(path)
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
        if not token.isdigit() or len(token) > 9:  # 9 digits: a size no file reaches
            raise RecordParseError(f"bad PGM header token {token[:12]!r}", path=str(path))
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
        rec = parse_json(line, "bad JSON", path, lineno)
        frame, label, score, bbox = _json_fields(
            rec, {"frame": "integer", "class": "string", "score": "number",
                  "bbox": "number list"}, "bad detection record", path, lineno)
        if len(bbox) != 4:
            raise RecordParseError("bbox must have 4 entries", path=str(path),
                                  line=lineno)
        try:
            out.append(Detection(frame=frame, label=label, score=float(score),
                                 bbox=tuple(bbox)))
        except InvalidInputError as exc:
            raise RecordParseError(str(exc), path=str(path), line=lineno) from exc
    return out


# ------------------------------------------------------------- sensor CSV

def write_sensor_csv(path, stream: SensorStream) -> None:
    cols = (getattr(stream, f).tolist() for f in SENSOR_FIELDS)
    rows = [SENSOR_HEADER, *(",".join(map(repr, row)) for row in zip(*cols))]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


_BLOCK_ROWS = 256  # rows per parse block: bounds the temporary strings


def read_sensor_csv(path) -> SensorStream:
    """Parse a sensor log; blank rows are skipped, numbers follow `float()`.

    Rows are parsed in blocks into one array and checked as arrays. A log
    with a bad row reports the first one in file order, found from the same
    arrays; on that row the rules apply in the order field count, number,
    finite, increasing `t`.
    """
    path = Path(path)
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != SENSOR_HEADER:
        raise RecordParseError(f"header must be {SENSOR_HEADER!r}", path=str(path),
                              line=1)
    width = len(SENSOR_FIELDS)
    body, linenos = lines[1:], range(2, len(lines) + 1)
    if all(line.count(",") == width - 1 for line in body):
        n = len(body)
    else:  # a blank row fails the comma count: drop blank rows, keep line numbers
        linenos = [no for no, line in zip(linenos, body) if line.strip()]
        body = [line for line in body if line.strip()]
        n = next((i for i, line in enumerate(body) if line.count(",") != width - 1),
                 len(body))
    if not body:
        raise RecordParseError("no samples", path=str(path), line=2)
    # rows before n have the right field count; parse up to the first bad number
    error = (f"expected {width} fields, got {body[n].count(',') + 1}"
             if n < len(body) else None)
    values = np.empty((width, n))
    for start in range(0, n, _BLOCK_ROWS):
        block = body[start:min(start + _BLOCK_ROWS, n)]
        try:
            parsed = np.fromiter(map(float, ",".join(block).split(",")),
                                 np.float64, width * len(block))
        except ValueError:  # write the block's rows up to its first bad number
            for i, line in enumerate(block, start):
                try:
                    values[:, i] = [float(p) for p in line.split(",")]
                except ValueError as exc:
                    error, n = f"bad number: {exc}", i
                    break
            break
        values[:, start:start + len(block)] = parsed.reshape(-1, width).T
    t = values[0]
    if error is None and np.isfinite(values).all() and (t[1:] > t[:-1]).all():
        return SensorStream(**dict(zip(SENSOR_FIELDS, values)))
    # a row before n that is not finite or whose t does not increase comes first
    values, t = values[:, :n], t[:n]
    finite = np.isfinite(values).all(axis=0)
    bad = ~finite
    bad[1:] |= t[1:] <= t[:-1]
    if bad.any():
        n = int(bad.argmax())
        error = ("non-finite sensor value" if not finite[n] else
                 f"timestamp {float(t[n])!r} does not increase past {float(t[n - 1])!r}")
    raise RecordParseError(error, path=str(path), line=linenos[n])


# ------------------------------------------------- magic-framed record files

def _write_record(path, magic: bytes, body: dict) -> None:
    text = canonical_json(body)
    Path(path).write_bytes(magic + b" " + FORMAT_VERSION.encode("ascii") + b"\n"
                           + text.encode("utf-8") + b"\n")


def _read_record(path, magic: bytes):
    """The parsed JSON body of a record file whose header line checks out."""
    path = Path(path)
    text = read_text(path)
    head, newline, body = text.partition("\n")
    if not newline or len(text) < 6:
        raise RecordParseError("missing record header", path=str(path), line=1)
    if head[:5] != magic.decode() + " ":
        raise RecordParseError(f"magic mismatch: expected {magic.decode()!r}, found "
                               f"{head[:4]!r}", path=str(path), line=1)
    version = head[5:]
    m = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", version)
    if not m:
        raise RecordParseError(f"bad version {version!r}", path=str(path), line=1)
    if m.group(1) != FORMAT_VERSION.split(".")[0]:
        raise RecordParseError(f"unsupported major version {version}",
                              path=str(path), line=1)
    return parse_json(body, "bad record body", path, line=2)


def write_descriptors(path, criterion: str, descriptors) -> None:
    frames = [{"frame": int(d.frame), "values": _float_list(d.values),
               "skipped_unknown": int(d.skipped_unknown)} for d in descriptors]
    _write_record(path, MAGIC_DESCRIPTORS,
                  {"criterion": criterion, "frames": frames})


def read_descriptors(path) -> tuple[str, list[RiskDescriptor]]:
    what = "bad descriptor body"
    criterion, frames = _json_fields(_read_record(path, MAGIC_DESCRIPTORS), {
        "criterion": "string", "frames": "object list"}, what, path, 2)
    fields = [_json_fields(f, {"frame": "integer", "values": "number list",
                               "skipped_unknown": "integer"},
                           f"{what}: frames[{n}]", path, 2, {"skipped_unknown": 0})
              for n, f in enumerate(frames)]
    try:
        return criterion, [RiskDescriptor(values=np.array(values, dtype=np.float64),
                                          criterion=criterion, frame=frame,
                                          skipped_unknown=skipped)
                           for frame, values, skipped in fields]
    except InvalidInputError as exc:
        raise RecordParseError(f"{what}: {exc}", path=str(path), line=2) from exc


def write_training_set(path, train: RiskTrainingSet) -> None:
    _write_record(path, MAGIC_TRAINING, {
        "criterion": train.criterion,
        "cross_factor": float(train.cross_factor),
        "items": [{"values": _float_list(it.values), "level": int(it.level)}
                  for it in train.items],
    })


def read_training_set(path) -> RiskTrainingSet:
    what = "bad training-set body"
    criterion, cross_factor, items = _json_fields(
        _read_record(path, MAGIC_TRAINING),
        {"criterion": "string", "cross_factor": "number", "items": "object list"},
        what, path, 2, {"cross_factor": 2.0})
    fields = [_json_fields(i, {"values": "number list", "level": "integer"},
                           f"{what}: items[{n}]", path, 2)
              for n, i in enumerate(items)]
    try:
        train = RiskTrainingSet(
            criterion=criterion, cross_factor=float(cross_factor),
            items=[TrainingItem(values=np.array(values, dtype=np.float64), level=level)
                   for values, level in fields])
        if not any(it.values.sum() > 0.0 for it in train.items):
            raise InvalidInputError("no item has positive mass")
        return train
    except InvalidInputError as exc:
        raise RecordParseError(f"{what}: {exc}", path=str(path), line=2) from exc


def write_model(path, model: SvmModel) -> None:
    binaries = []
    for b in model.binaries:
        binaries.append({
            "sv_x": _float_list(b.sv_x),
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
    what = "bad model body"
    (classes, kernel, C, mu, scale, feature_mask, priors, smoother_bandwidth,
     binaries) = _json_fields(_read_record(path, MAGIC_MODEL), {
        "classes": "string list", "kernel": "object", "C": "number",
        "mu": "number list", "scale": "number list", "feature_mask": "boolean list",
        "priors": "object", "smoother_bandwidth": "number or null",
        "binaries": "object list"}, what, path, 2, {"smoother_bandwidth": None})
    name, bandwidth = _json_fields(kernel, {"name": "string",
                                            "bandwidth": "number or null"},
                                   f"{what}: kernel", path, 2)
    prior_values = _json_fields(priors, dict.fromkeys(priors, "number"),
                                f"{what}: priors", path, 2)
    machines = [_json_fields(b, {"sv_x": "number list list", "sv_coef": "number list",
                                 "bias": "number", "weights": "number list or null"},
                             f"{what}: binaries[{n}]", path, 2)
                for n, b in enumerate(binaries)]
    d = sum(feature_mask)
    try:
        if (not 2 <= len(set(classes)) == len(classes) == len(machines)
                or set(priors) != set(classes) or len(mu) != d or len(scale) != d
                or any(len(sv_x) != len(sv_coef) or any(len(r) != d for r in sv_x)
                       or weights is not None and len(weights) != d
                       for sv_x, sv_coef, _, weights in machines)):
            raise InvalidInputError("classes, binaries, priors and feature "
                                    "sizes disagree")
        model = SvmModel(
            classes=tuple(classes),
            kernel=KernelSpec(name, None if bandwidth is None else float(bandwidth)),
            C=float(C), mu=np.array(mu, dtype=np.float64),
            scale=np.array(scale, dtype=np.float64),
            binaries=tuple(
                BinarySvm(sv_x=np.array(sv_x, dtype=np.float64).reshape(len(sv_coef), d),
                          sv_coef=np.array(sv_coef, dtype=np.float64), bias=float(bias),
                          weights=None if weights is None
                          else np.array(weights, dtype=np.float64))
                for sv_x, sv_coef, bias, weights in machines),
            priors=dict(zip(priors, map(float, prior_values))),
            feature_mask=np.array(feature_mask, dtype=bool),
            smoother_bandwidth=None if smoother_bandwidth is None
            else float(smoother_bandwidth))
        if not (model.scale > 0).all():
            raise InvalidInputError("every scale must be > 0")
        if not (model.smoother_bandwidth is None or usable_bandwidth(model.smoother_bandwidth)):
            raise InvalidInputError("smoother_bandwidth must be > 0, 2 * it**2 finite and not 0")
        if model.kernel.name == "gaussian" and model.kernel.bandwidth is None:
            raise InvalidInputError("a gaussian model needs its bandwidth")
        return model
    except InvalidInputError as exc:
        raise RecordParseError(f"{what}: {exc}", path=str(path), line=2) from exc


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


# ------------------------------------------------------------ ride layout

def write_ride_meta(path, meta: dict) -> None:
    Path(path).write_text(canonical_json(meta) + "\n", encoding="utf-8")


def read_ride_meta(path) -> dict:
    return parse_json(read_text(path), "bad ride metadata", path)


def write_window_labels(path, labels) -> None:
    """labels: iterable of (start_index, label) pairs."""
    write_ndjson(path, (canonical_json({"start": int(s), "label": str(lb)})
                        for s, lb in labels))


def read_window_labels(path) -> list[tuple[int, str]]:
    path = Path(path)
    out = []
    for lineno, line in _numbered_lines(path):
        rec = parse_json(line, "bad label record", path, lineno)
        out.append(tuple(_json_fields(rec, {"start": "integer", "label": "string"},
                                      "bad label record", path, lineno)))
    return out
