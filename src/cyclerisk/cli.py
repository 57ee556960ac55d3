"""cyclerisk command line.

Subcommands: analyze, train-risk, train-behavior, classify-behavior,
gen-scene, gen-ride, eval. Exit codes: 0 success, 2 input error,
3 config error, 4 numeric/degenerate failure (an SVM solve that stops at its
iteration cap unconverged included), 141 standard output closed early (as
by `| head -1`; 128 + SIGPIPE, as a shell reports it), without a traceback.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .behavior import (KernelSpec, consensus_select, features_matrix, loss,
                       make_windows, ova_rankings, preprocess, train_svm)
from .config import PipelineConfig, apply_overrides, load_config
from .emd import (RiskTrainingSet, TrainingItem, build_distance_matrix,
                  classify_risk)
from .errors import (ConfigError, DegenerateGeometryError,
                     DegenerateTrainingError, InsufficientDataError,
                     InsufficientFlowError, InvalidInputError,
                     RecordParseError, SolverNotConvergedError, ZeroMassError)
from .pipeline import (analyze_ride, label_windows, load_ride, segment_modes,
                       write_analysis, write_windows)
from .risk import RiskParams, region_map_for
from .synth import (MIN_RENDER_SIZE, gen_expansion_scene, gen_ride,
                    render_ride_frames, script_detections)

EXIT_BROKEN_PIPE = 141   # 128 + SIGPIPE
EVAL_C_GRID = (0.5, 1.0, 10.0, 20.0)
EVAL_KERNELS = ("linear", "poly2", "poly3", "gaussian")

# OSError: any OS failure on a path read or written (missing, of the wrong
# kind, not permitted, or a full disk) exits 2, as the OS reports it
_INPUT_ERRORS = (InvalidInputError, RecordParseError, OSError)
_NUMERIC_ERRORS = (DegenerateGeometryError, InsufficientFlowError,
                   ZeroMassError, DegenerateTrainingError,
                   InsufficientDataError, SolverNotConvergedError,
                   np.linalg.LinAlgError)


# ------------------------------------------------------------- arg parsing

def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    try:
        x, y = (float(v) for v in parts)
    except ValueError:
        raise InvalidInputError(f"expected X,Y numbers, got {text!r}") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidInputError(f"point must be finite, got {text!r}")
    return x, y


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise InvalidInputError(f"expected WxH integers, got {text!r}") from None
    if w < 5 or h < 5:
        raise InvalidInputError(f"frame size too small: {text!r}")
    return w, h


def _parse_schedule(text: str) -> list:
    out = []
    for chunk in text.split(","):
        mode, sep, dur = chunk.partition(":")
        if not sep:
            raise InvalidInputError(
                f"schedule entries look like mode:seconds, got {chunk!r}")
        try:
            out.append((mode.strip(), float(dur)))
        except ValueError:
            raise InvalidInputError(
                f"schedule seconds must be a number, got {chunk!r}") from None
    return out


def _parse_level_file(text: str) -> tuple[int, str]:
    lvl, sep, path = text.partition(":")
    if not sep or lvl not in ("1", "2", "3"):
        raise InvalidInputError(
            f"labeled descriptor args look like LEVEL:file.cydr, got {text!r}")
    return int(lvl), path


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by `main`
    (a gain only where `main` runs more than once in a process). No code may
    mutate a list that parsing puts on the namespace: `args.set` can be the
    parser's own default list, so `resolve_config` copies it. The `cmd_*`
    functions are bound at the first build."""
    p = argparse.ArgumentParser(
        prog="cyclerisk",
        description="Route risk and transport-mode analysis for recorded rides.")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--criterion", choices=("lane", "proximity"),
                   help="exit 2 unless the input files use this risk partition")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config value, e.g. vision.lk_window=21")
    p.add_argument("--dry-run", action="store_true",
                   help="print the resolved config and input inventory, then stop")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="full ride analysis to report files")
    a.add_argument("ride", help="ride directory")
    a.add_argument("--out", required=True, help="output directory")
    a.add_argument("--model", required=True, help="behavior model (.cymd)")
    a.add_argument("--trainset", required=True,
                   help="risk reference descriptors (.cyts)")
    a.add_argument("--gamma-profile", help="JSON risk-coefficient override file")
    a.set_defaults(func=cmd_analyze,
                   inputs=("ride", "model", "trainset", "gamma_profile"))

    tr = sub.add_parser("train-risk", help="bundle labeled descriptors into a "
                        "reference training set")
    tr.add_argument("sets", nargs="+", metavar="LEVEL:FILE",
                    help="descriptor files labeled 1, 2 or 3")
    tr.add_argument("--out", required=True, help="output .cyts file")
    tr.set_defaults(func=cmd_train_risk, inputs=())

    tb = sub.add_parser("train-behavior", help="train the transport-mode model")
    tb.add_argument("--rides", nargs="+", required=True,
                    help="ride directories with sensors.csv and labels.ndjson")
    tb.add_argument("--out", required=True, help="output .cymd file")
    tb.add_argument("--rfe-top", type=int, metavar="M",
                    help="keep only the top-M consensus-ranked features")
    tb.set_defaults(func=cmd_train_behavior, inputs=("rides",))

    cb = sub.add_parser("classify-behavior",
                        help="label a ride's windows with a trained model")
    cb.add_argument("--model", required=True, help="behavior model (.cymd)")
    cb.add_argument("--ride", required=True,
                    help="ride directory with sensors.csv")
    cb.add_argument("--out", help="directory for windows.ndjson + report.geojson")
    cb.set_defaults(func=cmd_classify_behavior, inputs=("model", "ride"))

    gs = sub.add_parser("gen-scene", help="synthetic radial-flow scene")
    gs.add_argument("--out", required=True, help="output directory")
    gs.add_argument("--foe", default="240,180", help="true focus X,Y")
    gs.add_argument("--size", default="480x360", help="frame size WxH")
    gs.add_argument("--n", type=int, default=100, help="number of flows")
    gs.add_argument("--noise", type=float, default=0.0, help="flow noise (px)")
    gs.add_argument("--outliers", type=float, default=0.0,
                    help="outlier fraction in [0,1]")
    gs.set_defaults(func=cmd_gen_scene, inputs=())

    gr = sub.add_parser("gen-ride", help="synthetic ride dataset")
    gr.add_argument("--out", required=True, help="output ride directory")
    gr.add_argument("--schedule", required=True,
                    help="mode:seconds list, e.g. walk:60,bike:120")
    gr.add_argument("--frames", action="store_true",
                    help="also render frames and scripted detections")
    gr.add_argument("--fps", type=float, default=5.0, help="frame rate")
    gr.add_argument("--size", default="240x180", help="frame size WxH")
    gr.set_defaults(func=cmd_gen_ride, inputs=())

    ev = sub.add_parser("eval", help="confusion matrices and loss tables")
    ev.add_argument("--task", choices=("risk", "behavior"), required=True)
    ev.add_argument("sets", nargs="*", metavar="LEVEL:FILE",
                    help="risk task: labeled held-out descriptor files")
    ev.add_argument("--trainset", help="risk task: reference .cyts file")
    ev.add_argument("--rides", nargs="*", default=[],
                    help="behavior task: labeled ride directories")
    ev.add_argument("--split", type=float, default=0.25,
                    help="behavior task: held-out fraction")
    ev.add_argument("--dims", default="480x360",
                    help="risk task: frame size the descriptors came from")
    ev.add_argument("--json", dest="json_out",
                    help="also write machine-readable results here")
    ev.set_defaults(func=cmd_eval, inputs=("trainset",))

    return p


def resolve_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    return apply_overrides(cfg, overrides) if overrides else cfg


def _inventory(args) -> list[str]:
    lines = []
    names = getattr(args, "inputs", ())
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            continue
        paths = value if isinstance(value, list) else [value]
        for item in paths:
            q = Path(item)
            if q.is_dir():
                n = sum(1 for _ in q.iterdir())
                lines.append(f"input {q} [directory, {n} entries]")
            elif q.exists():
                lines.append(f"input {q} [{q.stat().st_size} bytes]")
            else:
                lines.append(f"input {q} [missing]")
    for extra in ("sets",):
        for item in getattr(args, extra, None) or []:
            try:
                _, path = _parse_level_file(item)
            except InvalidInputError:
                continue
            q = Path(path)
            state = f"{q.stat().st_size} bytes" if q.exists() else "missing"
            lines.append(f"input {q} [{state}]")
    return lines


# ----------------------------------------------------------------- commands

def _load_gamma_profile(path) -> RiskParams:
    if path is None:
        return RiskParams()
    data = fileio.parse_json(fileio.read_text(path), "bad coefficient profile", path)
    if not isinstance(data, dict):
        raise InvalidInputError("coefficient profile must be a JSON object")
    unknown = set(data) - {"class_coeffs", "cell_coeffs"}
    if unknown:
        raise InvalidInputError(
            f"unknown coefficient profile key(s) {sorted(unknown)}")
    params = {}
    if "class_coeffs" in data:
        coeffs = data["class_coeffs"]
        if not (fileio.is_json(coeffs, "object")
                and fileio.is_json(list(coeffs.values()), "number list")):
            raise InvalidInputError(
                f"{path}: class_coeffs must map class names to finite numbers")
        params["class_coeffs"] = {k: float(v) for k, v in coeffs.items()}
    if "cell_coeffs" in data:
        cells = data["cell_coeffs"]
        if not (fileio.is_json(cells, "number list") and len(cells) == 25):
            raise InvalidInputError(f"{path}: cell_coeffs must list 25 finite numbers")
        params["cell_coeffs"] = np.array([0.0] + [float(v) for v in cells])
    return RiskParams(**params)


def _check_criterion(args, criterion: str, what: str) -> None:
    if args.criterion is not None and args.criterion != criterion:
        raise InvalidInputError(f"{what} {criterion!r} but --criterion asked "
                                f"for {args.criterion!r}")


def _check_output(path, is_dir: bool = False) -> None:
    """Exit 2 before any work when an output file, or directory, cannot be
    made: an existing path must be of its kind, and its nearest existing
    parent must be a directory (a file's own parent; mkdir makes a
    directory's missing parents). A write can still fail (a full disk, a
    race); its OSError exits 2 as well."""
    p = Path(path)
    top = p
    while not top.exists() and top.parent != top:
        top = top.parent
    if top == p:
        if p.is_dir() != is_dir:
            raise InvalidInputError(f"output {p} is {'not ' if is_dir else ''}a directory")
    elif not top.is_dir():
        raise InvalidInputError(f"output {p}: {top} is not a directory")
    elif not is_dir and top != p.parent:
        raise InvalidInputError(f"output {p}: no directory {p.parent}")


def cmd_analyze(args, cfg: PipelineConfig) -> int:
    _check_output(args.out, is_dir=True)
    ride = load_ride(args.ride)
    model = fileio.read_model(args.model)
    train = fileio.read_training_set(args.trainset)
    _check_criterion(args, train.criterion, "training set is")
    params = _load_gamma_profile(args.gamma_profile)
    result = analyze_ride(ride, model, train, cfg, params)
    write_analysis(args.out, result)
    analyzed = sum(1 for f in result.frames if f.level is not None)
    skipped = sum(1 for f in result.frames if f.note)
    print(f"windows: {len(result.windows)}")
    print(f"frames: {len(result.frames)} processed, {analyzed} risk-scored, "
          f"{skipped} skipped")
    print(f"segments: {len(result.segments)}")
    print(f"wrote {Path(args.out) / 'descriptors.cydr'}")
    print(f"wrote {Path(args.out) / 'frames.ndjson'}")
    print(f"wrote {Path(args.out) / 'windows.ndjson'}")
    print(f"wrote {Path(args.out) / 'report.geojson'}")
    return 0


def cmd_train_risk(args, cfg: PipelineConfig) -> int:
    _check_output(args.out)
    items = []
    criterion = None
    seen = set()
    for spec in args.sets:
        level, path = _parse_level_file(spec)
        crit, descs = fileio.read_descriptors(path)
        if criterion is None:
            criterion = crit
        elif crit != criterion:
            raise InvalidInputError(
                f"{path} holds {crit!r} descriptors but earlier files "
                f"held {criterion!r}")
        seen.add(level)
        items.extend(TrainingItem(values=d.values, level=level) for d in descs)
    _check_criterion(args, criterion, "descriptor files are")
    if seen != {1, 2, 3}:
        raise InvalidInputError(
            f"training needs descriptors for levels 1, 2 and 3; got "
            f"{sorted(seen)}")
    if not any(it.values.sum() > 0.0 for it in items):
        raise InvalidInputError("training needs a descriptor with positive mass")
    ts = RiskTrainingSet(criterion=criterion, items=items,
                         cross_factor=cfg.emd.cross_factor)
    fileio.write_training_set(args.out, ts)
    print(f"wrote {args.out}: {len(items)} items, criterion {criterion}")
    return 0


def _load_labeled_rides(ride_dirs):
    xs, ys = [], []
    for d in ride_dirs:
        d = Path(d)
        stream = fileio.read_sensor_csv(d / "sensors.csv")
        labels = dict(fileio.read_window_labels(d / "labels.ndjson"))
        wins = make_windows(preprocess(stream))
        X = features_matrix(wins)
        for w, row in zip(wins, X):
            if w.start not in labels:
                raise InvalidInputError(
                    f"{d}: no label for window starting at sample {w.start}")
            xs.append(row)
            ys.append(labels[w.start])
    if not xs:
        raise InvalidInputError("no labeled windows in the given rides")
    return np.vstack(xs), ys


def cmd_train_behavior(args, cfg: PipelineConfig) -> int:
    _check_output(args.out)
    X, y = _load_labeled_rides(args.rides)
    kernel = KernelSpec(cfg.behavior.kernel, cfg.behavior.bandwidth)
    mask = None
    if args.rfe_top is not None:
        if not 1 <= args.rfe_top <= X.shape[1]:
            raise InvalidInputError(
                f"--rfe-top must be in [1, {X.shape[1]}], got {args.rfe_top}")
        rankings = ova_rankings(X, y, C=cfg.behavior.C)
        mask = consensus_select(rankings, args.rfe_top)
    model = train_svm(X, y, C=cfg.behavior.C, kernel=kernel, feature_mask=mask)
    fileio.write_model(args.out, model)
    picked = "all" if mask is None else str(int(mask.sum()))
    print(f"wrote {args.out}: classes {list(model.classes)}, "
          f"{X.shape[0]} windows, {picked} features, kernel {kernel.name}")
    return 0


def cmd_classify_behavior(args, cfg: PipelineConfig) -> int:
    if args.out:
        _check_output(args.out, is_dir=True)
    model = fileio.read_model(args.model)
    ride_dir = Path(args.ride)
    sensors = ride_dir / "sensors.csv" if ride_dir.is_dir() else ride_dir
    stream = fileio.read_sensor_csv(sensors)
    windows = label_windows(stream, model, cfg)
    segments = segment_modes(windows, [], stream)
    # files first, so a reader that closes stdout early cannot cut them short
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_windows(out / "windows.ndjson", windows)
        fileio.write_report_geojson(out / "report.geojson", segments)
    for w in windows:
        print(w.to_json())
    for seg in segments:
        print(fileio.canonical_json(
            {"mode": seg["mode"], "start_t": seg["start_t"],
             "end_t": seg["end_t"]}))
    return 0


def cmd_gen_scene(args, cfg: PipelineConfig) -> int:
    w, h = _parse_size(args.size)
    foe = _parse_point(args.foe)
    scene = gen_expansion_scene(foe, n=args.n, noise=args.noise,
                                outlier_frac=args.outliers, seed=cfg.seed,
                                dims=(w, h))
    truth = {"foe": [float(foe[0]), float(foe[1])], "dims": [w, h],
             "n": args.n, "noise": args.noise, "outlier_frac": args.outliers,
             "seed": cfg.seed, "inliers": int(scene.inlier_mask.sum())}
    # both texts are serialized before the first write
    truth_text = fileio.canonical_json(truth) + "\n"
    flow_lines = [fileio.canonical_json(
        {"point": [p[0], p[1]], "vec": [v[0], v[1]], "inlier": bool(inlier)})
        for p, v, inlier in zip(scene.points, scene.vectors, scene.inlier_mask)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "truth.json").write_text(truth_text, encoding="utf-8")
    fileio.write_ndjson(out / "flows.ndjson", flow_lines)
    print(f"wrote {out}: {args.n} flows, {truth['inliers']} inliers")
    return 0


def cmd_gen_ride(args, cfg: PipelineConfig) -> int:
    # every argument is checked before the first write
    schedule = _parse_schedule(args.schedule)
    if not 0.0 < args.fps < math.inf:
        raise InvalidInputError(f"--fps must be finite and > 0, got {args.fps}")
    if args.frames:
        dims = _parse_size(args.size)
        if min(dims) < MIN_RENDER_SIZE:
            raise InvalidInputError(f"frame size too small to render: {args.size!r}, "
                                    f"need {MIN_RENDER_SIZE}x{MIN_RENDER_SIZE}")
    ride = gen_ride(schedule, seed=cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_sensor_csv(out / "sensors.csv", ride.stream)
    fileio.write_window_labels(
        out / "labels.ndjson",
        zip((int(s) for s in ride.window_starts), ride.window_labels))
    meta = {"ride_id": f"synth-{cfg.seed}", "fps": args.fps, "frame_start": 0.0,
            "profile": {"age": 30, "gender": "unspecified",
                        "experience": "regular", "suspension": False}}
    fileio.write_ride_meta(out / "ride.json", meta)
    msg = f"wrote {out}: {len(ride.stream)} samples, {len(ride.window_labels)} windows"
    if args.frames:
        duration = sum(d for _, d in schedule)
        n_frames = int(np.floor(duration * args.fps)) + 1
        frame_dir = out / "frames"
        frame_dir.mkdir(exist_ok=True)
        for k, img in render_ride_frames(dims, n_frames, seed=cfg.seed):
            fileio.write_pgm(frame_dir / fileio.frame_filename(k), img)
        stride = cfg.vision.frame_stride
        boundaries = np.cumsum([0.0] + [d for _, d in schedule])
        bike_first = []
        for i in range(0, n_frames - stride, stride):
            t = i / args.fps
            seg = min(int(np.searchsorted(boundaries, t, side="right")) - 1,
                      len(schedule) - 1)
            if schedule[seg][0] == "bike":
                bike_first.append(i)
        dets = script_detections(dims, bike_first, seed=cfg.seed)
        fileio.write_detections(out / "detections.ndjson", dets)
        msg += f", {n_frames} frames, {len(dets)} detections"
    print(msg)
    return 0


def _confusion_text(classes, counts) -> str:
    pct = _row_percent(counts)
    width = max(8, max(len(str(c)) for c in classes) + 2)
    head = "true\\pred".ljust(width) + "".join(str(c).rjust(width)
                                               for c in classes)
    lines = [head]
    for i, c in enumerate(classes):
        row = str(c).ljust(width)
        row += "".join(f"{pct[i][j]:>{width}.1f}" for j in range(len(classes)))
        lines.append(row)
    return "\n".join(lines)


def _row_percent(counts) -> list:
    out = []
    for row in counts:
        s = sum(row)
        out.append([100.0 * v / s if s else 0.0 for v in row])
    return out


def cmd_eval(args, cfg: PipelineConfig) -> int:
    if args.json_out:
        _check_output(args.json_out)
    if args.task == "risk":
        return _eval_risk(args, cfg)
    return _eval_behavior(args, cfg)


def _eval_risk(args, cfg: PipelineConfig) -> int:
    if not args.trainset:
        raise InvalidInputError("eval --task risk needs --trainset")
    if not args.sets:
        raise InvalidInputError("eval --task risk needs LEVEL:FILE args")
    train = fileio.read_training_set(args.trainset)
    _check_criterion(args, train.criterion, "training set is")
    w, h = _parse_size(args.dims)
    rmap = region_map_for(train.criterion, (w / 2.0, h / 2.0), (w, h))
    dist = build_distance_matrix(rmap, train.cross_factor)
    counts = [[0, 0, 0] for _ in range(3)]
    for spec in args.sets:
        level, path = _parse_level_file(spec)
        crit, descs = fileio.read_descriptors(path)
        if crit != train.criterion:
            raise InvalidInputError(
                f"{path} holds {crit!r} descriptors but the training set is "
                f"{train.criterion!r}")
        for d in descs:
            got = classify_risk(d, train, dist, cfg.emd).level
            counts[level - 1][got - 1] += 1
    print("risk confusion (row-normalized %):")
    print(_confusion_text([1, 2, 3], counts))
    payload = {"task": "risk", "levels": [1, 2, 3], "counts": counts,
               "confusion_percent": _row_percent(counts)}
    if args.json_out:
        Path(args.json_out).write_text(fileio.canonical_json(payload) + "\n",
                                       encoding="utf-8")
        print(f"wrote {args.json_out}")
    return 0


def _eval_behavior(args, cfg: PipelineConfig) -> int:
    if not args.rides:
        raise InvalidInputError("eval --task behavior needs --rides")
    if not 0.0 < args.split < 1.0:
        raise InvalidInputError("--split must be in (0, 1)")
    X, y = _load_labeled_rides(args.rides)
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(X.shape[0])
    n_test = max(1, int(round(args.split * X.shape[0])))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if train_idx.size == 0:
        raise InvalidInputError("split leaves no training data")
    ytr = [y[i] for i in train_idx]
    yte = [y[i] for i in test_idx]

    grid = []   # None marks a cell whose training did not converge
    for C in EVAL_C_GRID:
        row = []
        for kname in EVAL_KERNELS:
            try:
                model = train_svm(X[train_idx], ytr, C=C, kernel=KernelSpec(kname))
            except SolverNotConvergedError:
                row.append(None)
                continue
            row.append(loss(model, X[test_idx], yte))
        grid.append(row)

    base = train_svm(X[train_idx], ytr, C=cfg.behavior.C,
                     kernel=KernelSpec(cfg.behavior.kernel,
                                       cfg.behavior.bandwidth))
    pred = base.predict(X[test_idx])
    classes = sorted(set(y))
    pos = {c: i for i, c in enumerate(classes)}
    counts = [[0] * len(classes) for _ in classes]
    for t, g in zip(yte, pred):
        counts[pos[t]][pos[g]] += 1

    width = 12
    print("behavior loss grid (rows C, columns kernel):")
    print("C".ljust(width) + "".join(k.rjust(width) for k in EVAL_KERNELS))
    for C, row in zip(EVAL_C_GRID, grid):
        print(f"{C:<{width}g}" + "".join("unconverged".rjust(width) if v is None
                                         else f"{v:>{width}.4f}" for v in row))
    print(f"confusion at C={cfg.behavior.C:g} {cfg.behavior.kernel} "
          "(row-normalized %):")
    print(_confusion_text(classes, counts))
    payload = {"task": "behavior", "classes": classes,
               "loss_grid": {"C": list(EVAL_C_GRID),
                             "kernels": list(EVAL_KERNELS), "loss": grid},
               "counts": counts, "confusion_percent": _row_percent(counts)}
    if args.json_out:
        Path(args.json_out).write_text(fileio.canonical_json(payload) + "\n",
                                       encoding="utf-8")
        print(f"wrote {args.json_out}")
    return 0


# --------------------------------------------------------------- entrypoint

def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.dry_run:
            print(fileio.canonical_json(cfg.to_dict()))
            for line in _inventory(args):
                print(line)
            code = 0
        else:
            code = args.func(args, cfg)
        sys.stdout.flush()   # a closed pipe fails here, inside the try
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at
        # interpreter exit cannot fail again, and stop quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
