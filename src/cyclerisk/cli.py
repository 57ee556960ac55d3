"""cyclerisk command line.

Subcommands: analyze, train-risk, train-behavior, classify-behavior,
gen-scene, gen-ride, eval. Exit codes: 0 success, 2 input error,
3 config error, 4 numeric/degenerate failure.
"""

from __future__ import annotations

import argparse
import json
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
                     RecordParseError, ZeroMassError)
from .pipeline import (analyze_ride, label_windows, load_ride, segment_modes,
                       write_analysis, write_windows)
from .risk import RiskParams, region_map_for
from .synth import (gen_expansion_scene, gen_ride, render_ride_frames,
                    script_detections)

EVAL_C_GRID = (0.5, 1.0, 10.0, 20.0)
EVAL_KERNELS = ("linear", "poly2", "poly3", "gaussian")

_INPUT_ERRORS = (InvalidInputError, RecordParseError, FileNotFoundError)
_NUMERIC_ERRORS = (DegenerateGeometryError, InsufficientFlowError,
                   ZeroMassError, DegenerateTrainingError,
                   InsufficientDataError, np.linalg.LinAlgError)


# ------------------------------------------------------------- arg parsing

def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidInputError(f"expected X,Y, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_size(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise InvalidInputError(f"expected WxH, got {text!r}")
    w, h = int(parts[0]), int(parts[1])
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
        out.append((mode.strip(), float(dur)))
    return out


def _parse_level_file(text: str) -> tuple[int, str]:
    lvl, sep, path = text.partition(":")
    if not sep or lvl not in ("1", "2", "3"):
        raise InvalidInputError(
            f"labeled descriptor args look like LEVEL:file.cydr, got {text!r}")
    return int(lvl), path


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cyclerisk",
        description="Route risk and transport-mode analysis for recorded rides.")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--criterion", choices=("lane", "proximity"),
                   help="risk partition to use")
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
                    help="outlier fraction in [0,1)")
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
    cfg = load_config(args.config) if args.config else PipelineConfig().validate()
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.criterion is not None:
        overrides.append(f"risk.criterion={args.criterion}")
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

def _load_gamma_profile(path, cfg: PipelineConfig) -> RiskParams:
    base = dict(footprint_height_frac=cfg.risk.footprint_frac,
                footprint_min_height=cfg.risk.footprint_min_px)
    if path is None:
        return RiskParams(**base)
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise RecordParseError(f"bad coefficient profile: {exc.msg}",
                              path=str(path), line=exc.lineno)
    unknown = set(data) - {"class_coeffs", "cell_coeffs"}
    if unknown:
        raise InvalidInputError(
            f"unknown coefficient profile key(s) {sorted(unknown)}")
    if "class_coeffs" in data:
        base["class_coeffs"] = {str(k): float(v)
                                for k, v in data["class_coeffs"].items()}
    if "cell_coeffs" in data:
        cells = [float(v) for v in data["cell_coeffs"]]
        if len(cells) != 25:
            raise InvalidInputError("cell_coeffs must list 25 values")
        base["cell_coeffs"] = np.array([0.0] + cells)
    return RiskParams(**base)


def cmd_analyze(args, cfg: PipelineConfig) -> int:
    ride = load_ride(args.ride)
    model = fileio.read_model(args.model)
    train = fileio.read_training_set(args.trainset)
    params = _load_gamma_profile(args.gamma_profile, cfg)
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
    if args.criterion is not None and args.criterion != criterion:
        raise InvalidInputError(
            f"descriptor files are {criterion!r} but --criterion asked for "
            f"{args.criterion!r}")
    if seen != {1, 2, 3}:
        raise InvalidInputError(
            f"training needs descriptors for levels 1, 2 and 3; got "
            f"{sorted(seen)}")
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
    model = fileio.read_model(args.model)
    ride_dir = Path(args.ride)
    sensors = ride_dir / "sensors.csv" if ride_dir.is_dir() else ride_dir
    stream = fileio.read_sensor_csv(sensors)
    windows = label_windows(stream, model, cfg)
    segments = segment_modes(windows, [], stream)
    for w in windows:
        print(w.to_json())
    for seg in segments:
        print(fileio.canonical_json(
            {"mode": seg["mode"], "start_t": seg["start_t"],
             "end_t": seg["end_t"]}))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_windows(out / "windows.ndjson", windows)
        fileio.write_report_geojson(out / "report.geojson", segments)
    return 0


def cmd_gen_scene(args, cfg: PipelineConfig) -> int:
    w, h = _parse_size(args.size)
    foe = _parse_point(args.foe)
    scene = gen_expansion_scene(foe, n=args.n, noise=args.noise,
                                outlier_frac=args.outliers, seed=cfg.seed,
                                dims=(w, h))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    truth = {"foe": [float(foe[0]), float(foe[1])], "dims": [w, h],
             "n": args.n, "noise": args.noise, "outlier_frac": args.outliers,
             "seed": cfg.seed, "inliers": int(scene.inlier_mask.sum())}
    (out / "truth.json").write_text(fileio.canonical_json(truth) + "\n",
                                    encoding="utf-8")
    fileio.write_ndjson(out / "flows.ndjson", (fileio.canonical_json(
        {"point": [obs.point[0], obs.point[1]],
         "vec": [obs.vector[0], obs.vector[1]],
         "inlier": bool(inlier)})
        for obs, inlier in zip(scene.observations, scene.inlier_mask)))
    print(f"wrote {out}: {args.n} flows, {truth['inliers']} inliers")
    return 0


def cmd_gen_ride(args, cfg: PipelineConfig) -> int:
    schedule = _parse_schedule(args.schedule)
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
        dims = _parse_size(args.size)
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
    if args.task == "risk":
        return _eval_risk(args, cfg)
    return _eval_behavior(args, cfg)


def _eval_risk(args, cfg: PipelineConfig) -> int:
    if not args.trainset:
        raise InvalidInputError("eval --task risk needs --trainset")
    if not args.sets:
        raise InvalidInputError("eval --task risk needs LEVEL:FILE args")
    train = fileio.read_training_set(args.trainset)
    w, h = _parse_size(args.dims)
    rmap = region_map_for(train.criterion, (w / 2.0, h / 2.0), (w, h))
    dist = build_distance_matrix(rmap, train.cross_factor)
    counts = [[0, 0, 0] for _ in range(3)]
    for spec in args.sets:
        level, path = _parse_level_file(spec)
        _, descs = fileio.read_descriptors(path)
        for d in descs:
            got = classify_risk(d, train, dist, k=cfg.emd.k).level
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

    grid = []
    for C in EVAL_C_GRID:
        row = []
        for kname in EVAL_KERNELS:
            model = train_svm(X[train_idx], ytr, C=C, kernel=KernelSpec(kname))
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

    width = 10
    print("behavior loss grid (rows C, columns kernel):")
    print("C".ljust(width) + "".join(k.rjust(width) for k in EVAL_KERNELS))
    for C, row in zip(EVAL_C_GRID, grid):
        print(f"{C:<{width}g}" + "".join(f"{v:>{width}.4f}" for v in row))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.dry_run:
            print(fileio.canonical_json(cfg.to_dict()))
            for line in _inventory(args):
                print(line)
            return 0
        return args.func(args, cfg)
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
