"""Ride-analysis benchmark for cyclerisk.

    python3 bench/run.py --workload ride_busy --seed 11 --seconds 35 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`. Each run builds its inputs with `cyclerisk.synth` from `--seed`,
then repeats the workload's cycle of user commands (`train-behavior`,
`classify-behavior`, `analyze`, each through `cyclerisk.cli.main` with a
user's argv) one at a time in this process, for about `--seconds` seconds.

With `--trace 0` it prints the end-to-end metrics. With `--trace 1` it
alternates untraced and traced cycles and prints per-layer metrics: self
seconds per cycle for each layer (see tracing.LAYERS), counts of the work
done at the layer boundaries, and the tracing overhead.

Every run checks the outputs: each command exits 0, repeated commands write
byte-identical files, risk levels and transport modes agree with the synthetic
ground truth, and a traced cycle calls each layer as often as expected. A
failed check prints `"correct": false` with no metrics and exits 1. The last
line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing as tr

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

STRIDE = 5            # frame stride between flow pairs
SETUP_REPEATS = 3     # setups per untraced run; setup_s is their median
SETUP_OP = 0          # operation id of the traced set-up
OUTPUTS = {
    "train": ("model.cymd",),
    "label": ("windows.ndjson", "report.geojson"),
    "analyze": ("descriptors.cydr", "frames.ndjson", "windows.ndjson",
                "report.geojson"),
}
# the 30-minute three-mode schedule of the acceptance suite's ride_suite
LONG_SCHEDULE = "walk:360,bike:300,motor:240,bike:240,walk:180,motor:240,bike:240"


@dataclass(frozen=True)
class Workload:
    name: str
    criterion: str
    ride: str               # schedule of the analyzed ride
    train_ride: str         # schedule of the ride the mode model learns from
    train_seed: int         # its seed, fixed like the reference descriptors
    detections: bool        # scripted road users on every bike frame pair
    frames: bool            # render frames over the whole ride
    clip: tuple = ()        # (start s, frame count): frames over a short span
    rfe_top: int = 0        # train-behavior --rfe-top, 0 for all features
    cycle: tuple = ("train", "label", "analyze")   # operations, in order
    fastest: tuple = ()     # operations timed by their fastest run, not the median
    fps: float = 5.0
    size: str = "240x180"
    items_per_level: int = 30
    min_level_agreement: float = 1.0
    min_mode_accuracy: float = 1.0

    def ride_seed(self, seed: int) -> int:
        """Seed of the analyzed ride: `seed`, moved past train_seed when both
        rides follow one schedule, so the model is never scored on its own
        training ride."""
        if self.ride == self.train_ride and seed >= self.train_seed:
            return seed + 1
        return seed


# Why each workload was chosen, and the layers it stresses, is written beside
# it in BENCHMARK.json. Analyze dominates a ride cycle. Its quick commands
# (about 50 and 10 ms) run many times a cycle and report their fastest run:
# on a shared host the median of so short an operation follows the host's
# load from run to run, and the fastest of many runs moves far less. An
# operation of seconds, run a few times, finds no quiet moment to time, so
# it reports its median.
RIDE_CYCLE = ("train", "label", "label") * 20 + ("analyze",)
WORKLOADS = {w.name: w for w in (
    Workload(
        name="ride_busy",
        criterion="proximity", ride="bike:40", train_ride="walk:60,bike:60,motor:60",
        train_seed=1,
        detections=True, frames=True,
        cycle=RIDE_CYCLE, fastest=("train", "label"),
        min_level_agreement=0.9),
    Workload(
        name="ride_quiet",
        criterion="lane", ride="bike:40", train_ride="walk:60,bike:60,motor:60",
        train_seed=1,
        detections=False, frames=True,
        cycle=RIDE_CYCLE, fastest=("train", "label")),
    Workload(
        name="modes_long",
        criterion="lane", ride=LONG_SCHEDULE, train_ride=LONG_SCHEDULE,
        train_seed=2024,
        detections=False, frames=False, clip=(400.0, 11), rfe_top=8,
        cycle=("train", "label", "analyze", "label", "analyze", "label"),
        min_mode_accuracy=0.97),
)}

END_TO_END_UNITS = {"setup_s": "s", "analyze_s": "s", "train_s": "s",
                    "label_s": "s", "peak_rss_mb": "MB",
                    "level_agreement": "fraction", "mode_accuracy": "fraction"}


class CheckFailed(Exception):
    pass


# ------------------------------------------------------------------- set-up

@dataclass
class Inputs:
    ride: Path
    train_ride: Path
    trainset: Path
    processed: list        # frame indices analyze writes a row for
    expected_level: dict   # frame index -> level the scripted scene realizes
    ride_windows: dict     # window start -> true mode, analyzed ride
    train_windows: int


def cli(argv) -> tuple[int, str]:
    """cyclerisk.cli.main(argv) with its output captured."""
    from cyclerisk.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main([str(a) for a in argv])
        except Exception as exc:   # a traceback is a failed command too
            return 1, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def checked_cli(argv) -> None:
    code, text = cli(argv)
    if code != 0:
        raise CheckFailed(f"set-up command {argv[:4]} exited {code}: {text[-300:]}")


def build_inputs(wl: Workload, seed: int, root: Path) -> Inputs:
    from cyclerisk import fileio
    from cyclerisk.risk import lane_region_map, proximity_region_map, risk_descriptor
    from cyclerisk.synth import (FRAME_ZOOM, gen_risk_detections, render_ride_frames,
                                 script_detections)

    root.mkdir(parents=True)
    ride, train_ride = root / "ride", root / "train_ride"
    seed = wl.ride_seed(seed)
    checked_cli(["--seed", seed, "gen-ride", "--out", ride,
                 "--schedule", wl.ride, "--fps", wl.fps, "--size", wl.size])
    checked_cli(["--seed", wl.train_seed, "gen-ride", "--out", train_ride,
                 "--schedule", wl.train_ride])
    w, h = (int(v) for v in wl.size.split("x"))
    if wl.frames:
        # Frames as `gen-ride --frames` renders them, but only the ones
        # analyze reads: frame STRIDE*j of zoom z is frame j of zoom z**STRIDE.
        duration = sum(float(part.split(":")[1]) for part in wl.ride.split(","))
        n_frames = int(duration * wl.fps) + 1
        (ride / "frames").mkdir()
        for j, img in render_ride_frames((w, h), (n_frames - 1) // STRIDE + 1,
                                         seed=seed, zoom=FRAME_ZOOM ** STRIDE):
            fileio.write_pgm(ride / "frames" / fileio.frame_filename(STRIDE * j), img)
        if wl.detections:
            # the ride is all bike, so every frame pair is scripted, as gen-ride does
            fileio.write_detections(ride / "detections.ndjson", script_detections(
                (w, h), list(range(0, n_frames - STRIDE, STRIDE)), seed=seed))
    if wl.clip:
        start, count = wl.clip
        meta = fileio.read_ride_meta(ride / "ride.json")
        meta["frame_start"] = start
        fileio.write_ride_meta(ride / "ride.json", meta)
        (ride / "frames").mkdir()
        for k, img in render_ride_frames((w, h), count, seed=seed):
            fileio.write_pgm(ride / "frames" / fileio.frame_filename(k), img)

    # reference descriptors built as the acceptance gate g12 builds them
    rmap = (proximity_region_map((w, h)) if wl.criterion == "proximity"
            else lane_region_map((w / 2.0, h / 2.0), (w, h)))
    sets = []
    for level in (1, 2, 3):
        descs = [risk_descriptor(
            gen_risk_detections(rmap, level, seed=1000 * level + s, frame=s),
            rmap, frame=s) for s in range(wl.items_per_level)]
        path = root / f"level{level}.cydr"
        fileio.write_descriptors(path, wl.criterion, descs)
        sets.append(f"{level}:{path}")
    trainset = root / "train.cyts"
    checked_cli(["train-risk", *sets, "--out", trainset])

    indices = {i for i, _ in fileio.list_frames(ride / "frames")}
    processed = sorted(i for i in indices if i % STRIDE == 0 and i + STRIDE in indices)
    if wl.detections:
        # gen-ride scripts levels 1, 2, 3 in turn over the bike frame pairs,
        # which are all pairs on the all-bike ride of ride_busy
        expected = {i: 1 + (i // STRIDE) % 3 for i in processed}
    else:
        expected = {i: 1 for i in processed}
    return Inputs(
        ride=ride, train_ride=train_ride, trainset=trainset,
        processed=processed, expected_level=expected,
        ride_windows=dict(fileio.read_window_labels(ride / "labels.ndjson")),
        train_windows=len(fileio.read_window_labels(train_ride / "labels.ndjson")))


# --------------------------------------------------------------- operations

class Run:
    """State of one benchmark run: samples, reference outputs and counts."""

    def __init__(self, wl: Workload, inputs: Inputs, work: Path):
        self.wl = wl
        self.inputs = inputs
        self.samples = {kind: [] for kind in OUTPUTS}
        self.reference = {}       # (kind, file) -> bytes of the first run
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.level_agreement = None
        self.mode_accuracy = None
        self.bike_pairs = None    # frames analyze labeled bike, each a flow pair
        self.out = {kind: work / kind for kind in OUTPUTS}
        self.out["train"].mkdir(parents=True)

    def argv(self, kind: str) -> list:
        i, model = self.inputs, self.out["train"] / "model.cymd"
        if kind == "train":
            return (["train-behavior", "--rides", i.train_ride, "--out", model]
                    + (["--rfe-top", self.wl.rfe_top] if self.wl.rfe_top else []))
        if kind == "label":
            return ["classify-behavior", "--model", model, "--ride", i.ride,
                    "--out", self.out["label"]]
        return ["--criterion", self.wl.criterion, "--set",
                f"vision.frame_stride={STRIDE}", "analyze", i.ride,
                "--out", self.out["analyze"], "--model", model,
                "--trainset", i.trainset]

    def owed(self, kind: str) -> int:
        i = self.inputs
        return {"train": i.train_windows, "label": len(i.ride_windows),
                "analyze": len(i.processed)}[kind]

    def operation(self, kind: str, tracer=None) -> float:
        argv = self.argv(kind)
        gc.collect()   # leave no garbage of the previous operation to this one
        t0 = time.perf_counter()
        if tracer is None:
            code, text = cli(argv)
        else:
            code, text = tracer.operation(len(tracer.counters), kind, cli, argv)
        elapsed = time.perf_counter() - t0
        self.attempted += self.owed(kind)
        if code != 0:
            self.failed += self.owed(kind)
            self.problems.append(f"{kind} exited {code}: {text.strip()[-300:]}")
            return elapsed
        self._check_outputs(kind)
        return elapsed

    def _check_outputs(self, kind: str) -> None:
        for name in OUTPUTS[kind]:
            data = (self.out[kind] / name).read_bytes()
            first = self.reference.setdefault((kind, name), data)
            if data != first:
                self.problems.append(f"{kind}: {name} differs from the first run")
        if kind == "analyze":
            self._check_frames()
        elif kind == "label":
            self._check_windows()

    def _check_frames(self) -> None:
        from cyclerisk import fileio
        rows = [json.loads(line) for line in
                (self.out["analyze"] / "frames.ndjson").read_text().splitlines()]
        self.failed += sum(1 for r in rows if r["note"])
        if [r["frame"] for r in rows] != self.inputs.processed:
            self.problems.append("analyze: processed frames differ from the ride's")
        self.bike_pairs = sum(1 for r in rows if r["mode"] == "bike")
        scored = [r for r in rows if r["level"] is not None]
        hits = sum(1 for r in scored
                   if r["level"] == self.inputs.expected_level.get(r["frame"]))
        self.level_agreement = hits / len(scored) if scored else 0.0
        if self.level_agreement < self.wl.min_level_agreement:
            self.problems.append(
                f"level agreement {hits}/{len(scored)} below "
                f"{self.wl.min_level_agreement}")
        if not self.wl.detections:
            _, descs = fileio.read_descriptors(self.out["analyze"] / "descriptors.cydr")
            if any(d.total > 0.0 for d in descs):
                self.problems.append("a descriptor has mass on a ride without road users")

    def _check_windows(self) -> None:
        rows = [json.loads(line) for line in
                (self.out["label"] / "windows.ndjson").read_text().splitlines()]
        truth = self.inputs.ride_windows
        if sorted(r["start"] for r in rows) != sorted(truth):
            self.problems.append("classify-behavior windows differ from the ride's")
            self.mode_accuracy = 0.0
            return
        hits = sum(1 for r in rows if truth[r["start"]] == r["label"])
        self.mode_accuracy = hits / len(rows)
        if self.mode_accuracy < self.wl.min_mode_accuracy:
            self.problems.append(f"mode accuracy {hits}/{len(rows)} below "
                                 f"{self.wl.min_mode_accuracy}")

    def cycle(self, tracer=None) -> float:
        t0 = time.perf_counter()
        for kind in self.wl.cycle:
            elapsed = self.operation(kind, tracer)
            if tracer is None:
                self.samples[kind].append(elapsed)
        return time.perf_counter() - t0


def timed_loop(seconds: float, step, at_least: int) -> list[float]:
    """Call step() until the next call would end after `seconds`."""
    times = []
    deadline = time.perf_counter() + seconds
    while (len(times) < at_least
           or time.perf_counter() + statistics.median(times) <= deadline):
        times.append(step())
    return times


# ------------------------------------------------------------------ metrics

def end_to_end(run: Run, setups: list[float]) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m = {"setup_s": (statistics.median(setups), f"median of {len(setups)}")}
    for kind in OUTPUTS:
        samples = run.samples[kind]
        if kind in run.wl.fastest:
            m[f"{kind}_s"] = (min(samples), f"fastest of {len(samples)}")
        else:
            m[f"{kind}_s"] = (statistics.median(samples), f"median of {len(samples)}")
    m.update({"peak_rss_mb": (rss_kb / 1024.0, None),
              "level_agreement": (run.level_agreement, None),
              "mode_accuracy": (run.mode_accuracy, None)})
    return {name: (m[name][0], unit, m[name][1]) for name, unit in END_TO_END_UNITS.items()}


def per_layer(tracer, traced_ops: list, untraced: list[float],
              traced: list[float]) -> dict:
    n, ops = len(traced), set(traced_ops)
    selfs = tr.self_times(tracer.spans, ops)
    setup_selfs = tr.self_times(tracer.spans, {SETUP_OP})
    c = {}
    for op in ops:
        for key, val in vars(tracer.counters[op]).items():
            c[key] = c.get(key, 0) + val
    classify_ms = [1000.0 * s.duration for s in tracer.spans
                   if s.op in ops and s.name == "cyclerisk.emd.classify_risk"]

    def ratio(a, b):
        return a / b if b else 0.0

    def pct(q):
        if len(classify_ms) < 2:
            return classify_ms[0] if classify_ms else 0.0
        return statistics.quantiles(classify_ms, n=100, method="inclusive")[q - 1]

    m = {f"{layer}_s": (selfs[layer] / n, "s")
         for layer in tr.layer_names() if not layer.startswith("synth.")}
    m["pipeline.self_s"] = (selfs[tr.ROOT_LAYER] / n, "s")
    m["synth.gen_ride_s"] = (setup_selfs["synth.gen_ride"], "s")
    m["synth.render_s"] = (setup_selfs["synth.render"], "s")
    m.update({
        "emd.classify_ms_p50": (pct(50), "ms"),
        "emd.classify_ms_p90": (pct(90), "ms"),
        "emd.solves": (c["solves"] / n, "count"),
        "emd.solve_frac": (ratio(c["solves"], c["possible_solves"]), "fraction"),
        "vision.flow_tracked_frac": (ratio(c["flow_tracked"], c["flow_points"]), "fraction"),
        "vision.corners_per_pair": (ratio(c["corners"], c["corner_calls"]), "count"),
        "foe.iterations_mean": (ratio(c["foe_iterations"], c["foe_calls"]), "count"),
        "foe.active_flows_mean": (ratio(c["foe_active"], c["foe_calls"]), "count"),
        "risk.empty_frac": (ratio(c["empty_descriptors"], c["descriptors"]), "fraction"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(untraced) - 1.0,
                                "fraction"),
    })
    return {k: (v, unit, None) for k, (v, unit) in sorted(m.items())}


def check_trace(run: Run, tracer, traced_ops: list) -> None:
    """Fail loudly when a wrapper was bypassed or a span escaped its operation."""
    wl = run.wl
    for op in [SETUP_OP, *traced_ops]:
        spans = [s for s in tracer.spans if s.op == op]
        roots = [s for s in spans if s.parent is None]
        if (len(roots) != 1 or roots[0].layer != tr.ROOT_LAYER
                or any(tr.root(s) is not roots[0] for s in spans)):
            run.problems.append(f"trace op {op}: spans recorded outside the operation")
            continue
        kind = roots[0].name.split(".", 1)[1]
        calls = tr.call_counts(tracer.spans, {op})
        for name in expected_calls(kind, wl):
            if not calls.get(name):
                run.problems.append(f"trace: {name} not seen in a traced {kind}; "
                                    "is its wrapper bypassed?")
        if kind == "setup" and calls.get("cyclerisk.synth.gen_ride", 0) != 2:
            run.problems.append("trace: gen_ride did not run once per gen-ride")
        if kind != "analyze":
            continue
        pairs = run.bike_pairs
        for name in _m("vision.flow.lk_flow", "vision.corners.detect_corners",
                       "foe.refine_foe"):
            if calls.get(name, 0) != pairs:
                run.problems.append(f"trace: {name} ran {calls.get(name, 0)} "
                                    f"times for {pairs} bike frame pairs")
        c = tracer.counters[op]
        if not wl.detections and c.solves:
            run.problems.append(f"trace: {c.solves} EMD solves on a ride without road users")
        elif c.solves > c.possible_solves or (c.solves > 0) != (c.possible_solves > 0):
            run.problems.append(f"trace: {c.solves} EMD solves for "
                                f"{c.possible_solves} comparisons")


def _m(*names):
    return tuple(f"cyclerisk.{n}" for n in names)


def expected_calls(kind: str, wl: Workload) -> tuple:
    """Wrapped functions each command of the workload must call."""
    if kind == "setup":
        return _m("synth.gen_ride", "risk.risk_descriptor", "fileio.write_descriptors",
                  *(("synth.render_ride_frames",) if wl.frames or wl.clip else ()))
    sensor = _m("fileio.read_sensor_csv", "behavior.preprocess.preprocess",
                "behavior.preprocess.make_windows", "behavior.features.features_matrix")
    if kind == "train":
        return sensor + _m("behavior.svm.train_svm", "fileio.write_model") + (
            _m("behavior.rfe.ova_rankings", "behavior.rfe.consensus_select")
            if wl.rfe_top else ())
    label = sensor + _m("behavior.svm.SvmModel.decision_values",
                        "behavior.temporal.softmax", "behavior.temporal.smooth_sequence",
                        "fileio.write_report_geojson")
    if kind == "label":
        return label
    return label + _m(
        "fileio.read_pgm", "vision.clahe.clahe", "vision.corners.detect_corners",
        "vision.flow.lk_flow", "foe.refine_foe", "risk.risk_descriptor",
        "emd.classify_risk", "emd.build_distance_matrix", "fileio.write_descriptors",
        "risk.lane_region_map" if wl.criterion == "lane" else "risk.proximity_region_map",
        *(("emd.emd",) if wl.detections else ()))


# -------------------------------------------------------------------- main

def environment() -> dict:
    import numpy
    import scipy
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "loadavg_start": list(os.getloadavg())}


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    """One benchmark run. Returns the result object and what goes with it."""
    env = environment()
    tracer = setups = None
    if trace:
        tracer = tr.Tracer()
        installed = tr.Installed(tracer)
        try:
            inputs = tracer.operation(SETUP_OP, "setup", build_inputs, wl, seed,
                                      work / "setup")
        finally:
            installed.remove()
    else:
        setups = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = build_inputs(wl, seed, work / f"setup{k}")
            setups.append(time.perf_counter() - t0)
            if k + 1 < SETUP_REPEATS:
                shutil.rmtree(work / f"setup{k}")
    run = Run(wl, inputs, work / "ops")

    if trace:
        untraced, traced, traced_ops = [], [], []

        def traced_cycle():
            installed = tr.Installed(tracer)
            first = len(tracer.counters)
            try:
                traced.append(run.cycle(tracer))
            finally:
                installed.remove()
            traced_ops.extend(range(first, len(tracer.counters)))

        def pair():
            # alternate which runs first, so warm-up favours neither side
            t0 = time.perf_counter()
            steps = [lambda: untraced.append(run.cycle()), traced_cycle]
            for step in steps if len(traced) % 2 == 0 else steps[::-1]:
                step()
            return time.perf_counter() - t0

        timed_loop(seconds, pair, at_least=1)
        check_trace(run, tracer, traced_ops)
        metrics = per_layer(tracer, traced_ops, untraced, traced)
    else:
        timed_loop(seconds, run.cycle, at_least=2)
        metrics = end_to_end(run, setups)
    return {"env": env, "run": run, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC_DIR / "cyclerisk" / "__init__.py").is_file():
        print(f"cyclerisk sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    # one operation at a time on one thread: keep BLAS from starting a pool
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))

    wl = WORKLOADS[args.workload]
    work = (Path.cwd() / ".bench_work"
            / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    try:
        result = run_workload(wl, args.seed, args.seconds, bool(args.trace), work)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run = result["run"]
    print("env " + json.dumps(result["env"], sort_keys=True))
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not run.problems
    metrics = {}
    if correct:
        for name, (value, unit, note) in result["metrics"].items():
            print(f"{name} = {value!r} {unit}" + (f" ({note})" if note else ""))
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
