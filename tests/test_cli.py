"""Command-line behavior: flows, gating, determinism, exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cyclerisk import fileio
from cyclerisk.cli import (_parse_level_file, _parse_point, _parse_schedule,
                           _parse_size, _load_gamma_profile, build_parser, main,
                           resolve_config)
from cyclerisk.emd import build_distance_matrix
from cyclerisk.errors import InvalidInputError, RecordParseError
from cyclerisk.pipeline import load_ride
from cyclerisk.risk import DEFAULT_CLASS_COEFFS
from test_fileio import (detection_record, json_file_bytes, label_record, model_bytes,
                         ndjson_bytes, pgm_bytes, record_bytes, ride_meta,
                         sensor_csv_text)
from test_config import formats_key_table
from test_synth import src_env


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _finite_float(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


class TestParsers:
    def test_point(self):
        assert _parse_point("240,180") == (240.0, 180.0)
        for bad in ("240", "a,b", "1,2,3", "nan,5", "5,inf"):
            with pytest.raises(InvalidInputError):
                _parse_point(bad)

    def test_size(self):
        assert _parse_size("480x360") == (480, 360)
        assert _parse_size("240X180") == (240, 180)
        for bad in ("480", "3x3", "abcx40", "40x4.5", "1x2x3"):
            with pytest.raises(InvalidInputError):
                _parse_size(bad)

    def test_schedule(self):
        assert _parse_schedule("walk:60,bike:120") == [("walk", 60.0),
                                                       ("bike", 120.0)]
        for bad in ("walk60", "bike:abc", "bike:"):
            with pytest.raises(InvalidInputError):
                _parse_schedule(bad)

    def test_level_file(self):
        assert _parse_level_file("2:a.cydr") == (2, "a.cydr")
        with pytest.raises(InvalidInputError):
            _parse_level_file("4:a.cydr")
        with pytest.raises(InvalidInputError):
            _parse_level_file("a.cydr")


class TestGammaProfile:
    def test_none_uses_config(self):
        # without a profile the coefficients are the defaults; the footprint
        # is no coefficient and comes from cfg.risk alone
        params = _load_gamma_profile(None)
        assert params.class_coeffs == DEFAULT_CLASS_COEFFS
        assert params.cell_coeffs is None

    def test_file_overrides(self, tmp_path):
        p = tmp_path / "gamma.json"
        p.write_text(json.dumps({"class_coeffs": {"car": 0.5},
                                 "cell_coeffs": [0.1] * 25}))
        params = _load_gamma_profile(p)
        assert params.class_coeffs == {"car": 0.5}
        assert params.cell_coeffs.shape == (26,)
        assert params.cell_coeffs[0] == 0.0
        assert (params.cell_coeffs[1:] == 0.1).all()

    def test_wrong_cell_count(self, tmp_path):
        p = tmp_path / "gamma.json"
        p.write_text(json.dumps({"cell_coeffs": [0.1] * 24}))
        with pytest.raises(InvalidInputError, match="25"):
            _load_gamma_profile(p)

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "gamma.json"
        p.write_text(json.dumps({"gammas": []}))
        with pytest.raises(InvalidInputError, match="unknown"):
            _load_gamma_profile(p)

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "gamma.json"
        p.write_bytes(b'{"class_coeffs": {"\xff": 0.5}}')
        with pytest.raises(RecordParseError, match="UTF-8"):
            _load_gamma_profile(p)

    @pytest.mark.parametrize("body", [
        "5", '{"class_coeffs": {"car": "abc"}}', '{"cell_coeffs": 3}',
        json.dumps({"cell_coeffs": [True] + [0.1] * 24})])
    def test_malformed_profile_exit_2(self, e2e_workspace, tmp_path, capsys,
                                      body):
        p = tmp_path / "gamma.json"
        p.write_text(body)
        rc, _, err = run(capsys, "--criterion", "proximity", "analyze",
                         str(e2e_workspace["ride_bike"]),
                         "--out", str(tmp_path / "o"),
                         "--model", str(e2e_workspace["model"]),
                         "--trainset", str(e2e_workspace["trainset"]),
                         "--gamma-profile", str(p))
        assert rc == 2
        assert "input error" in err


class TestResolveConfig:
    def test_set_overrides(self):
        args = build_parser().parse_args(
            ["--set", "emd.k=3", "--seed", "9", "gen-scene", "--out", "x"])
        cfg = resolve_config(args)
        assert cfg.emd.k == 3
        assert cfg.seed == 9


SUBCOMMANDS = ("analyze", "train-risk", "train-behavior", "classify-behavior",
               "gen-scene", "gen-ride", "eval")
# argv that argparse itself ends: help texts (exit 0) and a usage error (exit 2)
PARSER_EXITS = [["--help"], *([cmd, "--help"] for cmd in SUBCOMMANDS),
                ["--no-such-option", "gen-scene", "--out", "x"]]


def parser_exit(capsys, argv):
    """Exit code, stdout and stderr of a command that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParserReuse:
    """`main` builds the parser once per process and reuses it; no call
    leaves state in it that a later call can see."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_parser_exits_repeat(self, capsys):
        first = []
        for argv in PARSER_EXITS:
            build_parser.cache_clear()   # each argv on a freshly built parser
            first.append(parser_exit(capsys, argv))
        later = [parser_exit(capsys, argv) for argv in PARSER_EXITS]
        assert [code for code, _, _ in first] == [0] * 8 + [2]
        assert all(out for _, out, _ in first[:8])
        assert "unrecognized arguments: --no-such-option" in first[8][2]
        assert later == first

    def test_dry_run_after_overrides(self, e2e_workspace, tmp_path, capsys):
        ws = e2e_workspace
        plain = ["--dry-run", "analyze", str(ws["ride_bike"]), "--out",
                 str(tmp_path / "o"), "--model", str(ws["model"]),
                 "--trainset", str(ws["trainset"])]
        build_parser.cache_clear()
        first = run(capsys, *plain)
        assert first[0] == 0
        # with --seed and no --set, args.set is the parser's own default list
        for head in (["--set", "vision.lk_window=21", "--seed", "5"],
                     ["--seed", "5"], ["--set", "emd.k=3"]):
            rc, out, _ = run(capsys, *head, *plain)
            assert rc == 0 and out != first[1]
        assert run(capsys, *plain) == first

    def test_eval_rides_do_not_carry_over(self, tmp_path, capsys):
        rc, _, err = run(capsys, "eval", "--task", "behavior",
                         "--rides", str(tmp_path / "nope"))
        assert rc == 2 and "nope" in err
        rc, _, err = run(capsys, "eval", "--task", "behavior")
        assert rc == 2 and "needs --rides" in err


class TestAnalyzeOutputs:
    def test_all_bike_ride_full_coverage(self, e2e_workspace):
        rows = [json.loads(line) for line in
                (e2e_workspace["out_bike"] / "frames.ndjson")
                .read_text().splitlines()]
        assert rows, "no frame rows written"
        assert all(r["mode"] == "bike" for r in rows)
        assert all(r["level"] in (1, 2, 3) for r in rows)
        assert all(r["foe"] is not None for r in rows)
        assert all(r["note"] == "" for r in rows)

    def test_walk_frames_carry_no_risk(self, e2e_workspace):
        rows = [json.loads(line) for line in
                (e2e_workspace["out_mixed"] / "frames.ndjson")
                .read_text().splitlines()]
        walk = [r for r in rows if r["mode"] != "bike"]
        bike = [r for r in rows if r["mode"] == "bike"]
        assert walk and bike
        assert all(r["level"] is None and r["foe"] is None for r in walk)
        assert all(r["level"] is not None for r in bike)

    def test_histogram_sums_to_scored_frames(self, e2e_workspace):
        rows = [json.loads(line) for line in
                (e2e_workspace["out_mixed"] / "frames.ndjson")
                .read_text().splitlines()]
        scored = sum(1 for r in rows if r["level"] is not None)
        rep = json.loads((e2e_workspace["out_mixed"] / "report.geojson")
                         .read_text())
        hist_total = sum(sum(f["properties"]["risk"].values())
                         for f in rep["features"])
        assert hist_total == scored

    def test_segments_follow_mode_changes(self, e2e_workspace):
        rep = json.loads((e2e_workspace["out_mixed"] / "report.geojson")
                         .read_text())
        modes = [f["properties"]["mode"] for f in rep["features"]]
        assert all(a != b for a, b in zip(modes, modes[1:]))
        spans = [(f["properties"]["start_t"], f["properties"]["end_t"])
                 for f in rep["features"]]
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 == b0  # contiguous

    def test_descriptors_cover_bike_frames(self, e2e_workspace):
        crit, descs = fileio.read_descriptors(
            e2e_workspace["out_bike"] / "descriptors.cydr")
        assert crit == "proximity"
        rows = [json.loads(line) for line in
                (e2e_workspace["out_bike"] / "frames.ndjson")
                .read_text().splitlines()]
        assert len(descs) == sum(1 for r in rows if r["level"] is not None)

    # the training set fixes the criterion: --criterion only checks it
    @pytest.mark.parametrize("flag", [["--criterion", "proximity"], []],
                             ids=["flag", "no_flag"])
    def test_rerun_byte_identical(self, e2e_workspace, tmp_path, capsys, flag):
        out2 = tmp_path / "again"
        rc, _, _ = run(capsys, *flag, "analyze",
                       str(e2e_workspace["ride_bike"]), "--out", str(out2),
                       "--model", str(e2e_workspace["model"]),
                       "--trainset", str(e2e_workspace["trainset"]))
        assert rc == 0
        for name in ("descriptors.cydr", "frames.ndjson", "windows.ndjson",
                     "report.geojson"):
            assert (out2 / name).read_bytes() == \
                (e2e_workspace["out_bike"] / name).read_bytes(), name

    def test_criterion_mismatch_is_input_error(self, e2e_workspace, tmp_path,
                                               capsys):
        rc, _, err = run(capsys, "--criterion", "lane", "analyze",
                         str(e2e_workspace["ride_bike"]),
                         "--out", str(tmp_path / "x"),
                         "--model", str(e2e_workspace["model"]),
                         "--trainset", str(e2e_workspace["trainset"]))
        assert rc == 2
        assert "lane" in err


def ride_with_frames(root, src, frames):
    """A copy of ride `src` whose frames named in `frames` (index -> image)
    are replaced."""
    ride = root / "ride"
    ride.mkdir()
    for path in sorted(src.rglob("*")):
        dest = ride / path.relative_to(src)
        if path.is_dir():
            dest.mkdir()
        elif path.name not in {fileio.frame_filename(i) for i in frames}:
            dest.symlink_to(path.resolve())
    for i, image in frames.items():
        fileio.write_pgm(ride / "frames" / fileio.frame_filename(i), image)
    return ride


class TestFrameSizes:
    @pytest.mark.parametrize("criterion", ["lane", "proximity"])
    def test_frames_too_small_all_skipped(self, e2e_workspace, short_bike_ride,
                                          tmp_path, capsys, criterion):
        # a proximity ride of such frames used to exit 2: its region map
        # was built before the first pair's try
        tiny = np.full((4, 4), 128, dtype=np.uint8)
        ride = ride_with_frames(tmp_path, short_bike_ride,
                                {i: tiny for i, _ in fileio.list_frames(
                                    short_bike_ride / "frames")})
        trainset = tmp_path / "t.cyts"
        trainset.write_text(e2e_workspace["trainset"].read_text().replace(
            '"criterion":"proximity"', f'"criterion":"{criterion}"'))
        out = tmp_path / "o"
        rc, _, err = run(capsys, "analyze", str(ride), "--out", str(out),
                         "--model", str(e2e_workspace["model"]),
                         "--trainset", str(trainset))
        assert rc == 0, err
        rows = [json.loads(line) for line in
                (out / "frames.ndjson").read_text().splitlines()]
        assert [r["frame"] for r in rows] == [0, 5]
        assert all(r["level"] is None and r["note"] for r in rows)
        assert fileio.read_descriptors(out / "descriptors.cydr") == (criterion, [])

    @pytest.mark.parametrize("first", [5, 10])
    def test_frame_of_another_size_exit_2(self, e2e_workspace, short_bike_ride,
                                          tmp_path, capsys, first):
        # frames from `first` on are larger than frame 0; a pair of two such
        # frames used to be scored against frame 0's size
        frames = {}
        for i, path in fileio.list_frames(short_bike_ride / "frames"):
            if i >= first:
                frames[i] = np.pad(fileio.read_pgm(path), ((0, 60), (0, 80)))
        ride = ride_with_frames(tmp_path, short_bike_ride, frames)
        out = tmp_path / "o"
        rc, _, err = run(capsys, "analyze", str(ride), "--out", str(out),
                         "--model", str(e2e_workspace["model"]),
                         "--trainset", str(e2e_workspace["trainset"]))
        assert rc == 2
        assert fileio.frame_filename(first) in err and "320x240" in err
        assert "240x180" in err and "Traceback" not in err
        assert not out.exists()


class TestClassifyBehavior:
    def test_emits_window_and_segment_lines(self, e2e_workspace, tmp_path,
                                            capsys):
        out = tmp_path / "cb"
        rc, stdout, _ = run(capsys, "classify-behavior",
                            "--model", str(e2e_workspace["model"]),
                            "--ride", str(e2e_workspace["ride_mixed"]),
                            "--out", str(out))
        assert rc == 0
        recs = [json.loads(line) for line in stdout.splitlines()]
        windows = [r for r in recs if "label" in r]
        segments = [r for r in recs if "mode" in r]
        assert windows and segments
        assert {r["label"] for r in windows} <= {"walk", "bike", "motor"}
        assert (out / "report.geojson").exists()
        # the same rows as analyze writes for this ride and model
        written = (out / "windows.ndjson").read_bytes()
        assert written == \
            (e2e_workspace["out_mixed"] / "windows.ndjson").read_bytes()
        assert written.decode().splitlines() == \
            stdout.splitlines()[:len(windows)]


    def test_closed_stdout_ends_quietly(self, e2e_workspace, tmp_path):
        # `classify-behavior ... | head -1` on a 45-minute ride: the reader
        # takes one line and closes the pipe while rows are still coming.
        # The pipe is shrunk to one page so the writer is surely blocked
        # on it at the close, whatever the machine's default capacity.
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("pipe capacity cannot be set on this platform")
        ride = tmp_path / "long"
        assert quiet_main(["--seed", "5", "gen-ride", "--out", str(ride), "--schedule",
                           "walk:900,bike:900,motor:900"])[0] == 0
        read_end, write_end = os.pipe()
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        child = subprocess.Popen(
            [sys.executable, "-m", "cyclerisk.cli", "classify-behavior",
             "--model", str(e2e_workspace["model"]), "--ride", str(ride)],
            stdout=write_end, stderr=subprocess.PIPE, env=src_env())
        os.close(write_end)
        line = b""
        while not line.endswith(b"\n"):
            chunk = os.read(read_end, 1)
            assert chunk, "no line before the end of output"
            line += chunk
        os.close(read_end)
        _, err = child.communicate(timeout=60)
        assert json.loads(line)["start"] == 0
        assert b"Traceback" not in err, err.decode()
        assert err == b""
        assert child.returncode == 141


def random_label_ride(root, seed=0):
    """A 10-minute ride whose windows carry coin-flip labels "a" and "b".

    No hyperplane separates them, so at C = 10 the linear machine's solve
    reaches its iteration cap unconverged; poly2, poly3 and gaussian
    converge.
    """
    ride = root / f"coin{seed}"
    assert quiet_main(["--seed", "3", "gen-ride", "--out", str(ride),
                       "--schedule", "walk:300,bike:300"])[0] == 0
    starts = [s for s, _ in fileio.read_window_labels(ride / "labels.ndjson")]
    rng = np.random.default_rng(seed)
    fileio.write_window_labels(ride / "labels.ndjson",
                               [(s, "ab"[int(rng.integers(0, 2))]) for s in starts])
    return ride


class TestUnconvergedSvm:
    def test_train_behavior_exit_4(self, tmp_path, capsys):
        ride = random_label_ride(tmp_path)
        out = tmp_path / "m.cymd"
        rc, _, err = run(capsys, "--set", "behavior.C=10", "train-behavior",
                         "--rides", str(ride), "--out", str(out))
        assert rc == 4
        assert "numeric failure" in err
        assert "class 'a' (C=10, kernel linear)" in err and "KKT gap" in err
        assert not out.exists()

    def test_rfe_exit_4(self, tmp_path, capsys):
        ride = random_label_ride(tmp_path)
        rc, _, err = run(capsys, "--set", "behavior.C=10", "train-behavior",
                         "--rides", str(ride), "--out", str(tmp_path / "m.cymd"),
                         "--rfe-top", "8")
        assert rc == 4
        assert "RFE round" in err and "C=10" in err

    def test_eval_prints_the_cell_and_goes_on(self, tmp_path, capsys):
        ride = random_label_ride(tmp_path)
        out = tmp_path / "beh.json"
        rc, stdout, _ = run(capsys, "--set", "behavior.kernel=gaussian", "eval",
                            "--task", "behavior", "--rides", str(ride),
                            "--json", str(out))
        assert rc == 0
        grid = json.loads(out.read_text())["loss_grid"]["loss"]
        # rows C = 0.5, 1, 10, 20; the linear column is first
        assert [row[0] is None for row in grid] == [False, True, True, True]
        assert all(v is not None for row in grid for v in row[1:])
        lines = stdout.splitlines()
        head = lines.index("behavior loss grid (rows C, columns kernel):")
        assert lines[head + 2].split()[:2] == ["0.5", f"{grid[0][0]:.4f}"]
        assert lines[head + 3].split()[:2] == ["1", "unconverged"]
        assert "confusion at C=1 gaussian" in stdout


class TestTrainRisk:
    def test_criterion_flag_mismatch(self, e2e_workspace, tmp_path, capsys):
        rc, _, err = run(capsys, "--criterion", "lane", "train-risk",
                         f"1:{e2e_workspace['level1']}",
                         f"2:{e2e_workspace['level2']}",
                         f"3:{e2e_workspace['level3']}",
                         "--out", str(tmp_path / "t.cyts"))
        assert rc == 2
        assert "lane" in err

    def test_missing_level_rejected(self, e2e_workspace, tmp_path, capsys):
        rc, _, err = run(capsys, "train-risk",
                         f"1:{e2e_workspace['level1']}",
                         f"2:{e2e_workspace['level2']}",
                         "--out", str(tmp_path / "t.cyts"))
        assert rc == 2
        assert "3" in err

    def test_output_loads_back(self, e2e_workspace):
        ts = fileio.read_training_set(e2e_workspace["trainset"])
        assert ts.criterion == "proximity"
        assert sorted({it.level for it in ts.items}) == [1, 2, 3]
        assert len(ts.items) == 90

    def test_analyze_uses_trainset_cross_factor(self, e2e_workspace,
                                                 tmp_path, capsys,
                                                 monkeypatch):
        # emd.cross_factor is a train-risk setting: analyze reads the
        # factor the training set was built with, as eval does
        import cyclerisk.pipeline
        factors = []

        def spy(region_map, cross_factor=2.0):
            factors.append(cross_factor)
            return build_distance_matrix(region_map, cross_factor)

        monkeypatch.setattr(cyclerisk.pipeline, "build_distance_matrix", spy)
        trainset = tmp_path / "cf3.cyts"
        rc, _, _ = run(capsys, "--set", "emd.cross_factor=3", "train-risk",
                       f"1:{e2e_workspace['level1']}",
                       f"2:{e2e_workspace['level2']}",
                       f"3:{e2e_workspace['level3']}", "--out", str(trainset))
        assert rc == 0
        assert fileio.read_training_set(trainset).cross_factor == 3.0
        frames = []
        for extra in ([], ["--set", "emd.cross_factor=3"]):
            out = tmp_path / f"out{len(extra)}"
            rc, _, _ = run(capsys, "--criterion", "proximity", *extra,
                           "analyze", str(e2e_workspace["ride_bike"]),
                           "--out", str(out),
                           "--model", str(e2e_workspace["model"]),
                           "--trainset", str(trainset))
            assert rc == 0
            frames.append((out / "frames.ndjson").read_bytes())
        assert frames[0] == frames[1]
        assert factors and set(factors) == {3.0}


def zero_mass_copy(src, dest, key, empty=False):
    """A copy of record file `src` whose `key` entries ("frames" or "items")
    all have zero mass, or, with `empty`, are none."""
    head, text = src.read_text().split("\n", 1)
    body = json.loads(text)
    body[key] = [] if empty else [dict(e, values=[0.0] * 25) for e in body[key]]
    dest.write_text(head + "\n" + json.dumps(body) + "\n")
    return dest


class TestZeroMassTrainingSet:
    """Retrieval needs a training item with mass: train-risk writes no set
    without one, and analyze and eval refuse a set without one."""

    def test_train_risk_exit_2_writes_nothing(self, e2e_workspace, tmp_path, capsys):
        sets = [f"{k}:" + str(zero_mass_copy(e2e_workspace[f"level{k}"],
                                             tmp_path / f"{k}.cydr", "frames"))
                for k in (1, 2, 3)]
        rc, _, err = run(capsys, "train-risk", *sets, "--out", str(tmp_path / "t.cyts"))
        assert rc == 2 and "positive mass" in err and "Traceback" not in err
        assert not (tmp_path / "t.cyts").exists()

    @pytest.mark.parametrize("empty", [True, False], ids=["no-items", "all-zero"])
    @pytest.mark.parametrize("command", ["analyze", "eval"])
    def test_set_without_mass_exit_2(self, e2e_workspace, short_bike_ride, tmp_path,
                                     capsys, command, empty):
        ws = e2e_workspace
        trainset = zero_mass_copy(ws["trainset"], tmp_path / "t.cyts", "items", empty)
        argv = {
            "analyze": ["analyze", str(short_bike_ride), "--out", str(tmp_path / "o"),
                        "--model", str(ws["model"]), "--trainset", str(trainset)],
            "eval": ["eval", "--task", "risk", "--trainset", str(trainset),
                     *(f"{k}:{ws[f'level{k}']}" for k in (1, 2, 3)), "--dims", "240x180"],
        }[command]
        rc, out, err = run(capsys, "--criterion", "proximity", *argv)
        assert rc == 2 and "positive mass" in err and "Traceback" not in err
        assert str(trainset) in err
        assert not (tmp_path / "o").exists() and "confusion" not in out


class TestEval:
    def test_risk_identity_on_training_data(self, e2e_workspace, tmp_path,
                                            capsys):
        out = tmp_path / "risk.json"
        rc, stdout, _ = run(capsys, "eval", "--task", "risk",
                            "--trainset", str(e2e_workspace["trainset"]),
                            f"1:{e2e_workspace['level1']}",
                            f"2:{e2e_workspace['level2']}",
                            f"3:{e2e_workspace['level3']}",
                            "--dims", "240x180", "--json", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["confusion_percent"] == [[100.0, 0.0, 0.0],
                                                [0.0, 100.0, 0.0],
                                                [0.0, 0.0, 100.0]]
        assert "100.0" in stdout

    def test_behavior_grid_axes(self, e2e_workspace, tmp_path, capsys):
        out = tmp_path / "beh.json"
        rc, stdout, _ = run(capsys, "eval", "--task", "behavior",
                            "--rides", str(e2e_workspace["train_ride"]),
                            "--json", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["loss_grid"]["C"] == [0.5, 1.0, 10.0, 20.0]
        assert payload["loss_grid"]["kernels"] == ["linear", "poly2", "poly3",
                                                   "gaussian"]
        grid = np.array(payload["loss_grid"]["loss"])
        assert grid.shape == (4, 4)
        assert (grid >= 0).all() and (grid <= 1).all()
        rows = payload["confusion_percent"]
        for row in rows:
            assert sum(row) == pytest.approx(100.0) or sum(row) == 0.0

    @pytest.mark.parametrize("flag", [[], ["--criterion", "proximity"]],
                             ids=["descriptors", "flag"])
    def test_risk_criterion_must_match_trainset(self, e2e_workspace, tmp_path,
                                                capsys, flag):
        # the proximity set relabeled lane: proximity descriptors do not fit
        # it, nor does --criterion proximity, as train-risk and analyze hold
        ws = e2e_workspace
        lane = {name: tmp_path / ws[name].name
                for name in ("trainset", "level1", "level2", "level3")}
        for name, path in lane.items():
            path.write_text(ws[name].read_text().replace(
                '"criterion":"proximity"', '"criterion":"lane"'))
        files = lane if flag else ws
        sets = [f"{k}:{files[f'level{k}']}" for k in (1, 2, 3)]
        rc, stdout, err = run(capsys, *flag, "eval", "--task", "risk",
                              "--trainset", str(lane["trainset"]), *sets,
                              "--dims", "240x180")
        assert rc == 2 and "proximity" in err and "lane" in err
        assert "confusion" not in stdout

    def test_risk_needs_trainset(self, capsys):
        rc, _, err = run(capsys, "eval", "--task", "risk", "1:x.cydr")
        assert rc == 2
        assert "trainset" in err


class TestGenScene:
    def test_truth_and_flows_consistent(self, tmp_path, capsys):
        out = tmp_path / "scene"
        rc, _, _ = run(capsys, "--seed", "5", "gen-scene", "--out", str(out),
                       "--n", "60", "--noise", "0.5", "--outliers", "0.25")
        assert rc == 0
        truth = json.loads((out / "truth.json").read_text())
        flows = [json.loads(line) for line in
                 (out / "flows.ndjson").read_text().splitlines()]
        assert len(flows) == 60
        assert sum(f["inlier"] for f in flows) == truth["inliers"] == 45
        # inlier flow lines pass near the focus; noise dominates only the
        # handful of points with near-zero flow, so check the median
        fx, fy = truth["foe"]
        dists = []
        for f in flows:
            if not f["inlier"]:
                continue
            px, py = f["point"]
            vx, vy = f["vec"]
            dists.append(abs(vx * (py - fy) - vy * (px - fx))
                         / np.hypot(vx, vy))
        assert np.median(dists) < 5.0

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc, _, _ = run(capsys, "--seed", "9", "gen-scene", "--out",
                           str(out), "--n", "40")
            assert rc == 0
        assert (a / "flows.ndjson").read_bytes() == \
            (b / "flows.ndjson").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()


class TestGenRide:
    def test_ride_layout(self, e2e_workspace):
        d = e2e_workspace["ride_bike"]
        assert (d / "sensors.csv").exists()
        assert (d / "labels.ndjson").exists()
        assert (d / "ride.json").exists()
        assert (d / "detections.ndjson").exists()
        meta = fileio.read_ride_meta(d / "ride.json")
        assert meta["fps"] == 5.0
        assert "profile" in meta
        frames = fileio.list_frames(d / "frames")
        assert len(frames) == 201
        img = fileio.read_pgm(frames[0][1])
        assert img.shape == (180, 240)

    def test_labels_align_with_generator(self, e2e_workspace):
        labels = fileio.read_window_labels(
            e2e_workspace["ride_bike"] / "labels.ndjson")
        assert all(lab == "bike" for _, lab in labels)
        assert [s for s, _ in labels] == [0, 50, 100]


class TestDryRunAndExitCodes:
    def test_dry_run_prints_config_and_inventory(self, e2e_workspace, capsys):
        rc, stdout, _ = run(capsys, "--dry-run", "--criterion", "proximity",
                            "analyze", str(e2e_workspace["ride_bike"]),
                            "--out", "/tmp/never", "--model",
                            str(e2e_workspace["model"]), "--trainset",
                            "missing.cyts")
        assert rc == 0
        lines = stdout.splitlines()
        assert "criterion" not in json.loads(lines[0])["risk"]
        inventory = "\n".join(lines[1:])
        assert "missing.cyts [missing]" in inventory
        assert "model.cymd" in inventory

    def test_missing_ride_exit_2(self, e2e_workspace, tmp_path, capsys):
        rc, _, err = run(capsys, "analyze", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "o"),
                         "--model", str(e2e_workspace["model"]),
                         "--trainset", str(e2e_workspace["trainset"]))
        assert rc == 2
        assert "input error" in err

    def test_bad_config_exit_3(self, tmp_path, capsys):
        for bad in ("vision.lk_window=4", "vision.corner_quality=0",
                    "foe.max_refine_iters=0", "foe.smooth_decay=-1",
                    "behavior.smooth_decay=-1", "seed=abc",
                    'foe.max_refine_iters="x"', "emd.k=1.5",
                    "vision.lk_levels=1.5", "emd.cross_factor=NaN",
                    "foe.delta=NaN", "foe.tol=NaN", "foe.smooth_decay=NaN",
                    "behavior.C=NaN", "behavior.smooth_decay=NaN",
                    "behavior.bandwidth=NaN", "risk.footprint_min_px=NaN",
                    "foe.delta=Infinity", "vision.clahe_grid=[1.5,2]",
                    "vision.corner_grid=[2,2.5]",
                    "vision.corner_grid=[true,2]", "seed=5.5", "seed=true",
                    'seed="7"', "seed=-1"):
            rc, _, err = run(capsys, "--set", bad, "gen-scene",
                             "--out", str(tmp_path / "s"))
            assert rc == 3, bad
            assert "config error" in err

    @pytest.mark.parametrize("where", ["set", "config"])
    def test_criterion_key_is_unknown_exit_3(self, e2e_workspace, tmp_path, capsys,
                                             where):
        config = tmp_path / "run.json"
        config.write_text('{"risk": {"criterion": "proximity"}}')
        setting = (["--set", "risk.criterion=proximity"] if where == "set"
                   else ["--config", str(config)])
        rc, out, err = run(capsys, *setting, "analyze",
                           str(e2e_workspace["ride_bike"]), "--out", str(tmp_path / "o"),
                           "--model", str(e2e_workspace["model"]),
                           "--trainset", str(e2e_workspace["trainset"]))
        assert rc == 3
        assert "config error" in err and "criterion" in err
        assert "Traceback" not in err
        assert out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("meta", [
        '{"fps": "abc"}', '{"fps": 5, "frame_start": null}',
        '{"fps": 5, "frame_start": "x"}'])
    def test_bad_ride_meta_exit_2(self, e2e_workspace, tmp_path, capsys,
                                  meta):
        ride = tmp_path / "ride"
        ride.mkdir()
        (ride / "ride.json").write_text(meta)
        (ride / "sensors.csv").write_bytes(
            (e2e_workspace["ride_bike"] / "sensors.csv").read_bytes())
        rc, _, err = run(capsys, "analyze", str(ride),
                         "--out", str(tmp_path / "o"),
                         "--model", str(e2e_workspace["model"]),
                         "--trainset", str(e2e_workspace["trainset"]))
        assert rc == 2
        assert "input error" in err

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")],
                             ids=["Infinity", "NaN"])
    def test_non_finite_training_bin_exit_2(self, e2e_workspace, tmp_path,
                                            capsys, bad):
        head, body = e2e_workspace["trainset"].read_text().split("\n", 1)
        body = json.loads(body)
        body["items"][4]["values"][7] = bad   # json writes Infinity / NaN
        trainset = tmp_path / "bad.cyts"
        trainset.write_text(head + "\n" + json.dumps(body) + "\n")
        rc, _, err = run(capsys, "--criterion", "proximity", "analyze",
                         str(e2e_workspace["ride_bike"]),
                         "--out", str(tmp_path / "o"),
                         "--model", str(e2e_workspace["model"]),
                         "--trainset", str(trainset))
        assert rc == 2
        assert "input error" in err

    def test_overflowing_training_item_exit_2(self, e2e_workspace, tmp_path,
                                              capsys):
        # every bin finite, but the item's total overflows
        head, body = e2e_workspace["trainset"].read_text().split("\n", 1)
        body = json.loads(body)
        body["items"][4]["values"][3] = body["items"][4]["values"][7] = 1e308
        trainset = tmp_path / "bad.cyts"
        trainset.write_text(head + "\n" + json.dumps(body) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, _, err = run(capsys, "--criterion", "proximity", "analyze",
                             str(e2e_workspace["ride_bike"]),
                             "--out", str(tmp_path / "o"),
                             "--model", str(e2e_workspace["model"]),
                             "--trainset", str(trainset))
        assert rc == 2
        assert "finite total" in err
        assert not (tmp_path / "o").exists()

    def test_overflowing_descriptor_exit_2(self, e2e_workspace, tmp_path,
                                           capsys):
        head, body = e2e_workspace["level2"].read_text().split("\n", 1)
        body = json.loads(body)
        body["frames"][0]["values"][0] = body["frames"][0]["values"][1] = 1e308
        level2 = tmp_path / "level2.cydr"
        level2.write_text(head + "\n" + json.dumps(body) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, _, err = run(capsys, "train-risk",
                             f"1:{e2e_workspace['level1']}", f"2:{level2}",
                             f"3:{e2e_workspace['level3']}",
                             "--out", str(tmp_path / "t.cyts"))
        assert rc == 2
        assert "finite total" in err

    def test_non_finite_model_exit_2(self, e2e_workspace, tmp_path, capsys):
        head, body = e2e_workspace["model"].read_text().split("\n", 1)
        body = json.loads(body)
        body["kernel"]["bandwidth"] = float("nan")   # json writes NaN
        model = tmp_path / "bad.cymd"
        model.write_text(head + "\n" + json.dumps(body) + "\n")
        rc, _, err = run(capsys, "classify-behavior", "--model", str(model),
                         "--ride", str(e2e_workspace["train_ride"]))
        assert rc == 2
        assert "input error" in err

    @pytest.mark.parametrize("bandwidth", [0.0, -1.5])
    def test_non_positive_smoother_bandwidth_exit_2(self, e2e_workspace, tmp_path,
                                                    capsys, bandwidth):
        # 0.0 used to smooth at the 1.0 fallback, -1.5 to stop in the smoother
        head, body = e2e_workspace["model"].read_text().split("\n", 1)
        body = json.loads(body)
        body["smoother_bandwidth"] = bandwidth
        model = tmp_path / "bad.cymd"
        model.write_text(head + "\n" + json.dumps(body) + "\n")
        rc, out, err = run(capsys, "classify-behavior", "--model", str(model),
                           "--ride", str(e2e_workspace["train_ride"]))
        assert rc == 2
        assert "smoother_bandwidth must be > 0" in err
        assert out == ""

    def test_underflowing_smoother_bandwidth_exit_2(self, e2e_workspace, tmp_path,
                                                    capsys):
        # 2 * 1e-320**2 is 0: the smoother used to divide by it
        head, body = e2e_workspace["model"].read_text().split("\n", 1)
        body = json.loads(body)
        body["smoother_bandwidth"] = 1e-320
        model = tmp_path / "bad.cymd"
        model.write_text(head + "\n" + json.dumps(body) + "\n")
        rc, out, err = run(capsys, "classify-behavior", "--model", str(model),
                           "--ride", str(e2e_workspace["train_ride"]))
        assert rc == 2
        assert "smoother_bandwidth must be > 0" in err
        assert out == ""

    @pytest.mark.parametrize("setting", [
        # integers too large for a float: they used to pass the config and
        # end in an OverflowError in the stage that read them
        *(f"{key}=1{'0' * 400}" for key in (
            "behavior.bandwidth", "behavior.smooth_decay", "foe.delta",
            "foe.smooth_decay", "risk.footprint_min_px")),
        # 2 * bandwidth**2 underflows to 0, the smoother's divisor
        "behavior.bandwidth=1e-320"],
        ids=lambda s: s if len(s) < 40 else s.split("=")[0] + "=10**400")
    def test_setting_no_stage_can_use_exit_3(self, e2e_workspace, capsys, setting):
        rc, out, err = run(capsys, "--set", setting, "classify-behavior",
                           "--model", str(e2e_workspace["model"]),
                           "--ride", str(e2e_workspace["train_ride"]))
        assert rc == 3
        assert "config error" in err
        assert setting.split("=")[0].split(".")[1] + " must be" in err
        assert out == ""

    @pytest.mark.parametrize("setting, command", [
        # integers past a C integer: they used to pass the config and end in
        # an OverflowError in the stage that read them
        (f"behavior.smooth_window=1{'0' * 400}", "classify-behavior"),
        ("vision.corner_grid=[1,999999999999999999999999999999]", "analyze")],
        ids=["smooth_window=10**400", "corner_grid=[1,10**30-1]"])
    def test_integer_past_cap_exit_3(self, e2e_workspace, capsys, tmp_path, setting,
                                     command):
        inputs = {"classify-behavior": ["--ride", str(e2e_workspace["train_ride"])],
                  "analyze": [str(e2e_workspace["ride_bike"]), "--out",
                              str(tmp_path / "o"), "--trainset",
                              str(e2e_workspace["trainset"])]}[command]
        rc, out, err = run(capsys, "--set", setting, command, "--model",
                           str(e2e_workspace["model"]), *inputs)
        assert rc == 3
        assert "config error" in err and "Traceback" not in err
        assert setting.split("=")[0].split(".")[1] + " must be" in err
        assert out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where", ["bike_pair", "walk_frame_0"])
    def test_truncated_frame(self, e2e_workspace, tmp_path, capsys, where):
        src = e2e_workspace["ride_mixed"]
        ride = tmp_path / "ride"
        (ride / "frames").mkdir(parents=True)
        for name in ("ride.json", "sensors.csv", "detections.ndjson"):
            (ride / name).symlink_to(src / name)
        for p in (src / "frames").iterdir():
            (ride / "frames" / p.name).symlink_to(p)
        rows = [json.loads(line) for line in
                (e2e_workspace["out_mixed"] / "frames.ndjson")
                .read_text().splitlines()]
        bike = [r["frame"] for r in rows if r["mode"] == "bike"]
        assert rows[0]["mode"] != "bike"   # frame 0 is read only in a bike pair
        frame = bike[len(bike) // 2] if where == "bike_pair" else 0
        bad = ride / "frames" / fileio.frame_filename(frame)
        bad.unlink()
        bad.write_bytes((src / "frames" / bad.name).read_bytes()[:-10])
        out = tmp_path / "out"
        rc, _, err = run(capsys, "--criterion", "proximity", "analyze",
                         str(ride), "--out", str(out),
                         "--model", str(e2e_workspace["model"]),
                         "--trainset", str(e2e_workspace["trainset"]))
        if where == "bike_pair":
            assert rc == 2
            assert "truncated" in err
        else:
            assert rc == 0
            for name in ("frames.ndjson", "descriptors.cydr"):
                assert ((out / name).read_bytes()
                        == (e2e_workspace["out_mixed"] / name).read_bytes())

    def test_not_utf8_sensor_log_exit_2(self, e2e_workspace, tmp_path, capsys):
        p = tmp_path / "sensors.csv"
        p.write_bytes((e2e_workspace["ride_bike"] / "sensors.csv").read_bytes()
                      .replace(b"\n", b"\n\xff", 1))
        rc, _, err = run(capsys, "classify-behavior", "--model",
                         str(e2e_workspace["model"]), "--ride", str(p))
        assert rc == 2
        assert "sensors.csv:2: not UTF-8 text" in err

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(sensor_csv_text().map(str.encode), st.binary(max_size=400)))
    def test_garbage_sensor_log_exit_2_3_or_4(self, e2e_workspace,
                                              tmp_path_factory, raw):
        # an odd `t` field such as `1_0` can stretch a drawn log to a full
        # window, which is valid; keep to logs whose first fields, read as
        # Python floats, span less than the trims plus one window (30 s)
        ts = [float(f) for line in raw.decode("latin-1").splitlines()
              for f in line.split(",")[:1] if _finite_float(f)]
        assume(not ts or max(ts) - min(ts) < 30.0)
        p = tmp_path_factory.mktemp("garbage") / "sensors.csv"
        p.write_bytes(raw)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(["classify-behavior", "--model",
                       str(e2e_workspace["model"]), "--ride", str(p)])
        assert rc in (2, 3, 4)

    def test_two_row_log_of_one_window_exit_0(self, e2e_workspace, tmp_path):
        # `1_0` is a number (10.0): 30.2 s of log, one window after the trims
        p = tmp_path / "sensors.csv"
        p.write_bytes(b"t,ax,ay,az,gx,gy,gz,speed,lat,lon,acc\n1_0" + b",0.0" * 10
                      + b"\n40.2" + b",0.0" * 10)
        rc, _ = quiet_main(["classify-behavior", "--model",
                            str(e2e_workspace["model"]), "--ride", str(p)])
        assert rc == 0

    @pytest.mark.parametrize("command", ["classify-behavior", "train-behavior", "analyze"])
    def test_huge_sensor_values_exit_2(self, e2e_workspace, tmp_path, capsys, command):
        # finite samples whose squares overflow: the features are not finite
        src = e2e_workspace["ride_bike"]
        ride = tmp_path / "ride"
        ride.mkdir()
        for name in ("ride.json", "labels.ndjson", "detections.ndjson"):
            (ride / name).write_bytes((src / name).read_bytes())
        (ride / "frames").symlink_to(src / "frames")
        stream = fileio.read_sensor_csv(src / "sensors.csv")
        fileio.write_sensor_csv(ride / "sensors.csv",
                                dataclasses.replace(stream, ax=stream.ax * 1e200))
        model, trainset = str(e2e_workspace["model"]), str(e2e_workspace["trainset"])
        argv = {"classify-behavior": ["classify-behavior", "--model", model,
                                      "--ride", str(ride)],
                "train-behavior": ["train-behavior", "--rides", str(ride),
                                   "--out", str(tmp_path / "m.cymd")],
                "analyze": ["--criterion", "proximity", "analyze", str(ride),
                            "--out", str(tmp_path / "out"), "--model", model,
                            "--trainset", trainset]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert "non-finite features" in err

    @pytest.mark.parametrize("args", [
        ["gen-ride", "--schedule", "bike:40", "--frames", "--size", "abcx40"],
        ["gen-ride", "--schedule", "bike:40", "--frames", "--size", "20x20"],
        ["gen-ride", "--schedule", "bike:40", "--fps", "-5", "--frames"],
        ["gen-ride", "--schedule", "bike:40", "--fps", "nan"],
        ["gen-ride", "--schedule", "bike:40", "--fps", "inf"],
        ["gen-ride", "--schedule", "bike:40", "--fps", "0"],
        ["gen-ride", "--schedule", "bike:abc"],
        ["gen-ride", "--schedule", "bike:nan"],
        ["gen-ride", "--schedule", "bike:inf"],
        ["gen-ride", "--schedule", "bike:1e308"],
        ["gen-scene", "--foe", "a,b"],
        ["gen-scene", "--foe", "inf,5"],
        ["gen-scene", "--noise", "nan"],
        ["gen-scene", "--noise", "inf"],
        # finite, but the noisy flows overflow to infinity, which JSON cannot hold
        ["gen-scene", "--noise", "1e308", "--n", "10"],
    ], ids=lambda a: " ".join(a[1:]))
    def test_bad_generator_args_exit_2_before_writing(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        rc, _, err = run(capsys, args[0], "--out", str(out), *args[1:])
        assert rc == 2
        assert "input error" in err
        assert not out.exists()

    def test_nan_focus_exit_2_without_hanging(self, tmp_path):
        # run apart with a timeout: the scene generator draws points until
        # they clear the focus, so a missing check shows as a hang
        out = tmp_path / "scene"
        done = subprocess.run(
            [sys.executable, "-m", "cyclerisk.cli", "gen-scene", "--out", str(out),
             "--foe", "nan,5"], env=src_env(), capture_output=True, text=True,
            timeout=20)
        assert done.returncode == 2, done.stderr
        assert not out.exists()

    def test_bad_eval_dims_exit_2(self, e2e_workspace, tmp_path, capsys):
        rc, _, err = run(capsys, "eval", "--task", "risk",
                         f"1:{e2e_workspace['level1']}", "--trainset",
                         str(e2e_workspace["trainset"]), "--dims", "480xabc",
                         "--json", str(tmp_path / "eval.json"))
        assert rc == 2
        assert "input error" in err
        assert not (tmp_path / "eval.json").exists()

    def test_single_class_training_exit_4(self, tmp_path, capsys):
        rc, _, _ = run(capsys, "--seed", "3", "gen-ride", "--out",
                       str(tmp_path / "ride"), "--schedule", "walk:60")
        assert rc == 0
        rc, _, err = run(capsys, "train-behavior", "--rides",
                         str(tmp_path / "ride"), "--out",
                         str(tmp_path / "m.cymd"))
        assert rc == 4
        assert "numeric failure" in err

    def test_too_short_ride_exit_4(self, e2e_workspace, tmp_path, capsys):
        import numpy as np
        from cyclerisk.behavior.stream import SensorStream
        n = 250  # 25 s at 10 Hz; trimming both ends leaves under 100 samples
        t = np.arange(n) / 10.0
        z = np.zeros(n)
        s = SensorStream(t=t, ax=z, ay=z, az=z, gx=z, gy=z, gz=z, speed=z,
                         lat=z + 41, lon=z - 8, acc=z + 5)
        d = tmp_path / "short"
        d.mkdir()
        fileio.write_sensor_csv(d / "sensors.csv", s)
        rc, _, err = run(capsys, "classify-behavior", "--model",
                         str(e2e_workspace["model"]), "--ride", str(d))
        assert rc == 4
        assert "numeric failure" in err


def quiet_main(argv):
    """Exit code and standard error of one command, output discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def readable(read, path):
    try:
        read(path)
    except RecordParseError:
        return False
    return True


@pytest.fixture(scope="module")
def short_bike_ride(e2e_workspace, tmp_path_factory):
    """The seed-11 bike ride cut to frames 0-10: two flow pairs to score."""
    src = e2e_workspace["ride_bike"]
    ride = tmp_path_factory.mktemp("short") / "ride"
    (ride / "frames").mkdir(parents=True)
    for name in ("ride.json", "sensors.csv", "detections.ndjson"):
        (ride / name).symlink_to(src / name)
    for _, path in fileio.list_frames(src / "frames")[:11]:
        (ride / "frames" / path.name).symlink_to(path)
    return ride


class TestRecordFuzzExitCodes:
    """A garbage `.cydr` or `.cyts` exits 2, 3 or 4, never with a traceback;
    one the reader takes may also exit 0."""

    @settings(max_examples=60, deadline=None)
    @given(raw=record_bytes(b"CYDR"))
    def test_train_risk_descriptors(self, e2e_workspace, tmp_path_factory, raw):
        root = tmp_path_factory.mktemp("cydr")
        (root / "level2.cydr").write_bytes(raw)
        rc, err = quiet_main(["train-risk", f"1:{e2e_workspace['level1']}",
                              f"2:{root / 'level2.cydr'}",
                              f"3:{e2e_workspace['level3']}",
                              "--out", str(root / "t.cyts")])
        ok = readable(fileio.read_descriptors, root / "level2.cydr")
        assert rc in ((0, 2, 3, 4) if ok else (2,))
        assert "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(raw=record_bytes(b"CYTS"))
    def test_analyze_trainset(self, e2e_workspace, short_bike_ride,
                              tmp_path_factory, raw):
        root = tmp_path_factory.mktemp("cyts")
        (root / "t.cyts").write_bytes(raw)
        rc, err = quiet_main(["--criterion", "proximity", "analyze",
                              str(short_bike_ride), "--out", str(root / "o"),
                              "--model", str(e2e_workspace["model"]),
                              "--trainset", str(root / "t.cyts")])
        ok = readable(fileio.read_training_set, root / "t.cyts")
        assert rc in ((0, 2, 3, 4) if ok else (2,))
        assert "Traceback" not in err


def ride_with(root, src, name, raw):
    """A copy of ride `src` under `root`, linked file by file, whose file
    `name` (relative to the ride) holds `raw` instead."""
    ride = root / "ride"
    for path in sorted(src.rglob("*")):
        if path.is_file():
            dest = ride / path.relative_to(src)
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.symlink_to(path.resolve())
    target = ride / name
    target.unlink(missing_ok=True)
    target.write_bytes(raw)
    return ride


class TestReaderFuzzExitCodes:
    """A garbage frame, detection log, label log, model or ride.json makes
    its command exit 2, 3 or 4, never with a traceback; a file the reader
    takes may also exit 0. (No command reads report.geojson.)"""

    def analyze(self, e2e_workspace, ride, out):
        return quiet_main(["--criterion", "proximity", "analyze", str(ride),
                           "--out", str(out), "--model", str(e2e_workspace["model"]),
                           "--trainset", str(e2e_workspace["trainset"])])

    def check(self, read, path, rc, err):
        ok = readable(read, path)
        assert rc in ((0, 2, 3, 4) if ok else (2,))
        assert "Traceback" not in err

    @settings(max_examples=30, deadline=None)
    @given(raw=pgm_bytes())
    def test_analyze_frame(self, e2e_workspace, short_bike_ride, tmp_path_factory, raw):
        root = tmp_path_factory.mktemp("pgm")
        name = "frames/" + fileio.frame_filename(5)
        ride = ride_with(root, short_bike_ride, name, raw)
        rc, err = self.analyze(e2e_workspace, ride, root / "o")
        self.check(fileio.read_pgm, ride / name, rc, err)

    @settings(max_examples=30, deadline=None)
    @given(raw=ndjson_bytes(detection_record()))
    def test_analyze_detections(self, e2e_workspace, short_bike_ride,
                                tmp_path_factory, raw):
        root = tmp_path_factory.mktemp("det")
        ride = ride_with(root, short_bike_ride, "detections.ndjson", raw)
        rc, err = self.analyze(e2e_workspace, ride, root / "o")
        self.check(fileio.read_detections, ride / "detections.ndjson", rc, err)

    @settings(max_examples=30, deadline=None)
    @given(raw=json_file_bytes(ride_meta()))
    def test_analyze_ride_meta(self, e2e_workspace, short_bike_ride,
                               tmp_path_factory, raw):
        root = tmp_path_factory.mktemp("meta")
        ride = ride_with(root, short_bike_ride, "ride.json", raw)
        rc, err = self.analyze(e2e_workspace, ride, root / "o")
        self.check(fileio.read_ride_meta, ride / "ride.json", rc, err)

    @settings(max_examples=30, deadline=None)
    @given(raw=ndjson_bytes(label_record()))
    def test_train_behavior_labels(self, e2e_workspace, tmp_path_factory, raw):
        root = tmp_path_factory.mktemp("labels")
        ride = root / "ride"
        ride.mkdir()
        (ride / "sensors.csv").symlink_to(e2e_workspace["train_ride"] / "sensors.csv")
        (ride / "labels.ndjson").write_bytes(raw)
        rc, err = quiet_main(["train-behavior", "--rides", str(ride),
                              "--out", str(root / "m.cymd")])
        self.check(fileio.read_window_labels, ride / "labels.ndjson", rc, err)

    @settings(max_examples=60, deadline=None)
    @given(raw=model_bytes(n_features=54))
    def test_classify_behavior_model(self, e2e_workspace, tmp_path_factory, raw):
        model = tmp_path_factory.mktemp("model") / "m.cymd"
        model.write_bytes(raw)
        rc, err = quiet_main(["classify-behavior", "--model", str(model),
                              "--ride", str(e2e_workspace["ride_bike"])])
        self.check(fileio.read_model, model, rc, err)


_UNPARSABLE = {"long-int": "1" * 5000, "deep": "[" * 3000}


class TestUnparsableJsonExitCodes:
    """An integer too long to convert or a body nested too deep, in any JSON
    input, ends with the input (2) or config (3) exit code."""

    @pytest.mark.parametrize("body", _UNPARSABLE.values(), ids=_UNPARSABLE.keys())
    @pytest.mark.parametrize("name", ["ride.json", "detections.ndjson"])
    def test_analyze_ride_file(self, e2e_workspace, short_bike_ride, tmp_path,
                               name, body):
        ride = ride_with(tmp_path, short_bike_ride, name, body.encode())
        rc, err = quiet_main(["--criterion", "proximity", "analyze", str(ride),
                              "--out", str(tmp_path / "o"),
                              "--model", str(e2e_workspace["model"]),
                              "--trainset", str(e2e_workspace["trainset"])])
        assert rc == 2 and f"{name}:1:" in err

    @pytest.mark.parametrize("body", _UNPARSABLE.values(), ids=_UNPARSABLE.keys())
    def test_gamma_profile(self, e2e_workspace, short_bike_ride, tmp_path, body):
        (tmp_path / "gamma.json").write_text(body)
        rc, err = quiet_main(["--criterion", "proximity", "analyze",
                              str(short_bike_ride), "--out", str(tmp_path / "o"),
                              "--model", str(e2e_workspace["model"]),
                              "--trainset", str(e2e_workspace["trainset"]),
                              "--gamma-profile", str(tmp_path / "gamma.json")])
        assert rc == 2 and "bad coefficient profile" in err

    @pytest.mark.parametrize("body", _UNPARSABLE.values(), ids=_UNPARSABLE.keys())
    def test_train_behavior_labels(self, e2e_workspace, tmp_path, body):
        ride = ride_with(tmp_path, e2e_workspace["train_ride"], "labels.ndjson",
                         body.encode())
        rc, err = quiet_main(["train-behavior", "--rides", str(ride),
                              "--out", str(tmp_path / "m.cymd")])
        assert rc == 2 and "labels.ndjson:1:" in err

    @pytest.mark.parametrize("body", _UNPARSABLE.values(), ids=_UNPARSABLE.keys())
    def test_config_file(self, tmp_path, body):
        (tmp_path / "cfg.json").write_text(body)
        rc, err = quiet_main(["--config", str(tmp_path / "cfg.json"), "gen-scene",
                              "--out", str(tmp_path / "s")])
        assert rc == 3 and "config error" in err

    @pytest.mark.parametrize("body", _UNPARSABLE.values(), ids=_UNPARSABLE.keys())
    def test_set_override(self, tmp_path, body):
        rc, err = quiet_main(["--set", f"vision.lk_window={body}", "gen-scene",
                              "--out", str(tmp_path / "s")])
        assert rc == 3 and "vision.lk_window" in err

    def test_ride_meta_number_past_float_range(self, e2e_workspace,
                                               short_bike_ride, tmp_path):
        ride = ride_with(tmp_path, short_bike_ride, "ride.json",
                         b'{"fps": 1' + b"0" * 400 + b"}")
        rc, err = quiet_main(["--criterion", "proximity", "analyze", str(ride),
                              "--out", str(tmp_path / "o"),
                              "--model", str(e2e_workspace["model"]),
                              "--trainset", str(e2e_workspace["trainset"])])
        assert rc == 2 and "fps and frame_start must be numbers" in err

    def test_frame_time_past_float_range(self, e2e_workspace, short_bike_ride,
                                         tmp_path):
        # fps > 0, but frame 10 would occur at 10 / 1e-320 s: infinity
        ride = ride_with(tmp_path, short_bike_ride, "ride.json", b'{"fps": 1e-320}')
        out = tmp_path / "o"
        rc, err = quiet_main(["--criterion", "proximity", "analyze", str(ride),
                              "--out", str(out),
                              "--model", str(e2e_workspace["model"]),
                              "--trainset", str(e2e_workspace["trainset"])])
        assert rc == 2 and "ride.json" in err and "finite" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestJsonFieldTypeExitCodes:
    """A label or detection field of the wrong JSON type exits 2 and names
    its line; nothing is coerced."""

    @pytest.mark.parametrize("record", ['{"label":"bike","start":3.7}',
                                        '{"label":5,"start":3}'])
    def test_train_behavior_label_type(self, e2e_workspace, tmp_path, record):
        first = (e2e_workspace["train_ride"] / "labels.ndjson").read_text().splitlines()[0]
        ride = ride_with(tmp_path, e2e_workspace["train_ride"], "labels.ndjson",
                         f"{first}\n{record}\n".encode())
        rc, err = quiet_main(["train-behavior", "--rides", str(ride),
                              "--out", str(tmp_path / "m.cymd")])
        assert rc == 2 and "labels.ndjson:2:" in err

    @pytest.mark.parametrize("change", [{"frame": 2.9}, {"score": True},
                                        {"class": 5}, {"bbox": [0, 0, 1, False]}],
                             ids=repr)
    def test_analyze_detection_type(self, e2e_workspace, short_bike_ride, tmp_path,
                                    change):
        first = (short_bike_ride / "detections.ndjson").read_text().splitlines()[0]
        bad = json.dumps({**json.loads(first), **change})
        ride = ride_with(tmp_path, short_bike_ride, "detections.ndjson",
                         f"{first}\n{bad}\n".encode())
        rc, err = quiet_main(["--criterion", "proximity", "analyze", str(ride),
                              "--out", str(tmp_path / "o"),
                              "--model", str(e2e_workspace["model"]),
                              "--trainset", str(e2e_workspace["trainset"])])
        assert rc == 2 and "detections.ndjson:2:" in err


_GAMMA = {"class_coeffs": {"car": 1.0}, "cell_coeffs": [0.5] * 25}

# (file, path to a field in its body, a value of another kind than the
# field's). Each record value was once coerced into a valid field.
_WRONG_KIND = [
    *[("level2", ("frames", 0, "frame"), v) for v in ("17", 17.9, True)],
    *[("level2", ("frames", 0, "skipped_unknown"), v) for v in ("3", 2.5, False)],
    *[("level2", ("frames", 0, "values", 3), v) for v in ("0.5", True)],
    *[("trainset", ("items", 0, "level"), v) for v in (True, 2.7, "3")],
    *[("trainset", ("cross_factor",), v) for v in ("3", True)],
    *[("model", ("C",), v) for v in ("2", True)],
    ("model", ("mu", 0), "0.5"),
    *[("model", ("feature_mask", 0), v) for v in (1, "no")],
    ("model", ("classes",), [1, 2]),
    ("model", ("smoother_bandwidth",), "1.5"),
    ("model", ("binaries", 0, "bias"), "0.25"),
    ("model", ("kernel", "bandwidth"), "2"),
    ("model", ("priors", "bike"), "0.3"),
    ("ride.json", ("fps",), math.inf),
    ("ride.json", ("frame_start",), "0"),
    *[("gamma", ("class_coeffs",), {"car": v}) for v in (True, 10 ** 400)],
    *[("gamma", ("cell_coeffs",), [0.5] * 24 + [v]) for v in ("0.5", math.nan)],
]


class TestWrongKindExitCodes:
    """A field of another JSON kind than docs/formats.md gives it exits 2 with
    a message naming the file and the field, and its reader raises."""

    @pytest.mark.parametrize("name,where,value", _WRONG_KIND, ids=[
        f"{n}:{'.'.join(map(str, w))}={json.dumps(v)[:12]}" for n, w, v in _WRONG_KIND])
    def test_exit_2_naming_file_and_key(self, e2e_workspace, short_bike_ride,
                                        tmp_path, name, where, value):
        ws = e2e_workspace
        if name in ("level2", "trainset", "model"):
            head, text = ws[name].read_text().split("\n", 1)
            body = json.loads(text)
        else:
            body = json.loads(json.dumps(_GAMMA) if name == "gamma" else
                              (short_bike_ride / "ride.json").read_text())
        node = body
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        text = json.dumps(body)   # writes Infinity and NaN tokens
        ride = short_bike_ride
        if name == "ride.json":
            ride = ride_with(tmp_path, short_bike_ride, "ride.json", text.encode())
            path = ride / "ride.json"
        elif name == "gamma":
            path = tmp_path / "gamma.json"
            path.write_text(text)
        else:
            path = tmp_path / ws[name].name
            path.write_text(head + "\n" + text + "\n")

        read, error = {
            "level2": (fileio.read_descriptors, RecordParseError),
            "trainset": (fileio.read_training_set, RecordParseError),
            "model": (fileio.read_model, RecordParseError),
            "ride.json": (lambda p: load_ride(p.parent), InvalidInputError),
            "gamma": (_load_gamma_profile, InvalidInputError),
        }[name]
        with pytest.raises(error):
            read(path)

        out = str(tmp_path / "out")
        analyze = ["--criterion", "proximity", "analyze", str(ride), "--out", out,
                   "--model", str(ws["model"]), "--trainset", str(ws["trainset"])]
        argv = {
            "level2": ["train-risk", f"1:{ws['level1']}", f"2:{path}",
                       f"3:{ws['level3']}", "--out", out],
            "trainset": analyze[:-1] + [str(path)],
            "model": ["classify-behavior", "--model", str(path), "--ride", str(ride)],
            "ride.json": analyze,
            "gamma": analyze + ["--gamma-profile", str(path)],
        }[name]
        rc, err = quiet_main(argv)
        assert rc == 2 and "Traceback" not in err
        assert str(path) in err
        assert all(key in err for key in where if isinstance(key, str)), err


class TestPathKindExitCodes:
    """A path of the wrong kind (a directory where a file is read or
    written, a file where a directory is read or made) exits 2, or 3 for
    --config, with a message naming the path and no traceback."""

    CASES = ["model is a directory", "classify out is a file",
             "config is a directory", "descriptor file is a directory",
             "ride is a file", "model out is a directory"]

    @pytest.mark.parametrize("case", CASES)
    def test_exit_code_names_path(self, e2e_workspace, tmp_path, case):
        ws = e2e_workspace
        a_dir = tmp_path / "dir"
        a_dir.mkdir()
        a_file = tmp_path / "file"
        a_file.write_text("x\n")
        sensors = ws["train_ride"] / "sensors.csv"
        classify = ["classify-behavior", "--model", ws["model"], "--ride",
                    ws["ride_bike"]]
        path, want, argv = {
            "model is a directory":
                (a_dir, 2, ["classify-behavior", "--model", a_dir,
                            "--ride", ws["ride_bike"]]),
            "classify out is a file": (a_file, 2, classify + ["--out", a_file]),
            "config is a directory": (a_dir, 3, ["--config", a_dir] + classify),
            "descriptor file is a directory":
                (a_dir, 2, ["train-risk", f"1:{a_dir}", f"2:{ws['level2']}",
                            f"3:{ws['level3']}", "--out", tmp_path / "t.cyts"]),
            "ride is a file":
                (sensors, 2, ["train-behavior", "--rides", sensors,
                              "--out", tmp_path / "m.cymd"]),
            "model out is a directory":
                (a_dir, 2, ["train-behavior", "--rides", ws["train_ride"],
                            "--out", a_dir]),
        }[case]
        rc, err = quiet_main([str(a) for a in argv])
        assert rc == want, err
        assert "Traceback" not in err
        assert err.startswith("config error" if want == 3 else "input error")
        assert str(path) in err


class TestOutputCheckedFirst:
    """An output of the wrong kind, or under a file, exits 2 naming the path
    before the command's first stage runs, and nothing is written."""

    CASES = ["analyze out is a file", "analyze out under a file",
             "classify out is a file", "train-behavior out is a directory",
             "rfe out is a directory", "train-behavior out has no directory",
             "train-risk out is a directory", "eval risk json is a directory",
             "eval behavior json under a file"]

    @pytest.mark.parametrize("case", CASES)
    def test_exits_before_first_stage(self, e2e_workspace, tmp_path, monkeypatch, case):
        import cyclerisk.cli as cli

        ws = e2e_workspace
        calls = []

        def spy(name):
            def stage(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} ran")
            return stage

        for name in ("analyze_ride", "label_windows", "ova_rankings", "train_svm"):
            monkeypatch.setattr(cli, name, spy(name))
        monkeypatch.setattr(cli.fileio, "read_descriptors", spy("read_descriptors"))
        a_dir = tmp_path / "dir"
        a_dir.mkdir()
        a_file = tmp_path / "file"
        a_file.write_text("x\n")
        levels = [f"{k}:{ws[f'level{k}']}" for k in (1, 2, 3)]
        analyze = ["analyze", ws["ride_bike"], "--model", ws["model"],
                   "--trainset", ws["trainset"], "--out"]
        train = ["train-behavior", "--rides", ws["train_ride"], "--out"]
        path, argv = {
            "analyze out is a file": (a_file, analyze + [a_file]),
            "analyze out under a file": (a_file / "out", analyze + [a_file / "out"]),
            "classify out is a file":
                (a_file, ["classify-behavior", "--model", ws["model"],
                          "--ride", ws["ride_bike"], "--out", a_file]),
            "train-behavior out is a directory": (a_dir, train + [a_dir]),
            "rfe out is a directory": (a_dir, train + [a_dir, "--rfe-top", "8"]),
            "train-behavior out has no directory":
                (tmp_path / "no" / "m.cymd", train + [tmp_path / "no" / "m.cymd"]),
            "train-risk out is a directory": (a_dir, ["train-risk", *levels, "--out", a_dir]),
            "eval risk json is a directory":
                (a_dir, ["eval", "--task", "risk", "--trainset", ws["trainset"],
                         "--dims", "240x180", *levels, "--json", a_dir]),
            "eval behavior json under a file":
                (a_file / "e.json", ["eval", "--task", "behavior", "--rides",
                                     ws["train_ride"], "--json", a_file / "e.json"]),
        }[case]
        before = sorted(tmp_path.rglob("*"))
        rc, err = quiet_main([str(a) for a in argv])
        assert rc == 2, err
        assert err.startswith("input error") and str(path) in err
        assert "Traceback" not in err
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before
        assert a_file.read_text() == "x\n" and not any(a_dir.iterdir())

    def test_valid_outputs_still_written(self, e2e_workspace, tmp_path):
        # a missing directory output, and its missing parents, are made
        ws = e2e_workspace
        out = tmp_path / "new" / "deeper"
        rc, err = quiet_main(["classify-behavior", "--model", str(ws["model"]),
                              "--ride", str(ws["ride_bike"]), "--out", str(out)])
        assert rc == 0, err
        assert sorted(f.name for f in out.iterdir()) == ["report.geojson", "windows.ndjson"]


CONFIG_KEYS = formats_key_table()

# any JSON value: numbers at and past every bound (NaN, infinities,
# subnormals, 2**31, an integer too large for a float), strings, booleans,
# null, and lists of them, nested; plus numbers and short number lists of
# the sizes the keys take, so that many drawn values are accepted and run
_plausible = st.integers(1, 64) | st.floats(1e-6, 100.0)
config_values = st.one_of(
    st.recursive(
        st.none() | st.booleans() | st.floats() | st.text(max_size=8)
        | st.integers()
        | st.sampled_from([0, 1, 3, 2**31 - 1, 2**31, 10**400, 5e-324, 1e300, 1.7e308]),
        lambda inner: st.lists(inner, max_size=4), max_leaves=6),
    _plausible,
    st.lists(_plausible | st.floats(), min_size=2, max_size=3))


class TestConfigFuzzExitCodes:
    """No `--set` value of any key ends in a traceback: each command exits
    0, 2, 3 or 4."""

    @settings(max_examples=100, deadline=None)
    @given(key=st.sampled_from(CONFIG_KEYS), value=config_values)
    # a Huber threshold or ring radius near the float range once overflowed
    # in numpy (a RuntimeWarning, an error under this suite's filter)
    @example(key="foe.delta", value=1.7e308)
    @example(key="foe.ring_radii", value=[0.15, 0.3, 1.7e308])
    def test_set_any_value(self, e2e_workspace, short_bike_ride, tmp_path_factory,
                           key, value):
        # behavior keys tune labeling; every other key tunes analyze
        model = str(e2e_workspace["model"])
        setting = ["--set", f"{key}={json.dumps(value)}"]
        if key.startswith("behavior."):
            argv = setting + ["classify-behavior", "--model", model,
                              "--ride", str(short_bike_ride)]
        else:
            argv = ["--criterion", "proximity", *setting, "analyze",
                    str(short_bike_ride), "--out", str(tmp_path_factory.mktemp("o")),
                    "--model", model, "--trainset", str(e2e_workspace["trainset"])]
        rc, err = quiet_main(argv)
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err


def test_cli_imports_without_scipy():
    # numpy is the only runtime dependency: scipy serves the tests' oracles
    code = ("import sys, cyclerisk.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
