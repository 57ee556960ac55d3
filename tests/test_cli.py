"""Command-line behavior: flows, gating, determinism, exit codes."""

import json

import numpy as np
import pytest

from cyclerisk import fileio
from cyclerisk.cli import (_parse_level_file, _parse_point, _parse_schedule,
                           _parse_size, _load_gamma_profile, main,
                           resolve_config)
from cyclerisk.config import PipelineConfig
from cyclerisk.emd import build_distance_matrix
from cyclerisk.errors import InvalidInputError


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestParsers:
    def test_point(self):
        assert _parse_point("240,180") == (240.0, 180.0)
        with pytest.raises(InvalidInputError):
            _parse_point("240")

    def test_size(self):
        assert _parse_size("480x360") == (480, 360)
        assert _parse_size("240X180") == (240, 180)
        with pytest.raises(InvalidInputError):
            _parse_size("480")
        with pytest.raises(InvalidInputError):
            _parse_size("3x3")

    def test_schedule(self):
        assert _parse_schedule("walk:60,bike:120") == [("walk", 60.0),
                                                       ("bike", 120.0)]
        with pytest.raises(InvalidInputError):
            _parse_schedule("walk60")

    def test_level_file(self):
        assert _parse_level_file("2:a.cydr") == (2, "a.cydr")
        with pytest.raises(InvalidInputError):
            _parse_level_file("4:a.cydr")
        with pytest.raises(InvalidInputError):
            _parse_level_file("a.cydr")


class TestGammaProfile:
    def test_none_uses_config(self):
        cfg = PipelineConfig()
        params = _load_gamma_profile(None, cfg)
        assert params.footprint_height_frac == cfg.risk.footprint_frac
        assert params.cell_coeffs is None

    def test_file_overrides(self, tmp_path):
        p = tmp_path / "gamma.json"
        p.write_text(json.dumps({"class_coeffs": {"car": 0.5},
                                 "cell_coeffs": [0.1] * 25}))
        params = _load_gamma_profile(p, PipelineConfig())
        assert params.class_coeffs == {"car": 0.5}
        assert params.cell_coeffs.shape == (26,)
        assert params.cell_coeffs[0] == 0.0
        assert (params.cell_coeffs[1:] == 0.1).all()

    def test_wrong_cell_count(self, tmp_path):
        p = tmp_path / "gamma.json"
        p.write_text(json.dumps({"cell_coeffs": [0.1] * 24}))
        with pytest.raises(InvalidInputError, match="25"):
            _load_gamma_profile(p, PipelineConfig())

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "gamma.json"
        p.write_text(json.dumps({"gammas": []}))
        with pytest.raises(InvalidInputError, match="unknown"):
            _load_gamma_profile(p, PipelineConfig())


class TestResolveConfig:
    def test_set_overrides(self):
        from cyclerisk.cli import build_parser
        args = build_parser().parse_args(
            ["--set", "emd.k=3", "--seed", "9", "gen-scene", "--out", "x"])
        cfg = resolve_config(args)
        assert cfg.emd.k == 3
        assert cfg.seed == 9


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

    def test_rerun_byte_identical(self, e2e_workspace, tmp_path, capsys):
        out2 = tmp_path / "again"
        rc, _, _ = run(capsys, "--criterion", "proximity", "analyze",
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
        cfg = json.loads(lines[0])
        assert cfg["risk"]["criterion"] == "proximity"
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
                    "vision.corner_grid=[true,2]"):
            rc, _, err = run(capsys, "--set", bad, "gen-scene",
                             "--out", str(tmp_path / "s"))
            assert rc == 3, bad
            assert "config error" in err

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
