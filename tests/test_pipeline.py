"""Orchestration-layer units: window labeling, segmentation, vision pass."""

import json

import numpy as np
import pytest

from cyclerisk import fileio
from cyclerisk.behavior.stream import SensorStream
from cyclerisk.cli import main
from cyclerisk.config import PipelineConfig
from cyclerisk.errors import InvalidInputError
from cyclerisk.pipeline import (WindowRow, _load_clahe, _pair_flows,
                                label_windows, load_ride, segment_modes)
from cyclerisk.synth import gen_ride


def flat_stream(duration=120.0, rate=10.0):
    n = int(duration * rate) + 1
    t = np.arange(n) / rate
    z = np.zeros(n)
    return SensorStream(t=t, ax=z, ay=z, az=z + 9.81, gx=z, gy=z, gz=z,
                        speed=z + 4.0, lat=41.0 + 1e-6 * np.arange(n),
                        lon=-8.0 + 1e-6 * np.arange(n), acc=z + 5.0)


def window_rows(labels, first_t0=10.0, step=5.0, span=9.9):
    rows = []
    for i, lab in enumerate(labels):
        t0 = first_t0 + i * step
        rows.append(WindowRow(start=i * 50, t0=t0, t1=t0 + span, label=lab))
    return rows


def timeline(out):
    """frames.ndjson and report.geojson of one analyze, checked as one
    timeline: a frame's segment is the one whose [start_t, end_t) holds its
    time, or the first or last for a time outside the sensor log. Its mode
    is that segment's, and each segment's risk counts exactly the scored
    frames in it, so only bike segments count any."""
    rows = [json.loads(line)
            for line in (out / "frames.ndjson").read_text().splitlines()]
    segs = [f["properties"] for f in
            json.loads((out / "report.geojson").read_text())["features"]]
    counts = [{} for _ in segs]
    for r in rows:
        k = max([0] + [j for j, s in enumerate(segs) if s["start_t"] <= r["t"]])
        assert r["mode"] == segs[k]["mode"], r
        if r["level"] is not None:
            assert segs[k]["mode"] == "bike", r
            counts[k][str(r["level"])] = counts[k].get(str(r["level"]), 0) + 1
    assert [s["risk"] for s in segs] == counts
    return rows, segs


def ride_starting_at(root, src, frame_start):
    """A copy of ride `src` whose frame 0 is at `frame_start` on the sensor
    clock."""
    ride = root / "ride"
    ride.mkdir()
    for name in ("frames", "sensors.csv", "detections.ndjson"):
        (ride / name).symlink_to(src / name)
    meta = json.loads((src / "ride.json").read_text())
    fileio.write_ride_meta(ride / "ride.json", {**meta, "frame_start": frame_start})
    return ride


def analyze(ws, ride, out, trainset=None):
    assert main(["analyze", str(ride), "--out", str(out),
                 "--model", str(ws["model"]),
                 "--trainset", str(trainset or ws["trainset"])]) == 0
    return timeline(out)


class TestOneTimeline:
    @pytest.mark.parametrize("criterion", ["proximity", "lane"])
    @pytest.mark.parametrize("ride,out", [("ride_bike", "out_bike"),
                                          ("ride_mixed", "out_mixed")])
    def test_scored_frames_counted_in_their_bike_segment(
            self, e2e_workspace, tmp_path, criterion, ride, out):
        if criterion == "proximity":
            rows, segs = timeline(e2e_workspace[out])
        else:
            trainset = tmp_path / "lane.cyts"
            trainset.write_text(e2e_workspace["trainset"].read_text().replace(
                '"criterion":"proximity"', '"criterion":"lane"'))
            rows, segs = analyze(e2e_workspace, e2e_workspace[ride],
                                 tmp_path / "out", trainset=trainset)
        scored = sum(r["level"] is not None for r in rows)
        assert scored > 0
        assert sum(sum(s["risk"].values()) for s in segs) == scored

    def test_frames_before_the_log_counted(self, e2e_workspace, tmp_path):
        # the first three frames fall before the sensor log's first sample:
        # they take the first segment's mode, and its risk counts them
        ride = ride_starting_at(tmp_path, e2e_workspace["ride_bike"], -3.0)
        rows, segs = analyze(e2e_workspace, ride, tmp_path / "out")
        assert [r["t"] for r in rows[:4]] == [-3.0, -2.0, -1.0, 0.0]
        assert all(r["level"] is not None for r in rows)
        assert sum(segs[0]["risk"].values()) == len(rows) == 40

    def test_frame_on_a_boundary_goes_to_the_later_segment(self, e2e_workspace,
                                                           tmp_path):
        _, segs = timeline(e2e_workspace["out_mixed"])
        assert [s["mode"] for s in segs] == ["walk", "bike"]
        boundary = segs[1]["start_t"]
        # processed frame 5k lands exactly on the boundary
        k = int(boundary)
        frame_start = boundary - k
        assert frame_start + 5 * k / 5.0 == boundary
        ride = ride_starting_at(tmp_path, e2e_workspace["ride_mixed"], frame_start)
        rows, _ = analyze(e2e_workspace, ride, tmp_path / "out")
        row = next(r for r in rows if r["frame"] == 5 * k)
        assert row["t"] == boundary
        assert row["mode"] == "bike" and row["level"] is not None


class TestSegmentModes:
    def test_boundary_halfway_between_centers(self):
        stream = flat_stream(60.0)
        rows = window_rows(["walk", "walk", "bike", "bike"])
        segs = segment_modes(rows, stream)
        assert [s["mode"] for s in segs] == ["walk", "bike"]
        # centers 19.95 and 24.95 straddle the change
        assert segs[0]["end_t"] == pytest.approx(22.45)
        assert segs[1]["start_t"] == pytest.approx(22.45)
        assert segs[0]["start_t"] == 0.0
        assert segs[1]["end_t"] == pytest.approx(60.0)
        # analyze fills each segment's risk: it starts empty
        assert [s["risk"] for s in segs] == [{}, {}]

    def test_single_label_single_segment(self):
        stream = flat_stream(30.0)
        segs = segment_modes(window_rows(["bike"] * 3), stream)
        assert len(segs) == 1
        assert segs[0]["start_t"] == 0.0
        assert segs[0]["end_t"] == pytest.approx(30.0)

    def test_polyline_subsampled_and_endpoint_kept(self):
        stream = flat_stream(30.0)
        segs = segment_modes(window_rows(["bike"] * 3), stream)
        coords = segs[0]["coords"]
        assert 25 <= len(coords) <= 32  # ~1 Hz from a 10 Hz track
        assert coords[0] == (float(stream.lon[0]), float(stream.lat[0]))
        assert coords[-1] == (float(stream.lon[-1]), float(stream.lat[-1]))

    def test_no_windows_no_segments(self):
        assert segment_modes([], flat_stream(30.0)) == []


class TestLabelWindows:
    def test_matches_generated_labels(self, e2e_workspace):
        model = fileio.read_model(e2e_workspace["model"])
        ride = gen_ride([("walk", 60.0), ("bike", 60.0), ("motor", 60.0)],
                        seed=33)
        rows = label_windows(ride.stream, model, PipelineConfig())
        assert len(rows) == len(ride.window_labels)
        agree = sum(1 for r, truth in zip(rows, ride.window_labels)
                    if r.label == truth)
        assert agree / len(rows) >= 0.9

    def test_window_spans_follow_grid(self, e2e_workspace):
        model = fileio.read_model(e2e_workspace["model"])
        ride = gen_ride([("bike", 40.0)], seed=2)
        rows = label_windows(ride.stream, model, PipelineConfig())
        assert rows[0].t0 == pytest.approx(10.0)
        assert rows[0].t1 == pytest.approx(19.9)
        assert rows[1].t0 == pytest.approx(15.0)


class TestLoadRide:
    def test_missing_dir(self, tmp_path):
        with pytest.raises(InvalidInputError, match="not found"):
            load_ride(tmp_path / "nope")

    def test_missing_metadata(self, tmp_path):
        d = tmp_path / "ride"
        d.mkdir()
        with pytest.raises(InvalidInputError, match="ride.json"):
            load_ride(d)

    def test_loads_full_layout(self, e2e_workspace):
        ride = load_ride(e2e_workspace["ride_bike"])
        assert ride.fps == 5.0
        assert len(ride.frames) == 201
        assert ride.frame_time(10) == pytest.approx(2.0)
        assert len(ride.stream) == 400
        assert 0 in ride.detections

    def test_bad_fps_rejected(self, tmp_path):
        d = tmp_path / "ride"
        d.mkdir()
        (d / "ride.json").write_text('{"fps": 0}')
        (d / "sensors.csv").write_text("stub")
        with pytest.raises(InvalidInputError, match="fps"):
            load_ride(d)

    @pytest.mark.parametrize("meta", ['{"fps": "5"}', '{"fps": true}',
                                      '{"fps": "1e1", "frame_start": " 3 "}',
                                      '{"fps": 5, "frame_start": false}'])
    def test_fps_and_frame_start_must_be_json_numbers(self, e2e_workspace,
                                                       tmp_path, meta, capsys):
        d = tmp_path / "ride"
        d.mkdir()
        (d / "ride.json").write_text(meta)
        (d / "sensors.csv").write_text("stub")
        with pytest.raises(InvalidInputError, match="JSON numbers"):
            load_ride(d)
        code = main(["analyze", str(d), "--out", str(tmp_path / "out"),
                     "--model", str(e2e_workspace["model"]),
                     "--trainset", str(e2e_workspace["trainset"])])
        assert code == 2
        assert "JSON numbers" in capsys.readouterr().err


class TestVisionPass:
    def test_observations_are_plentiful(self, e2e_workspace):
        ride = load_ride(e2e_workspace["ride_bike"])
        cfg = PipelineConfig()
        by_index = dict(ride.frames)
        prev, nxt = (_load_clahe(by_index[i], i, cfg.vision) for i in (0, 5))
        assert (prev.index, nxt.index) == (0, 5)
        points, vectors = _pair_flows(prev, nxt, cfg.vision)
        assert points.shape == vectors.shape
        assert points.shape[0] >= 30

    @pytest.mark.parametrize("ride_key,out_key", [("ride_bike", "out_bike"),
                                                  ("ride_mixed", "out_mixed")])
    def test_each_bike_pair_frame_read_once_in_order(
            self, e2e_workspace, tmp_path, monkeypatch, ride_key, out_key):
        reads = []
        read_pgm = fileio.read_pgm

        def counting_read(path):
            reads.append(path.name)
            return read_pgm(path)

        monkeypatch.setattr(fileio, "read_pgm", counting_read)
        out = tmp_path / "out"
        assert main(["--criterion", "proximity", "analyze",
                     str(e2e_workspace[ride_key]), "--out", str(out),
                     "--model", str(e2e_workspace["model"]),
                     "--trainset", str(e2e_workspace["trainset"])]) == 0
        frames = (out / "frames.ndjson").read_bytes()
        assert frames == (e2e_workspace[out_key] / "frames.ndjson").read_bytes()
        rows = [json.loads(line) for line in frames.splitlines()]
        bike = [r for r in rows if r["mode"] == "bike"]
        assert [r["note"] for r in bike[:4]] == [""] * 4
        assert all(r["level"] is not None for r in bike[:4])
        stride = PipelineConfig().vision.frame_stride
        pair_frames = {r["frame"] + d for r in bike for d in (0, stride)}
        assert reads == [fileio.frame_filename(i) for i in sorted(pair_frames)]

    def test_gradient_once_per_frame(self, e2e_workspace, tmp_path, monkeypatch):
        # corners and the tracker both read the earlier frame's gradient, and
        # that frame is the later frame of the pair before: one Sobel pass
        # per frame that starts a pair, none for a frame that only ends one
        from cyclerisk.vision import flow, frames

        calls = []
        sobel = frames.sobel

        def counting_sobel(img, out=None):
            calls.append(img.shape)
            return sobel(img, out=out)

        reads = []
        read_pgm = fileio.read_pgm

        def counting_read(path):
            reads.append(path.name)
            return read_pgm(path)

        monkeypatch.setattr(frames, "sobel", counting_sobel)
        monkeypatch.setattr(flow, "sobel", counting_sobel)
        monkeypatch.setattr(fileio, "read_pgm", counting_read)
        out = tmp_path / "out"
        assert main(["--criterion", "proximity", "analyze",
                     str(e2e_workspace["ride_mixed"]), "--out", str(out),
                     "--model", str(e2e_workspace["model"]),
                     "--trainset", str(e2e_workspace["trainset"])]) == 0
        rows = [json.loads(line)
                for line in (out / "frames.ndjson").read_bytes().splitlines()]
        pairs = sum(r["mode"] == "bike" for r in rows)
        assert pairs > 4
        assert calls == [(180, 240)] * pairs
        assert len(reads) == pairs + 1   # the bike frames are one run of pairs


def test_stages_take_the_config_sections(e2e_workspace, tmp_path, monkeypatch):
    # every stage gets the run's own section object, so a `--set` of any
    # key reaches its stage unchanged
    from cyclerisk import pipeline

    seen = {}

    def spy(name, index):
        stage = getattr(pipeline, name)

        def wrapper(*args):
            seen.setdefault(name, []).append(args[index])
            return stage(*args)
        monkeypatch.setattr(pipeline, name, wrapper)

    spy("clahe", 1)
    spy("detect_corners", 1)
    spy("lk_flow", 3)
    spy("magnitude_weights", 4)
    spy("FoeSmoother", 0)
    spy("refine_foe", 3)
    spy("classify_risk", 3)
    spy("smooth_sequence", 3)
    risk_descriptor = pipeline.risk_descriptor

    def spy_descriptor(dets, rmap, params, frame, cfg):
        seen.setdefault("risk_descriptor", []).append(cfg)
        return risk_descriptor(dets, rmap, params, frame=frame, cfg=cfg)

    monkeypatch.setattr(pipeline, "risk_descriptor", spy_descriptor)
    cfg = PipelineConfig.from_dict({"vision": {"corner_quality": 0.02},
                                    "foe": {"angle_thresh": 20.0},
                                    "risk": {"footprint_frac": 0.4,
                                             "footprint_min_px": 4.0},
                                    "emd": {"k": 3},
                                    "behavior": {"smooth_decay": 0.7}})
    ride = load_ride(e2e_workspace["ride_bike"])
    result = pipeline.analyze_ride(ride, fileio.read_model(e2e_workspace["model"]),
                                   fileio.read_training_set(e2e_workspace["trainset"]),
                                   cfg, pipeline.RiskParams())
    assert result.descriptors
    sections = {"clahe": cfg.vision, "detect_corners": cfg.vision,
                "lk_flow": cfg.vision, "magnitude_weights": cfg.foe,
                "FoeSmoother": cfg.foe, "refine_foe": cfg.foe,
                "risk_descriptor": cfg.risk, "classify_risk": cfg.emd,
                "smooth_sequence": cfg.behavior}
    assert set(seen) == set(sections)
    for name, section in sections.items():
        assert seen[name] and all(c is section for c in seen[name]), name
    assert len(seen["risk_descriptor"]) == len(result.descriptors)
