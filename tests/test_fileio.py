"""Codec round trips and strict parse diagnostics."""

import json

import numpy as np
import pytest

import cyclerisk.fileio as fio
from cyclerisk.behavior import KernelSpec, train_svm
from cyclerisk.behavior.stream import SensorStream
from cyclerisk.emd import RiskTrainingSet, TrainingItem
from cyclerisk.errors import InvalidInputError, RecordParseError
from cyclerisk.risk import Detection, RiskDescriptor


def small_stream(n=20, start=0.0):
    rng = np.random.default_rng(7)
    t = start + 0.1 * np.arange(n)
    cols = {c: rng.normal(size=n) for c in
            ("ax", "ay", "az", "gx", "gy", "gz")}
    return SensorStream(t=t, speed=rng.uniform(0, 10, n),
                        lat=41.15 + 1e-5 * np.arange(n),
                        lon=-8.61 + 1e-5 * np.arange(n),
                        acc=rng.uniform(3, 8, n), **cols)


class TestPgm:
    def test_round_trip_480x360(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(360, 480), dtype=np.uint8)
        p = tmp_path / "frame_000000.pgm"
        fio.write_pgm(p, img)
        back = fio.read_pgm(p)
        assert back.dtype == np.uint8
        assert np.array_equal(back, img)
        # byte-for-byte: rewriting the parsed image reproduces the file
        p2 = tmp_path / "copy.pgm"
        fio.write_pgm(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        img = np.zeros((2, 3), dtype=np.uint8)
        p = tmp_path / "f.pgm"
        fio.write_pgm(p, img)
        assert p.read_bytes() == b"P5\n3 2\n255\n" + b"\x00" * 6

    def test_rejects_non_p5(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(RecordParseError):
            fio.read_pgm(p)

    def test_rejects_truncated(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(RecordParseError, match="truncated"):
            fio.read_pgm(p)

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(InvalidInputError):
            fio.write_pgm(tmp_path / "f.pgm", np.zeros((2, 2), dtype=np.float64))

    def test_frame_listing(self, tmp_path):
        for i in (3, 0, 12):
            fio.write_pgm(tmp_path / fio.frame_filename(i),
                          np.zeros((1, 1), dtype=np.uint8))
        (tmp_path / "notes.txt").write_text("x")
        found = fio.list_frames(tmp_path)
        assert [i for i, _ in found] == [0, 3, 12]
        assert found[2][1].name == "frame_000012.pgm"


class TestDetections:
    def test_round_trip(self, tmp_path):
        dets = [
            Detection(frame=0, label="car", score=0.9, bbox=(10, 20, 30, 40)),
            Detection(frame=5, label="person", score=0.5,
                      bbox=(1.5, 2.25, 3.0, 4.125)),
        ]
        p = tmp_path / "detections.ndjson"
        fio.write_detections(p, dets)
        back = fio.read_detections(p)
        assert back == dets
        p2 = tmp_path / "again.ndjson"
        fio.write_detections(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.ndjson"
        fio.write_detections(p, [])
        assert fio.read_detections(p) == []

    def test_line_number_in_error(self, tmp_path):
        p = tmp_path / "d.ndjson"
        good = '{"bbox":[0,0,1,1],"class":"car","frame":0,"score":0.5}'
        p.write_text(good + "\n" + '{"frame": 1}' + "\n")
        with pytest.raises(RecordParseError) as err:
            fio.read_detections(p)
        assert err.value.line == 2

    def test_rejects_bad_score(self, tmp_path):
        p = tmp_path / "d.ndjson"
        p.write_text('{"bbox":[0,0,1,1],"class":"car","frame":0,"score":1.5}\n')
        with pytest.raises(RecordParseError):
            fio.read_detections(p)


class TestSensorCsv:
    def test_round_trip(self, tmp_path):
        s = small_stream()
        p = tmp_path / "sensors.csv"
        fio.write_sensor_csv(p, s)
        back = fio.read_sensor_csv(p)
        for f in ("t", "ax", "ay", "az", "gx", "gy", "gz",
                  "speed", "lat", "lon", "acc"):
            assert np.array_equal(getattr(back, f), getattr(s, f)), f
        p2 = tmp_path / "again.csv"
        fio.write_sensor_csv(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_header_exact(self, tmp_path):
        p = tmp_path / "sensors.csv"
        fio.write_sensor_csv(p, small_stream(3))
        assert p.read_text().splitlines()[0] == "t,ax,ay,az,gx,gy,gz,speed,lat,lon,acc"

    def test_decreasing_timestamp_names_line(self, tmp_path):
        s = small_stream(5)
        p = tmp_path / "sensors.csv"
        fio.write_sensor_csv(p, s)
        lines = p.read_text().splitlines()
        lines[3], lines[4] = lines[4], lines[3]  # swap samples 3 and 4
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordParseError) as err:
            fio.read_sensor_csv(p)
        # the decrease becomes visible at the second swapped row, file line 5
        assert err.value.line == 5
        assert ":5:" in str(err.value)

    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "sensors.csv"
        p.write_text("time,ax\n0,1\n")
        with pytest.raises(RecordParseError) as err:
            fio.read_sensor_csv(p)
        assert err.value.line == 1

    def test_rejects_nan(self, tmp_path):
        p = tmp_path / "sensors.csv"
        p.write_text(fio.SENSOR_HEADER + "\n" +
                     "0.0,nan,0,0,0,0,0,0,41,-8,5\n")
        with pytest.raises(RecordParseError) as err:
            fio.read_sensor_csv(p)
        assert err.value.line == 2

    def test_rejects_short_row(self, tmp_path):
        p = tmp_path / "sensors.csv"
        p.write_text(fio.SENSOR_HEADER + "\n0.0,1,2\n")
        with pytest.raises(RecordParseError, match="fields"):
            fio.read_sensor_csv(p)


class TestDescriptorRecords:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        descs = [RiskDescriptor(values=rng.uniform(0, 5, 25), criterion="lane",
                                frame=i * 5, skipped_unknown=i % 2)
                 for i in range(4)]
        p = tmp_path / "descriptors.cydr"
        fio.write_descriptors(p, "lane", descs)
        crit, back = fio.read_descriptors(p)
        assert crit == "lane"
        assert len(back) == 4
        for a, b in zip(back, descs):
            assert a.frame == b.frame
            assert a.skipped_unknown == b.skipped_unknown
            assert np.array_equal(a.values, b.values)
        p2 = tmp_path / "again.cydr"
        fio.write_descriptors(p2, crit, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_magic_and_version_line(self, tmp_path):
        p = tmp_path / "d.cydr"
        fio.write_descriptors(p, "proximity", [])
        first = p.read_bytes().split(b"\n")[0]
        assert first == b"CYDR 1.0.0"

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "d.cydr"
        fio.write_descriptors(p, "lane", [])
        body = p.read_bytes()
        (tmp_path / "bad").write_bytes(b"XXXX" + body[4:])
        with pytest.raises(RecordParseError, match="magic"):
            fio.read_descriptors(tmp_path / "bad")

    def test_major_version_mismatch_rejected(self, tmp_path):
        p = tmp_path / "d.cydr"
        fio.write_descriptors(p, "lane", [])
        body = p.read_bytes().replace(b"CYDR 1.0.0", b"CYDR 2.0.0")
        p.write_bytes(body)
        with pytest.raises(RecordParseError, match="major version"):
            fio.read_descriptors(p)

    def test_minor_version_accepted(self, tmp_path):
        p = tmp_path / "d.cydr"
        fio.write_descriptors(p, "lane", [])
        p.write_bytes(p.read_bytes().replace(b"CYDR 1.0.0", b"CYDR 1.9.2"))
        crit, descs = fio.read_descriptors(p)
        assert crit == "lane" and descs == []

    @pytest.mark.parametrize("bad", [
        b"Infinity", b"NaN", pytest.param(b"1" + b"0" * 400, id="huge-int")])
    def test_non_finite_bin_rejected(self, tmp_path, bad):
        p = tmp_path / "d.cydr"
        fio.write_descriptors(p, "lane", [RiskDescriptor(
            values=np.full(25, 0.5), criterion="lane")])
        p.write_bytes(p.read_bytes().replace(b"0.5", bad, 1))
        with pytest.raises(RecordParseError, match="finite|too large"):
            fio.read_descriptors(p)


class TestTrainingSetRecords:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        items = [TrainingItem(values=rng.uniform(0, 2, 25), level=1 + i % 3)
                 for i in range(9)]
        ts = RiskTrainingSet(criterion="proximity", items=items, cross_factor=2.0)
        p = tmp_path / "train.cyts"
        fio.write_training_set(p, ts)
        back = fio.read_training_set(p)
        assert back.criterion == "proximity"
        assert back.cross_factor == 2.0
        assert [it.level for it in back.items] == [it.level for it in items]
        for a, b in zip(back.items, items):
            assert np.array_equal(a.values, b.values)
        p2 = tmp_path / "again.cyts"
        fio.write_training_set(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("old,bad", [
        (b"0.5", b"Infinity"), (b"0.5", b"NaN"), (b"2.0", b"NaN"),
        pytest.param(b"2.0", b"1" + b"0" * 400, id="huge-int-cross-factor")])
    def test_non_finite_values_rejected(self, tmp_path, old, bad):
        # one bin, or the cross_factor, made non-finite
        p = tmp_path / "train.cyts"
        fio.write_training_set(p, RiskTrainingSet(
            criterion="lane", items=[TrainingItem(np.full(25, 0.5), 1)],
            cross_factor=2.0))
        p.write_bytes(p.read_bytes().replace(old, bad, 1))
        with pytest.raises(RecordParseError, match="finite|too large"):
            fio.read_training_set(p)


class TestModelRecords:
    @pytest.mark.parametrize("kname", ["linear", "gaussian"])
    def test_round_trip_preserves_decisions(self, tmp_path, kname):
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(0, 1, (12, 6)), rng.normal(3, 1, (12, 6)),
                       rng.normal(-3, 1, (12, 6))])
        y = ["a"] * 12 + ["b"] * 12 + ["c"] * 12
        model = train_svm(X, y, C=1.0, kernel=KernelSpec(kname))
        p = tmp_path / "model.cymd"
        fio.write_model(p, model)
        back = fio.read_model(p)
        assert back.classes == model.classes
        assert back.kernel == model.kernel
        assert back.smoother_bandwidth == model.smoother_bandwidth
        Xt = rng.normal(0, 2, (20, 6))
        assert np.allclose(back.decision_values(Xt), model.decision_values(Xt),
                           atol=1e-12)
        assert back.predict(Xt) == model.predict(Xt)
        p2 = tmp_path / "again.cymd"
        fio.write_model(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("where,literal", [
        (("kernel", "bandwidth"), "NaN"),
        (("kernel", "bandwidth"), "Infinity"),
        (("mu", 0), "NaN"),
        (("smoother_bandwidth",), "NaN"),
        (("binaries", 1, "bias"), "-Infinity"),
        (("binaries", 0, "sv_coef", 0), "1e999"),
        (("C",), "1" + "0" * 400),
        (("scale", 0), "0.0"),
        (("scale", 2), "-1.5"),
    ], ids=["nan-bandwidth", "inf-bandwidth", "nan-mu", "nan-smoother",
            "neg-inf-bias", "overflow-sv-coef", "huge-int-C", "zero-scale",
            "negative-scale"])
    def test_bad_numbers_rejected(self, tmp_path, where, literal):
        rng = np.random.default_rng(13)
        X = np.vstack([rng.normal(0, 1, (8, 4)), rng.normal(3, 1, (8, 4))])
        model = train_svm(X, ["a"] * 8 + ["b"] * 8, kernel=KernelSpec("gaussian"))
        p = tmp_path / "model.cymd"
        fio.write_model(p, model)
        head, body = p.read_text().split("\n", 1)
        body = json.loads(body)
        node = body
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = "@BAD@"
        p.write_text(head + "\n" + json.dumps(body).replace('"@BAD@"', literal))
        with pytest.raises(RecordParseError, match="finite|scale|too large"):
            fio.read_model(p)

    def test_feature_mask_survives(self, tmp_path):
        rng = np.random.default_rng(12)
        X = np.vstack([rng.normal(0, 1, (10, 8)), rng.normal(4, 1, (10, 8))])
        y = ["p"] * 10 + ["q"] * 10
        mask = np.zeros(8, dtype=bool)
        mask[[0, 3, 5]] = True
        model = train_svm(X, y, feature_mask=mask)
        p = tmp_path / "model.cymd"
        fio.write_model(p, model)
        back = fio.read_model(p)
        assert np.array_equal(back.feature_mask, mask)
        Xt = rng.normal(0, 2, (5, 8))
        assert back.predict(Xt) == model.predict(Xt)


class TestGeoJson:
    def segments(self):
        return [
            {"mode": "bike", "coords": [(-8.61, 41.15), (-8.60, 41.16)],
             "start_t": 0.0, "end_t": 60.0, "risk": {1: 10, 2: 3, 3: 1}},
            {"mode": "walk", "coords": [(-8.60, 41.16), (-8.59, 41.17)],
             "start_t": 60.0, "end_t": 120.0, "risk": {}},
        ]

    def test_schema_oracle(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        schema = {
            "type": "object",
            "required": ["type", "features"],
            "properties": {
                "type": {"const": "FeatureCollection"},
                "features": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["type", "geometry", "properties"],
                        "properties": {
                            "type": {"const": "Feature"},
                            "geometry": {
                                "type": "object",
                                "required": ["type", "coordinates"],
                                "properties": {
                                    "type": {"const": "LineString"},
                                    "coordinates": {
                                        "type": "array",
                                        "minItems": 2,
                                        "items": {
                                            "type": "array",
                                            "minItems": 2, "maxItems": 2,
                                            "items": {"type": "number"},
                                        },
                                    },
                                },
                            },
                            "properties": {
                                "type": "object",
                                "required": ["mode", "risk", "start_t", "end_t"],
                                "properties": {
                                    "mode": {"enum": ["walk", "bike", "motor"]},
                                    "risk": {
                                        "type": "object",
                                        "additionalProperties": {"type": "integer"},
                                    },
                                },
                            },
                        },
                    },
                },
            },
        }
        p = tmp_path / "report.geojson"
        fio.write_report_geojson(p, self.segments())
        doc = fio.read_report_geojson(p)
        jsonschema.validate(doc, schema)

    def test_lon_lat_order(self, tmp_path):
        p = tmp_path / "report.geojson"
        fio.write_report_geojson(p, self.segments())
        doc = json.loads(p.read_text())
        first = doc["features"][0]["geometry"]["coordinates"][0]
        assert first == [-8.61, 41.15]  # [lon, lat] per RFC 7946

    def test_canonical_bytes(self, tmp_path):
        p1 = tmp_path / "a.geojson"
        p2 = tmp_path / "b.geojson"
        fio.write_report_geojson(p1, self.segments())
        fio.write_report_geojson(p2, self.segments())
        assert p1.read_bytes() == p2.read_bytes()


class TestCanonicalJson:
    def test_sorted_and_minimal(self):
        assert fio.canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'

    def test_numpy_scalars(self):
        out = fio.canonical_json({"x": np.float64(0.5), "n": np.int64(3),
                                  "f": np.bool_(True)})
        assert out == '{"f":true,"n":3,"x":0.5}'

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            fio.canonical_json({"x": float("nan")})

    def test_float_repr_round_trips(self):
        vals = [0.1, 1 / 3, 1e-17, 123456.789]
        back = json.loads(fio.canonical_json(vals))
        assert back == vals
