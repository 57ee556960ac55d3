"""Codec round trips and strict parse diagnostics."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cyclerisk.fileio as fio
from behavior_reference import SENSOR_FIELDS, reference_read_sensor_csv
from fileio_reference import reference_json
from cyclerisk.behavior import KernelSpec, train_svm
from cyclerisk.behavior.stream import SensorStream
from cyclerisk.emd import RiskTrainingSet, TrainingItem
from cyclerisk.errors import InvalidInputError, RecordParseError
from cyclerisk.risk import Detection, RiskDescriptor
from cyclerisk.synth import gen_ride


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


_GOOD_DETECTION = {"bbox": [0, 0, 1, 1], "class": "car", "frame": 0, "score": 0.5}


class TestJsonFieldTypes:
    """Detection and label fields are taken only in their JSON types; a wrong
    type is a RecordParseError naming its line, never a coerced value."""

    @pytest.mark.parametrize("change", [
        {"frame": 2.9}, {"frame": True}, {"frame": "3"}, {"frame": None},
        {"class": 5}, {"class": None}, {"class": ["car"]},
        {"score": True}, {"score": "0.5"}, {"score": None},
        {"bbox": [0, 0, 1, True]}, {"bbox": [0, "0", 1, 1]}, {"bbox": "0011"},
        {"bbox": {"0": 0, "1": 0, "2": 1, "3": 1}},
    ], ids=repr)
    def test_detection_wrong_type(self, tmp_path, change):
        p = tmp_path / "d.ndjson"
        p.write_text(json.dumps(_GOOD_DETECTION) + "\n"
                     + json.dumps({**_GOOD_DETECTION, **change}) + "\n")
        with pytest.raises(RecordParseError, match="bad detection record") as err:
            fio.read_detections(p)
        assert err.value.line == 2

    @pytest.mark.parametrize("change", [{"score": 10 ** 400},
                                        {"bbox": [0, 0, 1, 10 ** 400]}],
                             ids=["score", "bbox"])
    def test_detection_integer_past_float_range(self, tmp_path, change):
        p = tmp_path / "d.ndjson"
        p.write_text(json.dumps({**_GOOD_DETECTION, **change}) + "\n")
        with pytest.raises(RecordParseError, match="bad detection record") as err:
            fio.read_detections(p)
        assert err.value.line == 1

    def test_detection_integers_are_numbers(self, tmp_path):
        p = tmp_path / "d.ndjson"
        p.write_text(json.dumps({**_GOOD_DETECTION, "score": 1}) + "\n")
        (det,) = fio.read_detections(p)
        assert det.score == 1.0 and det.bbox == (0.0, 0.0, 1.0, 1.0)
        assert type(det.frame) is int and type(det.score) is float
        assert all(type(v) is float for v in det.bbox)

    @pytest.mark.parametrize("rec", [
        {"start": 3.7, "label": "bike"}, {"start": 3.0, "label": "bike"},
        {"start": True, "label": "bike"}, {"start": "3", "label": "bike"},
        {"start": 3, "label": 5}, {"start": 3, "label": None},
        {"start": 3}, ["bike", 3], "bike",
    ], ids=repr)
    def test_label_wrong_type(self, tmp_path, rec):
        p = tmp_path / "labels.ndjson"
        p.write_text('{"label":"walk","start":0}\n' + json.dumps(rec) + "\n")
        with pytest.raises(RecordParseError, match="bad label record") as err:
            fio.read_window_labels(p)
        assert err.value.line == 2


class TestSensorCsv:
    @pytest.mark.parametrize("long_log", [False, True], ids=["small", "30min"])
    def test_round_trip(self, tmp_path, long_log):
        s = (gen_ride([("walk", 600), ("bike", 600), ("motor", 600)], seed=2024).stream
             if long_log else small_stream())
        p = tmp_path / "sensors.csv"
        fio.write_sensor_csv(p, s)
        # each cell is the repr of its float64
        assert p.read_text().splitlines()[1:] == [
            ",".join(repr(float(getattr(s, f)[i])) for f in SENSOR_FIELDS)
            for i in range(len(s))]
        back = fio.read_sensor_csv(p)
        for f in SENSOR_FIELDS:
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


# field texts Python's float() takes or refuses; the reader must agree with it
_ODD_FIELDS = ("nan", "inf", "-Infinity", "1e400", "-1e400", "1_0", " 1.5 ",
               "0x10", "", " ", "abc", "1e-400", "-0", "+2.", ".5", "1,5")
_HEADERS = (fio.SENSOR_HEADER, f" {fio.SENSOR_HEADER}\t", "t,ax,ay",
            fio.SENSOR_HEADER.upper(), "", fio.SENSOR_HEADER + ",x")


@st.composite
def sensor_csv_text(draw):
    """sensors.csv text: mostly valid rows, with the mutations readers meet."""
    header = draw(st.sampled_from(_HEADERS[:1] * 6 + _HEADERS))
    sep = draw(st.sampled_from([",", ", ", " ,"]))
    t = draw(st.floats(-1e3, 1e3))
    lines = [header]
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["ok"] * 12 + [
            "blank", "spaces", "short", "long", "odd", "odd", "t_equal",
            "t_back"]))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", "  \t "])))
            continue
        t += {"t_equal": 0.0, "t_back": -0.05}.get(kind, 0.1)
        fields = [repr(t)] + [repr(draw(st.floats(-1e6, 1e6))) for _ in range(10)]
        if kind == "short":
            fields = fields[:draw(st.integers(1, 10))]
        elif kind == "long":
            fields.append("0.0")
        elif kind == "odd":
            fields[draw(st.integers(0, 10))] = draw(st.sampled_from(_ODD_FIELDS))
        lines.append(sep.join(fields))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _sensor_outcome(read, path):
    """The columns' bytes, or the error's message and line."""
    try:
        stream = read(path)
    except fio.RecordParseError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", tuple(getattr(stream, f).tobytes() for f in SENSOR_FIELDS))


class TestSensorCsvMatchesRowReader:
    @settings(max_examples=300, deadline=None)
    @given(text=sensor_csv_text(), block=st.sampled_from([1, 3, fio._BLOCK_ROWS]))
    def test_fuzz_same_arrays_or_same_error(self, tmp_path_factory, text, block):
        p = tmp_path_factory.mktemp("csv") / "sensors.csv"
        p.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fio, "_BLOCK_ROWS", block)
            got = _sensor_outcome(fio.read_sensor_csv, p)
        assert got == _sensor_outcome(reference_read_sensor_csv, p)

    @pytest.mark.parametrize("bad_row", [None, 0, fio._BLOCK_ROWS - 1,
                                         fio._BLOCK_ROWS, 2047, 2599])
    def test_errors_past_block_edges_name_their_line(self, tmp_path, bad_row):
        p = tmp_path / "sensors.csv"
        fio.write_sensor_csv(p, small_stream(2600))
        if bad_row is not None:
            lines = p.read_text().splitlines()
            fields = lines[bad_row + 1].split(",")
            fields[3] = "nan"
            lines[bad_row + 1] = ",".join(fields)
            p.write_text("\n".join(lines) + "\n")
        got = _sensor_outcome(fio.read_sensor_csv, p)
        assert got == _sensor_outcome(reference_read_sensor_csv, p)
        assert got[0] == ("ok" if bad_row is None else "error")
        if bad_row is not None:
            assert got[2] == bad_row + 2


def _sensor_lines(path, n):
    fio.write_sensor_csv(path, small_stream(n))
    return path.read_text().splitlines()


class TestSensorCsvErrorOrder:
    """The first bad row in file order is named; on it the rules apply in
    the order field count, number, finite, increasing `t`."""

    @pytest.mark.parametrize("block", [3, 256])
    def test_decrease_before_bad_number_in_one_block(self, tmp_path, block):
        # data rows 3, 4 and 5 share a block at either size; the rows of a
        # block whose parse fails are written before the checks read them
        p = tmp_path / "sensors.csv"
        lines = _sensor_lines(p, 20)
        lines[4], lines[5] = lines[5], lines[4]   # row 4's t falls: file line 6
        fields = lines[6].split(",")
        fields[3] = "abc"                         # file line 7
        lines[6] = ",".join(fields)
        p.write_text("\n".join(lines) + "\n")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fio, "_BLOCK_ROWS", block)
            got = _sensor_outcome(fio.read_sensor_csv, p)
        assert got == _sensor_outcome(reference_read_sensor_csv, p)
        assert got[2] == 6 and "does not increase" in got[1]

    @pytest.mark.parametrize("bad, match", [
        ("short", "expected 11 fields, got 3"), ("abc", "bad number"),
        ("nan", "non-finite"), ("t_back", "does not increase")])
    def test_blank_rows_count_in_line_number(self, tmp_path, bad, match):
        p = tmp_path / "sensors.csv"
        lines = _sensor_lines(p, 20)
        fields = lines[8].split(",")
        if bad == "short":
            fields = fields[:3]
        elif bad == "t_back":
            fields[0] = lines[1].split(",")[0]
        else:
            fields[2] = bad
        lines[8] = ",".join(fields)
        lines[3:3] = ["", " \t"]   # data row 7 moves from file line 9 to 11
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordParseError, match=match) as err:
            fio.read_sensor_csv(p)
        assert err.value.line == 11
        assert _sensor_outcome(fio.read_sensor_csv, p) == _sensor_outcome(
            reference_read_sensor_csv, p)

    def test_blank_rows_leave_long_log_unchanged(self, tmp_path):
        # a 30-min three-mode log, read with and without blank rows
        p, q = tmp_path / "sensors.csv", tmp_path / "blank.csv"
        stream = gen_ride([("walk", 600), ("bike", 600), ("motor", 600)],
                          seed=2024).stream
        fio.write_sensor_csv(p, stream)
        lines = p.read_text().splitlines()
        for at in (len(lines), 2 + fio._BLOCK_ROWS, 1 + fio._BLOCK_ROWS, 9000, 1):
            lines.insert(at, " " if at % 2 else "")
        q.write_text("\n".join(lines) + "\n")
        want = _sensor_outcome(fio.read_sensor_csv, p)
        assert want[0] == "ok" and len(stream) == 18000
        assert _sensor_outcome(fio.read_sensor_csv, q) == want


_NOT_UTF8 = b"\xff\xfe"


class TestNotUtf8:
    """A stray non-UTF-8 byte is a malformed record, named by its line."""

    def test_sensor_csv(self, tmp_path):
        p = tmp_path / "sensors.csv"
        p.write_bytes(fio.SENSOR_HEADER.encode() + b"\r\n0.0," + _NOT_UTF8 + b"\n")
        with pytest.raises(RecordParseError, match="UTF-8") as err:
            fio.read_sensor_csv(p)
        assert err.value.line == 2

    def test_detections(self, tmp_path):
        p = tmp_path / "detections.ndjson"
        p.write_bytes(b"\n\n" + _NOT_UTF8)
        with pytest.raises(RecordParseError, match="UTF-8") as err:
            fio.read_detections(p)
        assert err.value.line == 3

    def test_window_labels(self, tmp_path):
        p = tmp_path / "labels.ndjson"
        p.write_bytes(b'{"label":"walk","start":0}\n{"label":"' + _NOT_UTF8 + b'"}\n')
        with pytest.raises(RecordParseError, match="UTF-8") as err:
            fio.read_window_labels(p)
        assert err.value.line == 2

    def test_ride_meta(self, tmp_path):
        p = tmp_path / "ride.json"
        p.write_bytes(b'{"fps": 5, "name": "' + _NOT_UTF8 + b'"}')
        with pytest.raises(RecordParseError, match="UTF-8") as err:
            fio.read_ride_meta(p)
        assert err.value.line == 1

    def test_newlines_read_as_path_read_text_does(self, tmp_path):
        p = tmp_path / "mixed.txt"
        p.write_bytes("a\r\nb\rc\n\u00e9\r".encode("utf-8"))
        assert fio.read_text(p) == p.read_text(encoding="utf-8")


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

    def test_overflowing_total_rejected(self, tmp_path):
        # each bin is finite, but the total retrieval divides by is not
        p = tmp_path / "d.cydr"
        fio.write_descriptors(p, "lane", [RiskDescriptor(
            values=np.full(25, 0.5), criterion="lane")])
        p.write_bytes(p.read_bytes().replace(b"0.5", b"1e308", 2))
        with pytest.raises(RecordParseError, match="finite total"):
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

    def test_overflowing_total_rejected(self, tmp_path):
        p = tmp_path / "train.cyts"
        fio.write_training_set(p, RiskTrainingSet(
            criterion="lane", items=[TrainingItem(np.full(25, 0.5), 1)]))
        p.write_bytes(p.read_bytes().replace(b"0.5", b"1e308", 2))
        with pytest.raises(RecordParseError, match="finite total"):
            fio.read_training_set(p)


# numbers a reader meets beside ordinary ones: the edges of float64,
# non-finite and negative numbers, and JSON values that are not numbers
_ODD_NUMBERS = (0.0, -0.0, 1e308, 5e-324, -1.0, float("inf"), float("-inf"),
             float("nan"), "0.5", None, True, [1.0], 10 ** 400)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
# bodies JSON cannot parse: cut short, nested too deep, an integer too long
# to convert, bad UTF-8
_BAD_BODIES = (b"", b"{", b'{"criterion": "lane"', b"[" * 5000, b"1" * 5000,
               b'{"cross_factor": ' + b"1" * 5000 + b"}", _NOT_UTF8)


@st.composite
def bins_json(draw):
    """A descriptor's `values`: 25 masses, some odd, or another JSON value."""
    kind = draw(st.sampled_from(["ok"] * 4 + ["odd", "odd", "length", "json"]))
    if kind == "json":
        return draw(_JSON)
    n = draw(st.integers(0, 30)) if kind == "length" else 25
    values = [draw(st.sampled_from([0.0, 0.5, 1.0, 3.25])) for _ in range(n)]
    if kind == "odd":
        for _ in range(draw(st.integers(1, 3))):
            values[draw(st.integers(0, 24))] = draw(st.sampled_from(_ODD_NUMBERS))
    return values


def _or_json(draw, good):
    """Mostly a draw from `good`, one time in five any JSON value."""
    return draw(_JSON) if draw(st.integers(0, 4)) == 0 else draw(good)


@st.composite
def record_bytes(draw, magic):
    """A `.cydr` (magic b"CYDR") or `.cyts` (b"CYTS") file: mostly a good
    header over a body with bad fields, sometimes a body JSON cannot parse,
    or arbitrary bytes."""
    kind = draw(st.sampled_from(["body"] * 8 + ["unparsable", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    head = draw(st.sampled_from([magic + b" 1.0.0"] * 12 + [
        magic + b" 1.7.2", magic + b" 2.0.0", b"CYMD 1.0.0", magic, b""]))
    if kind == "unparsable":
        return head + b"\n" + draw(st.sampled_from(_BAD_BODIES))
    criterion = _or_json(draw, st.sampled_from(["proximity"] * 3 + ["lane"]))
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        if magic == b"CYDR":
            entry = {"frame": _or_json(draw, st.integers(0, 500))}
            if draw(st.booleans()):
                entry["skipped_unknown"] = _or_json(draw, st.integers(0, 3))
        else:
            entry = {"level": _or_json(draw, st.sampled_from([1, 2, 3] * 3 + [0, 4]))}
        entry["values"] = draw(bins_json())
        entries.append(entry if draw(st.integers(0, 9)) else draw(_JSON))
    key = "frames" if magic == b"CYDR" else "items"
    body = {"criterion": criterion, key: _or_json(draw, st.just(entries))}
    if magic == b"CYTS" and draw(st.booleans()):
        body["cross_factor"] = _or_json(draw, st.sampled_from(
            [1.0, 2.0, 7.5, 0.5, 1e308, float("inf"), float("nan")]))
    if draw(st.integers(0, 9)) == 0:
        body = draw(_JSON)
    # json.dumps writes NaN/Infinity tokens for non-finite floats
    return head + b"\n" + json.dumps(body).encode("utf-8") + b"\n"


def _finite_total(values):
    return values.shape == (25,) and np.isfinite(values.sum()) and (values >= 0).all()


# the documented JSON kinds, checked apart from the reader's own rule
def _is_number(v):
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _is_number_or_null(v):
    return v is None or _is_number(v)


def _record_body(raw):
    """The JSON body of a record file, below its header line."""
    return json.loads(raw.split(b"\n", 1)[1])


class TestRecordFuzz:
    @settings(max_examples=200, deadline=None)
    @given(raw=record_bytes(b"CYDR"))
    def test_descriptors_read_or_record_error(self, tmp_path_factory, raw):
        p = tmp_path_factory.mktemp("cydr") / "d.cydr"
        p.write_bytes(raw)
        try:
            criterion, descs = fio.read_descriptors(p)
        except RecordParseError:
            return
        assert isinstance(criterion, str)
        assert all(_finite_total(d.values) for d in descs)
        # nothing was coerced: every field read had its documented kind
        body = _record_body(raw)
        assert type(body["criterion"]) is str
        assert len(body["frames"]) == len(descs)
        for f in body["frames"]:
            assert type(f["frame"]) is int
            assert type(f.get("skipped_unknown", 0)) is int
            assert all(map(_is_number, f["values"]))

    @settings(max_examples=200, deadline=None)
    @given(raw=record_bytes(b"CYTS"))
    def test_training_set_read_or_record_error(self, tmp_path_factory, raw):
        p = tmp_path_factory.mktemp("cyts") / "t.cyts"
        p.write_bytes(raw)
        try:
            ts = fio.read_training_set(p)
        except RecordParseError:
            return
        assert ts.criterion in ("lane", "proximity")
        assert 1.0 <= ts.cross_factor < float("inf")
        assert all(_finite_total(it.values) and it.level in (1, 2, 3)
                   for it in ts.items)
        assert any(it.values.sum() > 0.0 for it in ts.items)
        body = _record_body(raw)
        assert type(body["criterion"]) is str
        assert _is_number(body.get("cross_factor", 2.0))
        for item in body["items"]:
            assert type(item["level"]) is int
            assert all(map(_is_number, item["values"]))

    @pytest.mark.parametrize("body", _BAD_BODIES[3:],
                             ids=["deep", "long-int", "long-int-field", "not-utf8"])
    @pytest.mark.parametrize("magic", [b"CYDR", b"CYTS"])
    def test_unparsable_body_is_a_record_error(self, tmp_path, magic, body):
        p = tmp_path / "r"
        p.write_bytes(magic + b" 1.0.0\n" + body)
        read = fio.read_descriptors if magic == b"CYDR" else fio.read_training_set
        with pytest.raises(RecordParseError) as info:
            read(p)
        assert info.value.line == 2


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
        doc = json.loads(p.read_text(encoding="utf-8"))
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


_finite = st.floats(allow_nan=False, allow_infinity=False)
_numpy_scalars = st.one_of(
    _finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    _finite.map(np.longdouble),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans().map(np.bool_))
_arrays = st.sampled_from([np.float64, np.float32, np.longdouble, np.int64, np.bool_]).flatmap(
    lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                                     max_side=3),
                             elements=hnp.from_dtype(np.dtype(dtype), allow_nan=False,
                                                     allow_infinity=False)
                             if np.dtype(dtype).kind == "f" else None))


# (value, the same value for the reference): the reference cannot walk a 0-d
# array, so it is given the array's numpy scalar
_json_pairs = st.recursive(
    st.one_of((st.none() | st.booleans() | st.integers() | _finite | st.text(max_size=4)
               | _numpy_scalars | _arrays).map(lambda v: (v, v)),
              _numpy_scalars.map(lambda v: (np.array(v), v))),
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(
            lambda ps: ([v for v, _ in ps], [r for _, r in ps])),
        st.lists(children, max_size=4).map(
            lambda ps: (tuple(v for v, _ in ps), tuple(r for _, r in ps))),
        st.dictionaries(st.text(max_size=4), children, max_size=4).map(
            lambda d: ({k: v for k, (v, _) in d.items()},
                       {k: r for k, (_, r) in d.items()}))),
    max_leaves=20)


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

    @settings(max_examples=300, deadline=None)
    @given(pair=_json_pairs)
    def test_same_text_as_reference(self, pair):
        value, reference_value = pair
        assert fio.canonical_json(value) == reference_json(reference_value)

    def test_zero_d_array_is_its_number(self):
        assert fio.canonical_json([np.array(0.5), np.array(3)]) == "[0.5,3]"

    @pytest.mark.parametrize("value", [
        {1, 2}, np.datetime64("2020-01-01"), np.array(["2020-01-01"], dtype="datetime64[D]"),
        complex(1, 2), np.complex128(1), object(), np.float32("inf")],
        ids=["set", "datetime64", "datetime64-array", "complex", "complex128",
             "object", "float32-inf"])
    def test_unencodable_value_is_input_error(self, value):
        with pytest.raises(InvalidInputError):
            fio.canonical_json({"x": [value]})


# --------------------------------------------------------------- reader fuzz
#
# Each reader either returns a value of its documented shape or raises
# RecordParseError; no other exception may escape. The files are mostly
# near-valid, with odd field values, plus bodies JSON cannot parse and
# arbitrary bytes.


def _number(draw, ordinary=(0.0, 0.5, 1.0, 7.25)):
    """One time in four an odd number, else an ordinary one."""
    odd = draw(st.integers(0, 3)) == 0
    return draw(st.sampled_from(_ODD_NUMBERS if odd else ordinary))


@st.composite
def ndjson_bytes(draw, record):
    """Lines of `record` draws, some replaced by any JSON or unparsable text."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["record"] * 6 + ["json", "bad", "blank"]))
        if kind == "bad":
            lines.append(draw(st.sampled_from(_BAD_BODIES)))
        elif kind == "blank":
            lines.append(b"  ")
        else:
            value = draw(record) if kind == "record" else draw(_JSON)
            lines.append(json.dumps(value).encode("utf-8"))
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b"", b"\r\n"]))


@st.composite
def detection_record(draw):
    rec = {"frame": _or_json(draw, st.integers(-2, 10 ** 30)),
           "class": _or_json(draw, st.sampled_from(["car", "person", ""])),
           "score": _number(draw, (0.0, 0.5, 1.0, 1.5)),
           "bbox": [_number(draw, (0.0, 3.0, 40.0, -1.0))
                    for _ in range(draw(st.sampled_from([4, 4, 4, 0, 3, 5])))]}
    for key in draw(st.lists(st.sampled_from(sorted(rec)), max_size=1)):
        del rec[key]
    return rec


@st.composite
def label_record(draw):
    rec = {"start": _number(draw, (0, 100, 2 ** 62, -5)),
           "label": _or_json(draw, st.sampled_from(["walk", "bike", "motor"]))}
    for key in draw(st.lists(st.sampled_from(sorted(rec)), max_size=1)):
        del rec[key]
    return rec


@st.composite
def pgm_bytes(draw):
    """A P5 header of odd tokens over a payload of any length, or any bytes."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.binary(max_size=60))
    token = st.sampled_from([b"0", b"1", b"2", b"3", b"255", b"256", b"-1", b"x",
                             b"1" * 5000, b"0" * 5000 + b"2", b"2.0", b""])
    seps = st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n", b"  "])
    head = draw(st.sampled_from([b"P5", b"P5", b"P5", b"P2", b"P"]))
    for _ in range(draw(st.integers(0, 4))):
        head += draw(seps) + draw(token)
    return head + draw(seps) + draw(st.binary(max_size=12))


@st.composite
def model_bytes(draw, n_features=3):
    """A `.cymd` file: mostly a good header over a model body whose sizes may
    disagree and which may carry one odd value or lack one key, sometimes a
    body JSON cannot parse, or arbitrary bytes."""
    kind = draw(st.sampled_from(["body"] * 8 + ["unparsable", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    head = draw(st.sampled_from([b"CYMD 1.0.0"] * 12 + [b"CYMD 2.0.0", b"CYDR 1.0.0"]))
    if kind == "unparsable":
        return head + b"\n" + draw(st.sampled_from(_BAD_BODIES))
    d = draw(st.integers(1, n_features))

    def size(k):                    # mostly k, now and then one off
        return max(0, k + draw(st.sampled_from([0] * 12 + [-1, 1])))

    def vec(k):
        return [draw(st.sampled_from([0.5, -1.0, 2.0])) for _ in range(size(k))]

    classes = list(draw(st.sampled_from([("bike", "walk"), ("bike", "motor", "walk"),
                                         ("walk",), ("bike", "bike")])))
    binaries = [{"sv_x": [vec(d) for _ in range(size(n_sv))], "sv_coef": vec(n_sv),
                 "bias": 0.5, "weights": vec(d) if draw(st.booleans()) else None}
                for n_sv in [draw(st.integers(0, 3)) for _ in range(size(len(classes)))]]
    body = {
        "classes": classes,
        "kernel": draw(st.sampled_from([{"name": "linear", "bandwidth": None},
                                        {"name": "gaussian", "bandwidth": 1.5},
                                        {"name": "gaussian", "bandwidth": None},
                                        {"name": "poly2", "bandwidth": None}])),
        "C": 1.0,
        "mu": vec(d),
        "scale": [abs(v) for v in vec(d)],
        "feature_mask": [i < d for i in range(size(n_features))],
        "priors": {c: 1.0 / len(classes) for c in classes},
        "smoother_bandwidth": draw(st.sampled_from([None, 1.0])),
        "binaries": binaries,
    }
    spoil = draw(st.sampled_from(["none"] * 3 + ["value", "number", "entry", "entry",
                                                 "drop", "all"]))
    key = draw(st.sampled_from(sorted(body)))
    if spoil == "value":
        body[key] = draw(_JSON)
    elif spoil == "number":
        for node in (body["binaries"][0] if binaries else {}, body["kernel"], body):
            for k, v in node.items():
                if isinstance(v, float) and draw(st.booleans()):
                    node[k] = draw(st.sampled_from(_ODD_NUMBERS))
    elif spoil == "entry":          # one entry of an array, even a class name
        arrays = [body[k] for k in ("classes", "mu", "scale", "feature_mask")]
        arrays += [a for b in binaries for a in (b["sv_coef"], *b["sv_x"])]
        arrays = [a for a in arrays if a]
        if arrays:
            entries = draw(st.sampled_from(arrays))
            entries[draw(st.integers(0, len(entries) - 1))] = draw(
                st.sampled_from(_ODD_NUMBERS + (0, 1, "no", "bike")))
    elif spoil == "drop":
        del body[key]
    elif spoil == "all":
        body = draw(_JSON)
    return head + b"\n" + json.dumps(body).encode("utf-8") + b"\n"


@st.composite
def json_file_bytes(draw, value):
    """A JSON file holding a `value` draw; now and then any JSON value, a
    body JSON cannot parse, or arbitrary bytes."""
    kind = draw(st.sampled_from(["value"] * 6 + ["json", "bad", "bytes"]))
    if kind == "bad":
        return draw(st.sampled_from(_BAD_BODIES))
    if kind == "bytes":
        return draw(st.binary(max_size=60))
    return json.dumps(draw(value if kind == "value" else _JSON)).encode("utf-8")


@st.composite
def ride_meta(draw):
    meta = {"fps": _number(draw, (5.0, 10.0, 0.2)),
            "frame_start": _number(draw, (0.0, 3.5, -1.0))}
    for key in draw(st.lists(st.sampled_from(sorted(meta)), max_size=2, unique=True)):
        del meta[key]
    return meta


def _read_or_record_error(read, tmp_path_factory, raw, name):
    p = tmp_path_factory.mktemp("fuzz") / name
    p.write_bytes(raw)
    try:
        return read(p)
    except RecordParseError:
        return None


class TestReaderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(raw=pgm_bytes())
    def test_pgm(self, tmp_path_factory, raw):
        img = _read_or_record_error(fio.read_pgm, tmp_path_factory, raw, "f.pgm")
        if img is not None:
            assert img.ndim == 2 and img.dtype == np.uint8

    @settings(max_examples=200, deadline=None)
    @given(raw=ndjson_bytes(detection_record()))
    def test_detections(self, tmp_path_factory, raw):
        dets = _read_or_record_error(fio.read_detections, tmp_path_factory, raw,
                                     "detections.ndjson")
        if dets is not None:
            assert all(isinstance(d, Detection) for d in dets)

    @settings(max_examples=200, deadline=None)
    @given(raw=ndjson_bytes(label_record()))
    def test_window_labels(self, tmp_path_factory, raw):
        labels = _read_or_record_error(fio.read_window_labels, tmp_path_factory,
                                       raw, "labels.ndjson")
        if labels is not None:
            assert all(type(s) is int and type(lb) is str for s, lb in labels)

    @settings(max_examples=300, deadline=None)
    @given(raw=model_bytes())
    def test_model(self, tmp_path_factory, raw):
        model = _read_or_record_error(fio.read_model, tmp_path_factory, raw,
                                      "model.cymd")
        if model is None:
            return
        d = int(model.feature_mask.sum())
        assert len(model.classes) >= 2 and len(model.binaries) == len(model.classes)
        assert model.mu.shape == model.scale.shape == (d,)
        assert set(model.priors) == set(model.classes)
        for b in model.binaries:
            assert b.sv_x.shape == (b.sv_coef.size, d)
            assert b.weights is None or b.weights.shape == (d,)
        # nothing was coerced: every field read had its documented kind
        body = _record_body(raw)
        assert all(type(c) is str for c in body["classes"])
        assert type(body["kernel"]["name"]) is str
        assert _is_number_or_null(body["kernel"]["bandwidth"])
        assert _is_number(body["C"])
        assert all(map(_is_number, body["mu"] + body["scale"]))
        assert all(type(v) is bool for v in body["feature_mask"])
        assert all(map(_is_number, body["priors"].values()))
        assert _is_number_or_null(body.get("smoother_bandwidth"))
        for b in body["binaries"]:
            assert all(map(_is_number, [v for row in b["sv_x"] for v in row]))
            assert all(map(_is_number, b["sv_coef"])) and _is_number(b["bias"])
            assert b["weights"] is None or all(map(_is_number, b["weights"]))

    @settings(max_examples=200, deadline=None)
    @given(raw=json_file_bytes(ride_meta()))
    def test_ride_meta(self, tmp_path_factory, raw):
        _read_or_record_error(fio.read_ride_meta, tmp_path_factory, raw, "ride.json")


class TestUnparsableJson:
    """A body nested too deep or an integer too long to convert is a
    RecordParseError naming its line, as a bad JSON token is."""

    @pytest.mark.parametrize("body", [b"[" * 3000, b"1" * 5000],
                             ids=["deep", "long-int"])
    @pytest.mark.parametrize("read,name,line", [
        (fio.read_ride_meta, "ride.json", 1),
        (fio.read_detections, "detections.ndjson", 2),
        (fio.read_window_labels, "labels.ndjson", 2),
    ], ids=["ride-meta", "detections", "labels"])
    def test_record_error(self, tmp_path, read, name, line, body):
        p = tmp_path / name
        p.write_bytes(b"\n" * (line - 1) + body + b"\n")
        with pytest.raises(RecordParseError) as info:
            read(p)
        assert info.value.line == line
