import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclerisk.behavior import make_windows, preprocess
from cyclerisk.errors import InvalidInputError
from cyclerisk.risk import lane_region_map, object_footprint, proximity_region_map
from cyclerisk.synth import (FRAME_ZOOM, MAX_SEGMENT_S, gen_expansion_scene, gen_ride,
                             gen_risk_detections, render_ride_frames)
from synth_reference import reference_render_ride_frames

DIMS = (480, 360)
# docs/formats.md: under both criteria ids 1-5 are red, 6-15 yellow, 16-25 green
DOC_COLORS = ("red",) * 5 + ("yellow",) * 10 + ("green",) * 10


def src_env() -> dict:
    """Environment in which a child Python imports this checkout's package."""
    import cyclerisk
    src = str(Path(cyclerisk.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


class TestExpansionScene:
    def test_clean_flows_pass_through_focus(self):
        scene = gen_expansion_scene((200.0, 150.0), n=50, seed=1)
        for point, vector in zip(scene.points, scene.vectors):
            # signed perpendicular distance of the focus from the flow line
            d = vector / np.linalg.norm(vector)
            normal = np.array([-d[1], d[0]])
            assert abs(normal @ (scene.foe - point)) < 1e-9

    def test_outlier_count_exact(self):
        scene = gen_expansion_scene((240.0, 180.0), n=100, outlier_frac=0.3, seed=2)
        assert int((~scene.inlier_mask).sum()) == 30

    def test_bitwise_deterministic(self):
        a = gen_expansion_scene((240.0, 180.0), n=40, noise=1.0,
                                outlier_frac=0.2, seed=7)
        b = gen_expansion_scene((240.0, 180.0), n=40, noise=1.0,
                                outlier_frac=0.2, seed=7)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.vectors.tobytes() == b.vectors.tobytes()

    def test_bad_params(self):
        with pytest.raises(InvalidInputError):
            gen_expansion_scene((0, 0), n=0)
        with pytest.raises(InvalidInputError):
            gen_expansion_scene((0, 0), outlier_frac=1.5)

    @pytest.mark.parametrize("foe, dims", [
        ("(float('nan'), 5.0)", "(480, 360)"),
        ("(1.0, 1.0)", "(2, 2)"),   # no pixel lies more than 2 px from the focus
    ], ids=["nan-focus", "frame-within-2px"])
    def test_unreachable_focus_rejected(self, foe, dims):
        # run apart with a timeout: points are drawn until they clear the
        # focus, so a missing check shows as a hang
        code = ("from cyclerisk.errors import InvalidInputError\n"
                "from cyclerisk.synth import gen_expansion_scene\n"
                "try:\n"
                f"    gen_expansion_scene({foe}, dims={dims})\n"
                "except InvalidInputError:\n"
                "    raise SystemExit(2)\n")
        done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, timeout=20)
        assert done.returncode == 2, done.stderr


class TestRiskDetections:
    @pytest.mark.parametrize("criterion", ["lane", "proximity"])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_footprints_stay_in_level_colors(self, criterion, level):
        m = (lane_region_map((240.0, 185.0), DIMS) if criterion == "lane"
             else proximity_region_map(DIMS))
        allowed = {3: {"red", "yellow", "green"},
                   2: {"yellow", "green"},
                   1: {"green"}}[level]
        required = {3: "red", 2: "yellow", 1: "green"}[level]
        seen = set()
        for seed in range(12):
            dets = gen_risk_detections(m, level, seed=seed)
            colors_hit = set()
            for det in dets:
                x, y, w, h = object_footprint(det, DIMS)
                x0, x1 = int(np.floor(x)), int(np.ceil(x + w))
                y0, y1 = int(np.floor(y)), int(np.ceil(y + h))
                ids = np.unique(m.assignment[y0:y1, x0:x1])
                colors_hit |= {DOC_COLORS[int(k) - 1] for k in ids}
            assert colors_hit <= allowed
            assert required in colors_hit
            seen |= colors_hit
        assert required in seen

    def test_detections_in_bounds_and_valid(self):
        m = lane_region_map((240.0, 185.0), DIMS)
        for seed in range(8):
            for det in gen_risk_detections(m, 3, seed=seed):
                x, y, w, h = det.bbox
                assert 0 <= x and x + w <= DIMS[0]
                assert y + h <= DIMS[1]
                assert 0.0 <= det.score <= 1.0

    def test_deterministic(self):
        m = proximity_region_map(DIMS)
        a = gen_risk_detections(m, 2, seed=5)
        b = gen_risk_detections(m, 2, seed=5)
        assert [d.bbox for d in a] == [d.bbox for d in b]
        assert [d.label for d in a] == [d.label for d in b]

    def test_bad_level(self):
        with pytest.raises(InvalidInputError):
            gen_risk_detections(lane_region_map((240.0, 185.0), DIMS), 0)


class TestRide:
    def test_single_mode_schedule(self):
        ride = gen_ride([("walk", 60)], seed=1)
        assert set(ride.window_labels) == {"walk"}
        # 600 samples trim to 400 grid slots: (400 - 100) // 50 + 1 windows
        assert len(ride.window_labels) == 7

    def test_speed_ordering_across_modes(self):
        ride = gen_ride([("walk", 90), ("bike", 90), ("motor", 90)], seed=3)
        means = {}
        for mode in ("walk", "bike", "motor"):
            sel = ride.sample_modes == mode
            means[mode] = float(ride.stream.speed[sel].mean())
        assert means["walk"] < means["bike"] < means["motor"]

    def test_labels_align_with_windows(self):
        ride = gen_ride([("bike", 60), ("walk", 60)], seed=4)
        starts, windows = make_windows(preprocess(ride.stream))
        assert len(windows) == len(ride.window_labels)
        assert starts.tolist() == ride.window_starts.tolist()

    def test_bitwise_deterministic(self):
        a = gen_ride([("walk", 45), ("motor", 45)], seed=11)
        b = gen_ride([("walk", 45), ("motor", 45)], seed=11)
        assert np.array_equal(a.stream.speed, b.stream.speed)
        assert np.array_equal(a.stream.ax, b.stream.ax)
        assert np.array_equal(a.stream.lat, b.stream.lat)
        assert a.window_labels == b.window_labels

    def test_speed_never_negative(self):
        ride = gen_ride([("motor", 120)], seed=9)
        assert (ride.stream.speed >= 0).all()

    def test_schedule_validation(self):
        with pytest.raises(InvalidInputError):
            gen_ride([])
        with pytest.raises(InvalidInputError):
            gen_ride([("walk", 10)])
        with pytest.raises(InvalidInputError):
            gen_ride([("segway", 60)])
        for dur in (float("nan"), float("inf"), 1e308, MAX_SEGMENT_S * 1.001):
            with pytest.raises(InvalidInputError):
                gen_ride([("bike", dur)])

    def test_boundary_window_majority_label(self):
        # a window straddling a mode change takes the side with more samples
        ride = gen_ride([("walk", 35), ("bike", 35)], seed=6)
        grid = preprocess(ride.stream)
        starts, _ = make_windows(grid)
        for start, label in zip(starts, ride.window_labels):
            times = grid.t[start:start + 100]
            n_walk = int((times < 35.0).sum())
            # an exact 50/50 split falls to the earlier segment
            assert label == ("walk" if n_walk >= 50 else "bike")


def assert_frames_match_reference(dims, n_frames, **kw):
    got = list(render_ride_frames(dims, n_frames, **kw))
    want = reference_render_ride_frames(dims, n_frames, **kw)
    assert [k for k, _ in got] == [k for k, _ in want] == list(range(n_frames))
    for (_, a), (_, b) in zip(got, want):
        assert a.dtype == np.uint8 and a.shape == (dims[1], dims[0])
        assert a.tobytes() == b.tobytes()


@st.composite
def render_case(draw):
    w, h = draw(st.integers(32, 96)), draw(st.integers(32, 96))
    focus = draw(st.one_of(
        st.none(),
        st.tuples(st.floats(0.0, w - 1.0), st.floats(0.0, h - 1.0)),
        # a focus outside the frame: every pixel flows the same way
        st.tuples(st.floats(-3.0 * w, 4.0 * w), st.floats(-3.0 * h, 4.0 * h))))
    return dict(dims=(w, h), n_frames=draw(st.integers(1, 6)),
                seed=draw(st.integers(0, 2 ** 32 - 1)),
                zoom=draw(st.floats(1.0, 1.05, exclude_min=True)), focus=focus)


class TestRenderMatchesReference:
    """The separable renderer yields the per-wave reference's frames byte
    for byte."""

    @settings(max_examples=60, deadline=None)
    @given(case=render_case())
    def test_random_cases(self, case):
        dims, n_frames = case.pop("dims"), case.pop("n_frames")
        assert_frames_match_reference(dims, n_frames, **case)

    def test_bench_frames(self):
        # the frames a ride analyze reads: every 5th frame of a 40 s, 5 fps ride
        assert_frames_match_reference((240, 180), 41, seed=11, zoom=FRAME_ZOOM ** 5)

    @pytest.mark.parametrize("dims,n_frames,zoom", [
        ((31, 64), 1, FRAME_ZOOM), ((64, 31), 1, FRAME_ZOOM),
        ((64, 64), 0, FRAME_ZOOM), ((64, 64), 1, 1.0), ((64, 64), 1, 0.99),
    ])
    def test_bad_params(self, dims, n_frames, zoom):
        with pytest.raises(InvalidInputError):
            next(render_ride_frames(dims, n_frames, zoom=zoom))
