import math
from dataclasses import dataclass

import foe_reference as ref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclerisk import pipeline
from cyclerisk.config import FoeConfig, PipelineConfig
from cyclerisk.errors import (
    ConfigError,
    CycleRiskError,
    DegenerateGeometryError,
    InsufficientFlowError,
    InvalidInputError,
)
from cyclerisk.foe import (
    FoeSmoother,
    estimate_foe,
    magnitude_weights,
    object_weights,
    refine_foe,
)
from cyclerisk.risk import Detection
from cyclerisk.synth import gen_expansion_scene
from cyclerisk.vision import FlowField


@dataclass
class Det:
    bbox: tuple
    score: float


def flows_at(radii, mags, prev_foe=(240.0, 180.0)):
    # points along +x from the reference focus, flows of the given magnitudes
    radii = np.asarray(radii, dtype=np.float64)
    points = np.column_stack((prev_foe[0] + radii, np.full(len(radii), prev_foe[1])))
    vectors = np.column_stack((np.asarray(mags, dtype=np.float64), np.zeros(len(radii))))
    return points, vectors


def unit_weights(scene):
    return np.ones(len(scene.points))


def normals_offsets(points, vectors):
    dirs = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    normals = np.column_stack((-dirs[:, 1], dirs[:, 0]))
    return normals, np.einsum("ij,ij->i", normals, points)


QUORUM_FOE = np.array([200.0, 150.0])


def quorum_flows():
    """Ten flows through QUORUM_FOE, the last three pointing inward."""
    rng = np.random.default_rng(11)
    points = rng.uniform(50, 350, size=(10, 2))
    radial = points - QUORUM_FOE
    radial /= np.linalg.norm(radial, axis=1)[:, None]
    radial[7:] *= -1.0
    return points, radial * 5.0


FRAME = (480, 360)  # diagonal 600, so default ring bounds are 90/180/300 px


class TestMagnitudeWeights:
    def test_mid_band_deviation(self):
        w = magnitude_weights(*flows_at([10, 30, 50, 70], [11, 21, 16, 16]), (240, 180), FRAME)
        # mean 16: inner bound 4, outer bound 16**(2/3) = 6.3496; dev 5 sits between
        assert w.tolist() == [0.75, 0.75, 1.0, 1.0]

    def test_strong_deviation(self):
        w = magnitude_weights(*flows_at([10, 30, 50, 70], [9, 23, 16, 16]), (240, 180), FRAME)
        assert w.tolist() == [0.10, 0.10, 1.0, 1.0]

    def test_inner_bound_inclusive(self):
        w = magnitude_weights(*flows_at([10, 30, 50, 70], [12, 20, 16, 16]), (240, 180), FRAME)
        assert w.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_ring_assignment_boundaries(self):
        # Around each bound: two speed-16 flows inside it, two speed-2 flows
        # outside it. A speed-16 flow exactly on the bound must join the
        # inner ring (all weights stay 1); just past it, it joins the outer
        # ring, whose mean of 6.67 puts every member at weight 0.10.
        for bound in (90.0, 180.0, 300.0):
            for middle, expect in ((bound, [1.0, 1.0, 1.0, 1.0, 1.0]),
                                   (bound + 0.5, [1.0, 1.0, 0.10, 0.10, 0.10])):
                radii = [bound - 20, bound - 10, middle, bound + 10, bound + 20]
                w = magnitude_weights(*flows_at(radii, [16, 16, 16, 2, 2]),
                                      (240, 180), FRAME)
                assert w.tolist() == expect, (bound, middle)

    def test_rings_statistically_independent(self):
        near = flows_at([10, 30, 50, 70], [11, 21, 16, 16])
        far = flows_at([310, 330, 350], [2.0, 2.0, 2.0])
        w = magnitude_weights(np.vstack((near[0], far[0])), np.vstack((near[1], far[1])),
                              (240, 180), FRAME)
        assert w[:4].tolist() == [0.75, 0.75, 1.0, 1.0]
        # far ring: mean 2, all deviations 0 -> full weight
        assert w[4:].tolist() == [1.0, 1.0, 1.0]

    def test_crossed_bounds_when_mean_below_one(self):
        # mean 0.5: outer bound 0.630 < inner bound 0.707, so the bands
        # overlap; a deviation of 0.7 satisfies both rules and the
        # strong-deviation rule must win
        w = magnitude_weights(*flows_at([10, 30, 50], [1.2, 0.2, 0.1]), (240, 180), FRAME)
        assert w.tolist() == [0.10, 1.0, 1.0]

    def test_zero_flow_rejected(self):
        points, vectors = flows_at([10, 20], [5.0, 0.0])
        with pytest.raises(InvalidInputError):
            magnitude_weights(points, vectors, (240, 180), FRAME)

    def test_bad_radii_rejected(self):
        # the radii are the section's, which refuses them out of order
        with pytest.raises(ConfigError, match="ring_radii"):
            magnitude_weights(*flows_at([10], [5.0]), (240, 180), FRAME,
                              FoeConfig(ring_radii=(0.3, 0.15, 0.5)))

    def test_radii_come_from_the_section(self):
        # with the inner bound (360 px) past the speed-2 flows, the two
        # rings of test_rings_statistically_independent merge into one of
        # mean speed 10
        points, vectors = flows_at([10, 30, 50, 70, 310, 330, 350],
                                   [11, 21, 16, 16, 2, 2, 2])
        split = magnitude_weights(points, vectors, (240, 180), FRAME)
        merged = magnitude_weights(points, vectors, (240, 180), FRAME,
                                   FoeConfig(ring_radii=(0.6, 0.7, 0.8)))
        assert split.tolist() == [0.75, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0]
        assert merged.tolist() == [1.0, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10]


class TestObjectWeights:
    def test_covered_point_discounted(self):
        points = np.array([[50.0, 50.0], [200.0, 200.0]])
        inside, outside = object_weights(points, [Det((40, 40, 20, 20), 0.9)])
        assert inside == pytest.approx(math.exp(-0.9))
        assert outside == 1.0

    def test_overlapping_boxes_take_max_score(self):
        w = object_weights(np.array([[50.0, 50.0]]), [Det((40, 40, 20, 20), 0.5),
                                                      Det((45, 45, 10, 10), 0.9)])
        assert w[0] == pytest.approx(math.exp(-0.9))

    def test_combined_weight_is_product(self):
        points, vectors = flows_at([10, 30, 50, 70], [11, 21, 16, 16])
        w = (magnitude_weights(points, vectors, (240, 180), FRAME)
             * object_weights(points, [Det((240, 170, 30, 20), 0.5)]))
        # first point (250, 180) is inside the box: w = 0.75 * e^-0.5
        assert w[0] == pytest.approx(0.75 * math.exp(-0.5))
        assert w[2] == pytest.approx(1.0)


class TestEstimate:
    def test_exact_on_clean_scene(self):
        scene = gen_expansion_scene((200.0, 150.0), n=60, seed=1)
        est = estimate_foe(scene.points, scene.vectors, unit_weights(scene))
        assert np.linalg.norm(est.point - scene.foe) <= 1e-3
        assert est.active_count == 60

    def test_huge_delta_matches_least_squares(self):
        scene = gen_expansion_scene((310.0, 120.0), n=40, noise=1.0, seed=2)
        est = estimate_foe(scene.points, scene.vectors, unit_weights(scene),
                           FoeConfig(delta=1e9))
        normals, offsets = normals_offsets(scene.points, scene.vectors)
        lsq, *_ = np.linalg.lstsq(normals, offsets, rcond=None)
        assert np.linalg.norm(est.point - lsq) <= 1e-6

    def test_downweighted_outliers_stay_harmless(self):
        scene = gen_expansion_scene((240.0, 180.0), n=100, outlier_frac=0.2, seed=3)
        weights = np.where(scene.inlier_mask, 1.0, 0.10)
        est = estimate_foe(scene.points, scene.vectors, weights)
        assert np.linalg.norm(est.point - scene.foe) <= 2.0

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_objective_beats_local_lattice(self, seed):
        scene = gen_expansion_scene((250.0, 190.0), n=80, noise=1.0,
                                    outlier_frac=0.3, seed=seed)
        cfg = FoeConfig()
        wts = unit_weights(scene)
        est = estimate_foe(scene.points, scene.vectors, wts, cfg)
        normals, offsets = normals_offsets(scene.points, scene.vectors)

        def objective(x):
            r = np.abs(normals @ x - offsets) / wts
            return np.where(r <= cfg.delta, 0.5 * r * r,
                            cfg.delta * (r - 0.5 * cfg.delta)).sum()

        xs = np.arange(220.0, 281.0)
        ys = np.arange(160.0, 221.0)
        best = min(objective(np.array([x, y])) for x in xs for y in ys)
        assert objective(est.point) <= best + 1e-6

    def test_objective_history_non_increasing(self):
        # the package never evaluates the objective; the reference's IRLS,
        # which the package matches solve for solve, records it
        scene = gen_expansion_scene((150.0, 260.0), n=90, noise=1.0,
                                    outlier_frac=0.3, seed=4)
        est = ref.estimate_foe([ref.FlowObservation(p, v)
                                for p, v in zip(scene.points, scene.vectors)])
        assert len(est.objective_history) >= 2
        diffs = np.diff(est.objective_history)
        assert (diffs <= 1e-6).all()

    def test_quorum_enforced(self):
        scene = gen_expansion_scene((200.0, 150.0), n=7, seed=5)
        with pytest.raises(InsufficientFlowError):
            estimate_foe(scene.points, scene.vectors, unit_weights(scene))

    def test_parallel_lines_degenerate(self):
        rng = np.random.default_rng(6)
        points = rng.uniform(0, 300, size=(20, 2))
        vectors = np.tile([5.0, 0.0], (20, 1))
        with pytest.raises(DegenerateGeometryError):
            estimate_foe(points, vectors, np.ones(20))

    @staticmethod
    def two_rows(eps):
        """16 flows in rows y = 0 and y = 100, at +eps and -eps radians to +x.

        Their normal system has a condition number of about 1 / eps**2.
        """
        xs = np.arange(8) * 10.0
        points = np.vstack((np.column_stack((xs, np.zeros(8))),
                            np.column_stack((xs, np.full(8, 100.0)))))
        angles = np.repeat([eps, -eps], 8)
        return points, 5.0 * np.column_stack((np.cos(angles), np.sin(angles)))

    def test_condition_inside_limit_solves(self):
        # eps 1e-5: condition ~1e10, inside the 1e12 limit; the rows meet
        # 50 / tan(eps) px to the right of their mean x
        points, vectors = self.two_rows(1e-5)
        est = estimate_foe(points, vectors, np.ones(16))
        assert est.point == pytest.approx((35.0 + 50.0 / math.tan(1e-5), 50.0), rel=1e-9)
        assert assert_same_as_reference(points, vectors, weights=np.ones(16)
                                        ).stop_reason == "quorum"

    def test_condition_past_limit_degenerate(self):
        # eps 1e-7: condition ~1e14, past the limit
        points, vectors = self.two_rows(1e-7)
        with pytest.raises(DegenerateGeometryError):
            estimate_foe(points, vectors, np.ones(16))
        assert assert_same_as_reference(points, vectors, weights=np.ones(16)
                                        ) is DegenerateGeometryError

    @settings(max_examples=25, deadline=None)
    @given(dx=st.floats(-400, 400), dy=st.floats(-400, 400))
    def test_translation_equivariance(self, dx, dy):
        scene = gen_expansion_scene((220.0, 170.0), n=50, noise=0.5, seed=7)
        base = estimate_foe(scene.points, scene.vectors, unit_weights(scene))
        shift = np.array([dx, dy])
        est = estimate_foe(scene.points + shift, scene.vectors, unit_weights(scene))
        assert np.linalg.norm(est.point - (base.point + shift)) <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(0.1, 10.0))
    def test_flow_scale_invariance(self, scale):
        scene = gen_expansion_scene((220.0, 170.0), n=50, noise=0.5, seed=8)
        base = estimate_foe(scene.points, scene.vectors, unit_weights(scene))
        est = estimate_foe(scene.points, scene.vectors * scale, unit_weights(scene))
        assert np.linalg.norm(est.point - base.point) <= 1e-9 * max(1.0, float(np.abs(base.point).max()))


class TestRefine:
    def test_clean_field_converges_immediately(self):
        scene = gen_expansion_scene((240.0, 120.0), n=60, seed=9)
        est = refine_foe(scene.points, scene.vectors, unit_weights(scene))
        assert est.stop_reason == "converged"
        assert est.iterations == 1
        assert est.active_count == 60
        assert np.linalg.norm(est.point - scene.foe) <= 1e-3

    def test_outliers_pruned_and_error_reduced(self):
        scene = gen_expansion_scene((250.0, 190.0), n=100, noise=1.0,
                                    outlier_frac=0.3, seed=10)
        est = refine_foe(scene.points, scene.vectors, unit_weights(scene))

        normals, offsets = normals_offsets(scene.points, scene.vectors)
        lsq, *_ = np.linalg.lstsq(normals, offsets, rcond=None)

        err_refined = np.linalg.norm(est.point - scene.foe)
        err_lsq = np.linalg.norm(lsq - scene.foe)
        assert err_refined < err_lsq
        assert err_refined <= 3.0
        # 70 inliers survive; a random-direction outlier clears a 30 degree
        # gate with probability 1/6, so only a handful should remain
        assert 70 <= est.active_count <= 82

    def test_quorum_stop_returns_last_feasible(self):
        points, vectors = quorum_flows()
        est = refine_foe(points, vectors, np.ones(10))
        # reversed flows span the same lines, so the estimate is still exact,
        # but pruning them would leave 7 < 8 flows
        assert est.stop_reason == "quorum"
        assert est.iterations == 1
        assert np.linalg.norm(est.point - QUORUM_FOE) <= 1e-6


def array_path(points, vectors, detections, prev_foe, frame, cfg=FoeConfig(), weights=None):
    """refine_foe on arrays, weighted as analyze weights them; or the error type."""
    try:
        if weights is None:
            weights = (magnitude_weights(points, vectors, prev_foe, frame)
                       * object_weights(points, detections))
        return refine_foe(points, vectors, weights, cfg)
    except CycleRiskError as exc:
        return type(exc)


def reference_path(observations, detections, prev_foe, frame, cfg=FoeConfig(), weights=None):
    """The same through the per-flow reference; or the error type."""
    try:
        if weights is None:
            ref.assign_magnitude_weights(observations, prev_foe, frame)
            ref.assign_object_weights(observations, detections)
        else:
            for obs, w in zip(observations, weights):
                obs.mag_weight = float(w)
        return ref.refine_foe(observations, cfg)
    except CycleRiskError as exc:
        return type(exc)


def assert_same_as_reference(points, vectors, detections=(), prev_foe=(240.0, 180.0),
                             frame=FRAME, cfg=FoeConfig(), weights=None):
    observations = [ref.FlowObservation(p, v) for p, v in zip(points, vectors)]
    want = reference_path(observations, detections, prev_foe, frame, cfg, weights)
    got = array_path(points, vectors, detections, prev_foe, frame, cfg, weights)
    if isinstance(want, type):
        assert got is want
        return want
    assert not isinstance(got, type), got
    assert got.point.tobytes() == want.point.tobytes()
    assert (got.iterations, got.active_count, got.stop_reason) == (
        want.iterations, want.active_count, want.stop_reason)
    return want


def random_boxes(rng, points, frame, count):
    """Overlapping detections, the first with a corner exactly on a flow point."""
    dets = []
    for k in range(count):
        if k == 0 and len(points):
            x, y = points[rng.integers(len(points))]
        else:
            x, y = rng.uniform(-20, frame[0]), rng.uniform(-20, frame[1])
        bw, bh = rng.uniform(0, frame[0] / 2), rng.uniform(0, frame[1] / 2)
        dets.append(Detection(frame=0, label="car", score=float(rng.uniform(0, 1)),
                              bbox=(float(x), float(y), float(bw), float(bh))))
    return dets


class TestMatchesReference:
    """The array path must reproduce the per-flow reference byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 150),
           noise=st.floats(0.0, 3.0), outliers=st.floats(0.0, 0.6),
           boxes=st.integers(0, 6))
    def test_scenes_with_noise_outliers_and_boxes(self, seed, n, noise, outliers, boxes):
        rng = np.random.default_rng(seed)
        foe = (float(rng.uniform(60, 420)), float(rng.uniform(40, 320)))
        scene = gen_expansion_scene(foe, n=n, noise=noise, outlier_frac=outliers,
                                    seed=seed, dims=FRAME)
        dets = random_boxes(rng, scene.points, FRAME, boxes)
        prev_foe = rng.uniform((0, 0), FRAME)
        assert_same_as_reference(scene.points, scene.vectors, dets, prev_foe)

    def test_box_edges_count_as_inside(self):
        scene = gen_expansion_scene((240.0, 180.0), n=40, noise=0.5, seed=3)
        p, q = scene.points[0], scene.points[1]
        dets = [Detection(0, "car", 0.9, (float(p[0]), float(p[1]), 30.0, 30.0)),
                Detection(0, "bus", 0.4, (float(q[0]) - 30.0, float(q[1]) - 30.0, 30.0, 30.0)),
                Detection(0, "person", 0.7, (float(p[0]) - 10.0, float(p[1]), 10.0, 0.0))]
        assert object_weights(scene.points[:1], dets)[0] == np.exp(-0.9)
        assert_same_as_reference(scene.points, scene.vectors, dets)

    def test_flows_on_ring_bounds(self):
        rng = np.random.default_rng(12)
        prev_foe = np.array([240.0, 180.0])
        radii = np.repeat([45.0, 90.0, 135.0, 180.0, 240.0, 300.0, 330.0], 6)
        theta = rng.uniform(0, 2 * np.pi, size=len(radii))
        theta[::3] = 0.0   # exactly on the bound along +x
        points = prev_foe + radii[:, None] * np.column_stack((np.cos(theta), np.sin(theta)))
        vectors = 0.1 * (points - (250.0, 170.0)) * rng.uniform(0.5, 2.0, size=(len(radii), 1))
        assert_same_as_reference(points, vectors, prev_foe=prev_foe)

    def test_untracked_and_zero_rows_of_a_flow_field(self, monkeypatch):
        scene = gen_expansion_scene((230.0, 170.0), n=60, noise=1.0,
                                    outlier_frac=0.2, seed=14)
        vectors = scene.vectors.copy()
        vectors[::7] = 0.0
        vectors[3] = (0.0, 2.5)
        vectors[5] = (-1.5, 0.0)
        tracked = np.ones(60, dtype=bool)
        tracked[::5] = False
        field = FlowField(points=scene.points, vectors=vectors, tracked=tracked)
        monkeypatch.setattr(pipeline, "detect_corners", lambda *a, **k: None)
        monkeypatch.setattr(pipeline, "lk_flow", lambda *a, **k: field)
        points, kept = pipeline._pair_flows(None, None, PipelineConfig())

        observations = ref.observations_from_flow(field)
        assert points.tobytes() == np.array([o.point for o in observations]).tobytes()
        assert kept.tobytes() == np.array([o.vector for o in observations]).tobytes()
        assert_same_as_reference(points, kept, random_boxes(np.random.default_rng(1),
                                                            points, FRAME, 3))

    def test_weights_forcing_quorum_and_errors(self):
        points, vectors = quorum_flows()
        assert assert_same_as_reference(points, vectors, weights=np.ones(10)
                                        ).stop_reason == "quorum"
        # zero weights drop flows below the quorum
        weights = np.ones(10)
        weights[:3] = 0.0
        assert assert_same_as_reference(points, vectors, weights=weights) is InsufficientFlowError
        # parallel lines
        rng = np.random.default_rng(6)
        parallel = np.tile([5.0, 0.0], (20, 1))
        assert assert_same_as_reference(rng.uniform(0, 300, size=(20, 2)), parallel,
                                        weights=rng.uniform(0.1, 1.0, 20)
                                        ) is DegenerateGeometryError
        # no flows at all, and zero-length flows reaching the weights
        empty = np.empty((0, 2))
        assert assert_same_as_reference(empty, empty) is InsufficientFlowError
        assert assert_same_as_reference(points, np.zeros((10, 2))) is InvalidInputError

    def test_estimate_matches_reference(self):
        for seed in range(5):
            scene = gen_expansion_scene((250.0, 190.0), n=80, noise=1.0,
                                        outlier_frac=0.3, seed=seed)
            weights = np.random.default_rng(seed).uniform(0.05, 1.0, 80)
            observations = [ref.FlowObservation(p, v, mag_weight=float(w))
                            for p, v, w in zip(scene.points, scene.vectors, weights)]
            want = ref.estimate_foe(observations)
            got = estimate_foe(scene.points, scene.vectors, weights)
            assert got.point.tobytes() == want.point.tobytes()
            assert (got.iterations, got.active_count, got.stop_reason) == (
                want.iterations, want.active_count, want.stop_reason)

    def test_first_bike_pairs_of_a_ride(self, e2e_workspace):
        ride = pipeline.load_ride(e2e_workspace["ride_bike"])
        cfg = PipelineConfig()
        by_index = dict(ride.frames)
        stride = cfg.vision.frame_stride
        for i in range(0, 4 * stride, stride):
            prev, nxt = (pipeline._load_clahe(by_index[j], j, cfg.vision)
                         for j in (i, i + stride))
            h, w = prev.data.shape
            points, vectors = pipeline._pair_flows(prev, nxt, cfg.vision)
            corners = pipeline.detect_corners(prev, cfg.vision)
            field = pipeline.lk_flow(prev, nxt, corners, cfg.vision)
            observations = ref.observations_from_flow(field)
            assert len(observations) == len(points) >= cfg.foe.min_flows
            assert points.tobytes() == np.array([o.point for o in observations]).tobytes()
            dets = ride.detections.get(i, [])
            for prev_foe in ((w / 2.0, h / 2.0), (w / 3.0, h / 1.5)):
                est = assert_same_as_reference(points, vectors, dets, prev_foe, (w, h))
                assert not isinstance(est, type)


class TestSmoother:
    def test_exponential_average_direct_value(self):
        sm = FoeSmoother(FoeConfig(smooth_window=5, smooth_decay=0.5))
        sm.push(0, (10.0, 20.0))
        sm.push(1, (12.0, 22.0))
        got = sm.push(2, (14.0, 24.0))
        w = np.exp([-1.0, -0.5, 0.0])
        expect_x = (10 * w[0] + 12 * w[1] + 14 * w[2]) / w.sum()
        assert got[0] == pytest.approx(expect_x, abs=1e-12)
        assert got[1] == pytest.approx(expect_x + 10.0, abs=1e-12)

    def test_constant_sequence_fixed_point(self):
        sm = FoeSmoother(FoeConfig(smooth_window=5, smooth_decay=0.5))
        for t in range(8):
            got = sm.push(t, (33.0, 44.0))
        assert np.allclose(got, (33.0, 44.0))

    def test_missing_frames_drop_out(self):
        sm = FoeSmoother(FoeConfig(smooth_window=3, smooth_decay=0.5))
        sm.push(0, (0.0, 0.0))
        got = sm.push(5, (50.0, 60.0))  # frame 0 fell out of the window
        assert np.allclose(got, (50.0, 60.0))

    def test_non_increasing_index_rejected(self):
        sm = FoeSmoother()
        sm.push(3, (1.0, 1.0))
        with pytest.raises(InvalidInputError):
            sm.push(3, (2.0, 2.0))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                    min_size=1, max_size=12))
    def test_smoothed_point_in_bounding_box(self, pts):
        sm = FoeSmoother(FoeConfig(smooth_window=5, smooth_decay=0.5))
        for t, p in enumerate(pts):
            got = sm.push(t, p)
        window_pts = np.array(pts[max(0, len(pts) - 6):])
        eps = 1e-9
        assert window_pts[:, 0].min() - eps <= got[0] <= window_pts[:, 0].max() + eps
        assert window_pts[:, 1].min() - eps <= got[1] <= window_pts[:, 1].max() + eps


class TestConfig:
    # the stage's settings are the config section, so the config's bounds
    # hold for library callers too: angle_thresh 90 and min_flows 2 included
    @pytest.mark.parametrize("kwargs", [
        {"delta": 0.0}, {"delta": -1.0}, {"tol": 0.0},
        {"angle_thresh": 0.0}, {"angle_thresh": 120.0},
        {"max_refine_iters": 0}, {"min_flows": 1},
        {"delta": float("nan")}, {"tol": float("nan")}, {"delta": float("inf")},
        {"angle_thresh": float("nan")},
        {"angle_thresh": 90.0}, {"min_flows": 2},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FoeConfig(**kwargs)

    def test_angle_thresh_reaches_pruning(self):
        scene = gen_expansion_scene((240.0, 180.0), n=100, noise=0.5,
                                    outlier_frac=0.2, seed=3)
        wts = unit_weights(scene)
        loose = refine_foe(scene.points, scene.vectors, wts)
        tight = refine_foe(scene.points, scene.vectors, wts,
                           cfg=FoeConfig(angle_thresh=5.0))
        assert tight.active_count < loose.active_count
