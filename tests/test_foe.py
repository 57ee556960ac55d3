import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclerisk.errors import (
    DegenerateGeometryError,
    InsufficientFlowError,
    InvalidInputError,
)
from cyclerisk.foe import (
    FlowObservation,
    FoeSmoother,
    HuberConfig,
    assign_magnitude_weights,
    assign_object_weights,
    estimate_foe,
    refine_foe,
)
from cyclerisk.synth import gen_expansion_scene


@dataclass
class Det:
    bbox: tuple
    score: float


def obs_at(radius, mag, prev_foe=(240.0, 180.0)):
    # point along +x from the reference focus, flow of the given magnitude
    p = np.array([prev_foe[0] + radius, prev_foe[1]])
    return FlowObservation(point=p, vector=np.array([mag, 0.0]))


FRAME = (480, 360)  # diagonal 600, so default ring bounds are 90/180/300 px


class TestMagnitudeWeights:
    def test_mid_band_deviation(self):
        obs = [obs_at(r, m) for r, m in zip([10, 30, 50, 70], [11, 21, 16, 16])]
        assign_magnitude_weights(obs, (240, 180), FRAME)
        # mean 16: inner bound 4, outer bound 16**(2/3) = 6.3496; dev 5 sits between
        assert [o.mag_weight for o in obs] == [0.75, 0.75, 1.0, 1.0]

    def test_strong_deviation(self):
        obs = [obs_at(r, m) for r, m in zip([10, 30, 50, 70], [9, 23, 16, 16])]
        assign_magnitude_weights(obs, (240, 180), FRAME)
        assert [o.mag_weight for o in obs] == [0.10, 0.10, 1.0, 1.0]

    def test_inner_bound_inclusive(self):
        obs = [obs_at(r, m) for r, m in zip([10, 30, 50, 70], [12, 20, 16, 16])]
        assign_magnitude_weights(obs, (240, 180), FRAME)
        assert [o.mag_weight for o in obs] == [1.0, 1.0, 1.0, 1.0]

    def test_ring_assignment_boundaries(self):
        obs = [obs_at(r, 5.0) for r in [10, 90, 90.5, 180.5, 299, 301]]
        assign_magnitude_weights(obs, (240, 180), FRAME)
        assert [o.ring for o in obs] == [0, 0, 1, 2, 2, 3]

    def test_rings_statistically_independent(self):
        near = [obs_at(r, m) for r, m in zip([10, 30, 50, 70], [11, 21, 16, 16])]
        far = [obs_at(r, 2.0) for r in [310, 330, 350]]
        obs = near + far
        assign_magnitude_weights(obs, (240, 180), FRAME)
        assert [o.mag_weight for o in near] == [0.75, 0.75, 1.0, 1.0]
        # far ring: mean 2, all deviations 0 -> full weight
        assert [o.mag_weight for o in far] == [1.0, 1.0, 1.0]

    def test_crossed_bounds_when_mean_below_one(self):
        # mean 0.5: outer bound 0.630 < inner bound 0.707, so the bands
        # overlap; a deviation of 0.7 satisfies both rules and the
        # strong-deviation rule must win
        obs = [obs_at(r, m) for r, m in zip([10, 30, 50], [1.2, 0.2, 0.1])]
        assign_magnitude_weights(obs, (240, 180), FRAME)
        assert [o.mag_weight for o in obs] == [0.10, 1.0, 1.0]

    def test_zero_flow_rejected(self):
        obs = [obs_at(10, 5.0), FlowObservation(np.array([1.0, 1.0]), np.zeros(2))]
        with pytest.raises(InvalidInputError):
            assign_magnitude_weights(obs, (240, 180), FRAME)

    def test_bad_radii_rejected(self):
        with pytest.raises(InvalidInputError):
            assign_magnitude_weights([obs_at(10, 5.0)], (240, 180), FRAME,
                                     radii=(0.3, 0.15, 0.5))


class TestObjectWeights:
    def test_covered_point_discounted(self):
        inside = FlowObservation(np.array([50.0, 50.0]), np.array([3.0, 0.0]))
        outside = FlowObservation(np.array([200.0, 200.0]), np.array([3.0, 0.0]))
        assign_object_weights([inside, outside], [Det((40, 40, 20, 20), 0.9)])
        assert inside.obj_weight == pytest.approx(math.exp(-0.9))
        assert outside.obj_weight == 1.0

    def test_overlapping_boxes_take_max_score(self):
        obs = FlowObservation(np.array([50.0, 50.0]), np.array([3.0, 0.0]))
        assign_object_weights([obs], [Det((40, 40, 20, 20), 0.5),
                                      Det((45, 45, 10, 10), 0.9)])
        assert obs.obj_weight == pytest.approx(math.exp(-0.9))

    def test_combined_weight_is_product(self):
        obs = [obs_at(r, m) for r, m in zip([10, 30, 50, 70], [11, 21, 16, 16])]
        assign_magnitude_weights(obs, (240, 180), FRAME)
        assign_object_weights(obs, [Det((240, 170, 30, 20), 0.5)])
        # first point (250, 180) is inside the box: w = 0.75 * e^-0.5
        assert obs[0].weight == pytest.approx(0.75 * math.exp(-0.5))
        assert obs[2].weight == pytest.approx(1.0)


class TestEstimate:
    def test_exact_on_clean_scene(self):
        scene = gen_expansion_scene((200.0, 150.0), n=60, seed=1)
        est = estimate_foe(scene.observations)
        assert np.linalg.norm(est.point - scene.foe) <= 1e-3
        assert est.active_count == 60

    def test_huge_delta_matches_least_squares(self):
        scene = gen_expansion_scene((310.0, 120.0), n=40, noise=1.0, seed=2)
        est = estimate_foe(scene.observations, HuberConfig(delta=1e9))
        dirs = np.array([o.direction for o in scene.observations])
        normals = np.column_stack((-dirs[:, 1], dirs[:, 0]))
        pts = np.array([o.point for o in scene.observations])
        offsets = np.einsum("ij,ij->i", normals, pts)
        lsq, *_ = np.linalg.lstsq(normals, offsets, rcond=None)
        assert np.linalg.norm(est.point - lsq) <= 1e-6

    def test_downweighted_outliers_stay_harmless(self):
        scene = gen_expansion_scene((240.0, 180.0), n=100, outlier_frac=0.2, seed=3)
        for obs, ok in zip(scene.observations, scene.inlier_mask):
            if not ok:
                obs.mag_weight = 0.10
        est = estimate_foe(scene.observations)
        assert np.linalg.norm(est.point - scene.foe) <= 2.0

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_objective_beats_local_lattice(self, seed):
        scene = gen_expansion_scene((250.0, 190.0), n=80, noise=1.0,
                                    outlier_frac=0.3, seed=seed)
        cfg = HuberConfig()
        est = estimate_foe(scene.observations, cfg)

        dirs = np.array([o.direction for o in scene.observations])
        normals = np.column_stack((-dirs[:, 1], dirs[:, 0]))
        pts = np.array([o.point for o in scene.observations])
        offsets = np.einsum("ij,ij->i", normals, pts)
        wts = np.array([o.weight for o in scene.observations])

        def objective(x):
            r = np.abs(normals @ x - offsets) / wts
            return np.where(r <= cfg.delta, 0.5 * r * r,
                            cfg.delta * (r - 0.5 * cfg.delta)).sum()

        xs = np.arange(220.0, 281.0)
        ys = np.arange(160.0, 221.0)
        best = min(objective(np.array([x, y])) for x in xs for y in ys)
        assert est.objective <= best + 1e-6

    def test_objective_history_non_increasing(self):
        scene = gen_expansion_scene((150.0, 260.0), n=90, noise=1.0,
                                    outlier_frac=0.3, seed=4)
        est = estimate_foe(scene.observations)
        assert len(est.objective_history) >= 2
        diffs = np.diff(est.objective_history)
        assert (diffs <= 1e-6).all()

    def test_quorum_enforced(self):
        scene = gen_expansion_scene((200.0, 150.0), n=7, seed=5)
        with pytest.raises(InsufficientFlowError):
            estimate_foe(scene.observations)

    def test_parallel_lines_degenerate(self):
        rng = np.random.default_rng(6)
        obs = [FlowObservation(rng.uniform(0, 300, 2), np.array([5.0, 0.0]))
               for _ in range(20)]
        with pytest.raises(DegenerateGeometryError):
            estimate_foe(obs)

    @settings(max_examples=25, deadline=None)
    @given(dx=st.floats(-400, 400), dy=st.floats(-400, 400))
    def test_translation_equivariance(self, dx, dy):
        scene = gen_expansion_scene((220.0, 170.0), n=50, noise=0.5, seed=7)
        base = estimate_foe(scene.observations)
        shift = np.array([dx, dy])
        moved = [FlowObservation(o.point + shift, o.vector)
                 for o in scene.observations]
        est = estimate_foe(moved)
        assert np.linalg.norm(est.point - (base.point + shift)) <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(0.1, 10.0))
    def test_flow_scale_invariance(self, scale):
        scene = gen_expansion_scene((220.0, 170.0), n=50, noise=0.5, seed=8)
        base = estimate_foe(scene.observations)
        scaled = [FlowObservation(o.point, o.vector * scale)
                  for o in scene.observations]
        est = estimate_foe(scaled)
        assert np.linalg.norm(est.point - base.point) <= 1e-9 * max(1.0, float(np.abs(base.point).max()))


class TestRefine:
    def test_clean_field_converges_immediately(self):
        scene = gen_expansion_scene((240.0, 120.0), n=60, seed=9)
        est = refine_foe(scene.observations)
        assert est.stop_reason == "converged"
        assert est.iterations == 1
        assert est.active_count == 60
        assert np.linalg.norm(est.point - scene.foe) <= 1e-3

    def test_outliers_pruned_and_error_reduced(self):
        scene = gen_expansion_scene((250.0, 190.0), n=100, noise=1.0,
                                    outlier_frac=0.3, seed=10)
        est = refine_foe(scene.observations)

        dirs = np.array([o.direction for o in scene.observations])
        normals = np.column_stack((-dirs[:, 1], dirs[:, 0]))
        pts = np.array([o.point for o in scene.observations])
        offsets = np.einsum("ij,ij->i", normals, pts)
        lsq, *_ = np.linalg.lstsq(normals, offsets, rcond=None)

        err_refined = np.linalg.norm(est.point - scene.foe)
        err_lsq = np.linalg.norm(lsq - scene.foe)
        assert err_refined < err_lsq
        assert err_refined <= 3.0
        # 70 inliers survive; a random-direction outlier clears a 30 degree
        # gate with probability 1/6, so only a handful should remain
        assert 70 <= est.active_count <= 82

    def test_quorum_stop_returns_last_feasible(self):
        foe = np.array([200.0, 150.0])
        rng = np.random.default_rng(11)
        obs = []
        for i in range(10):
            p = rng.uniform(50, 350, 2)
            radial = (p - foe) / np.linalg.norm(p - foe)
            direction = radial if i < 7 else -radial  # three flows reversed
            obs.append(FlowObservation(p, direction * 5.0))
        est = refine_foe(obs)
        # reversed flows span the same lines, so the estimate is still exact,
        # but pruning them would leave 7 < 8 flows
        assert est.stop_reason == "quorum"
        assert est.iterations == 1
        assert np.linalg.norm(est.point - foe) <= 1e-6


class TestSmoother:
    def test_exponential_average_direct_value(self):
        sm = FoeSmoother(window=5, decay=0.5)
        sm.push(0, (10.0, 20.0))
        sm.push(1, (12.0, 22.0))
        got = sm.push(2, (14.0, 24.0))
        w = np.exp([-1.0, -0.5, 0.0])
        expect_x = (10 * w[0] + 12 * w[1] + 14 * w[2]) / w.sum()
        assert got[0] == pytest.approx(expect_x, abs=1e-12)
        assert got[1] == pytest.approx(expect_x + 10.0, abs=1e-12)

    def test_zero_window_passthrough(self):
        sm = FoeSmoother(window=0, decay=0.5)
        sm.push(0, (5.0, 5.0))
        got = sm.push(1, (100.0, 40.0))
        assert np.allclose(got, (100.0, 40.0))

    def test_constant_sequence_fixed_point(self):
        sm = FoeSmoother(window=5, decay=0.5)
        for t in range(8):
            got = sm.push(t, (33.0, 44.0))
        assert np.allclose(got, (33.0, 44.0))

    def test_missing_frames_drop_out(self):
        sm = FoeSmoother(window=3, decay=0.5)
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
        sm = FoeSmoother(window=5, decay=0.5)
        for t, p in enumerate(pts):
            got = sm.push(t, p)
        window_pts = np.array(pts[max(0, len(pts) - 6):])
        eps = 1e-9
        assert window_pts[:, 0].min() - eps <= got[0] <= window_pts[:, 0].max() + eps
        assert window_pts[:, 1].min() - eps <= got[1] <= window_pts[:, 1].max() + eps


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"delta": 0.0}, {"delta": -1.0}, {"tol": 0.0},
        {"angle_thresh": 0.0}, {"angle_thresh": 120.0},
        {"max_refine_iters": 0}, {"min_flows": 1},
        {"delta": float("nan")}, {"tol": float("nan")}, {"delta": float("inf")},
        {"angle_thresh": float("nan")}, {"irls_tol": float("nan")},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(InvalidInputError):
            HuberConfig(**kwargs)
