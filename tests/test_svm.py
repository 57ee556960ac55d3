import itertools

import numpy as np
import pytest

from cyclerisk.behavior import KernelSpec, loss, train_svm
from cyclerisk.behavior.rfe import rfe_rank
from cyclerisk.behavior.svm import (
    SMO_TOL,
    _smo,
    kernel_matrix,
    median_pairwise_distance,
)
from cyclerisk.errors import (DegenerateTrainingError, InvalidInputError,
                              SolverNotConvergedError)

from behavior_reference import reference_smo


def qp_oracle(K, y, C):
    """Global dual minimum by enumerating every active-set face.

    Each variable is pinned at 0, at C, or left free; the free block is
    solved through its KKT system with the equality multiplier. The best
    feasible value over all 3^n faces is the exact optimum.
    """
    n = y.size
    Q = K * np.outer(y, y)
    best = np.inf
    for states in itertools.product((0, 1, 2), repeat=n):
        st = np.array(states)
        a = np.where(st == 1, float(C), 0.0)
        F = np.nonzero(st == 2)[0]
        B = np.nonzero(st != 2)[0]
        if F.size:
            nb = F.size
            M = np.zeros((nb + 1, nb + 1))
            M[:nb, :nb] = Q[np.ix_(F, F)]
            M[:nb, nb] = y[F]
            M[nb, :nb] = y[F]
            rhs = np.empty(nb + 1)
            rhs[:nb] = 1.0 - (Q[np.ix_(F, B)] @ a[B] if B.size else 0.0)
            rhs[nb] = -(y[B] @ a[B]) if B.size else 0.0
            sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
            aF = sol[:nb]
            if (aF < -1e-8).any() or (aF > C + 1e-8).any():
                continue
            a[F] = np.clip(aF, 0.0, C)
        if abs(y @ a) > 1e-6:
            continue
        best = min(best, float(0.5 * a @ Q @ a - a.sum()))
    return best


def kkt_gap(K, y, alpha, C):
    """Maximal KKT violation from a fresh gradient, not a solver's running one."""
    vals = y - K @ (alpha * y)
    pos = y > 0
    up = (pos & (alpha < C - 1e-10)) | (~pos & (alpha > 1e-10))
    low = (~pos & (alpha < C - 1e-10)) | (pos & (alpha > 1e-10))
    return vals[up].max() - vals[low].min()


def dual_value(K, y, alpha):
    Q = K * np.outer(y, y)
    return float(0.5 * alpha @ Q @ alpha - alpha.sum())


class TestSmoAgainstOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_small_problems(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 7))
        X = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.abs(y.sum()) == n:  # keep both classes present
            y[0] = -y[0]
        C = float(rng.choice([0.5, 1.0, 10.0]))
        spec = KernelSpec(str(rng.choice(["linear", "poly2", "gaussian"])),
                          bandwidth=1.0)
        if spec.name != "gaussian":
            spec = KernelSpec(spec.name)
        K = kernel_matrix(spec, X, X)
        alpha, *_ = _smo(K, y, C)
        assert dual_value(K, y, alpha) == pytest.approx(qp_oracle(K, y, C), abs=1e-4)

    def test_six_point_problem(self):
        X = np.array([[0.0, 0.0], [1.0, 0.2], [0.2, 1.0],
                      [3.0, 3.1], [4.0, 2.9], [3.1, 4.0]])
        y = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        K = kernel_matrix(KernelSpec("linear"), X, X)
        alpha, *_ = _smo(K, y, 1.0)
        assert dual_value(K, y, alpha) == pytest.approx(qp_oracle(K, y, 1.0), abs=1e-4)

    def test_box_and_equality_respected(self):
        rng = np.random.default_rng(40)
        X = rng.normal(size=(20, 3))
        y = np.where(X[:, 0] + 0.2 * rng.normal(size=20) > 0, 1.0, -1.0)
        if len(set(y.tolist())) < 2:
            y[0] = -y[0]
        K = kernel_matrix(KernelSpec("linear"), X, X)
        alpha, *_ = _smo(K, y, 2.0)
        assert (alpha >= -1e-12).all() and (alpha <= 2.0 + 1e-12).all()
        assert abs(alpha @ y) < 1e-9


class TestSmoMatchesReferenceLoop:
    """The incremental working sets retrace the full-recompute loop exactly."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_problems_bit_identical(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(5, 201))
        X = rng.normal(size=(n, int(rng.integers(1, 6))))
        if seed % 5 == 0:
            X[n // 2:] = X[:n - n // 2]          # duplicate points: zero quad
        y = np.where(X[:, 0] + rng.normal(0, 0.7, n) > 0, 1.0, -1.0)
        y[:2] = (1.0, -1.0)                       # both classes present
        C = float(rng.choice([0.1, 1.0, 10.0]))
        name = str(rng.choice(["linear", "poly2", "gaussian"]))
        K = kernel_matrix(KernelSpec(name, 1.5 if name == "gaussian" else None),
                          X, X)
        alpha, bias, iters, gap = _smo(K, y, C)
        ref_alpha, ref_bias, ref_iters = reference_smo(K, y, C)
        assert alpha.tobytes() == ref_alpha.tobytes()
        assert np.float64(bias).tobytes() == np.float64(ref_bias).tobytes()
        assert iters == ref_iters
        # only a solve that ran to the cap reports a gap at or above tol
        assert (gap >= SMO_TOL) == (iters == max(20000, 200 * n))

    def test_iteration_cap_matches(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 2))
        y = np.where(rng.random(60) < 0.5, 1.0, -1.0)
        K = kernel_matrix(KernelSpec("gaussian", 0.5), X, X)
        alpha, bias, iters, gap = _smo(K, y, 10.0, max_iter=7)
        want = reference_smo(K, y, 10.0, max_iter=7)
        assert alpha.tobytes() == want[0].tobytes()
        assert (bias, iters) == (want[1], want[2]) and iters == 7
        # stopped by the cap, not the gap, and it says so
        assert gap >= SMO_TOL
        assert gap == pytest.approx(kkt_gap(K, y, want[0], 10.0), rel=1e-9)


class TestUnconverged:
    """A solve that stops at its cap unconverged is an error, not a model."""

    @staticmethod
    def capped_case():
        # seed 14 of a seeded sweep over random labels (n in 20..120, d in
        # 2..11, C in {1, 10, 20}, four kernels); 23 of 120 hit the cap
        rng = np.random.default_rng(14)
        n, d = int(rng.integers(20, 121)), int(rng.integers(2, 12))
        X = rng.normal(size=(n, d))
        y = [str(v) for v in rng.integers(0, 2, n)]
        C = float(rng.choice([1.0, 10.0, 20.0]))
        kernel = str(rng.choice(["linear", "poly2", "poly3", "gaussian"]))
        assert (n, d, C, kernel) == (35, 10, 20.0, "linear")
        return X, y, C

    def test_reference_loop_hits_the_cap_too(self):
        X, y, C = self.capped_case()
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        ypm = np.where(np.array(y) == "0", 1.0, -1.0)
        K = Xs @ Xs.T
        alpha, _, iters, gap = _smo(K, ypm, C)
        ref_alpha, _, ref_iters = reference_smo(K, ypm, C)
        assert iters == ref_iters == 20000
        assert alpha.tobytes() == ref_alpha.tobytes()
        assert gap == pytest.approx(kkt_gap(K, ypm, ref_alpha, C), rel=1e-9)
        assert gap > 1e-3

    def test_train_svm_raises_naming_the_solve(self):
        X, y, C = self.capped_case()
        with pytest.raises(SolverNotConvergedError,
                           match=r"class '0' \(C=20, kernel linear\).*20000 "
                                 r"iterations with KKT gap 0\.0018"):
            train_svm(X, y, C=C)
        train_svm(X, y, C=1.0)   # the same data converges at C = 1

    def test_rfe_rank_raises_naming_the_round(self):
        X, y, C = self.capped_case()
        with pytest.raises(SolverNotConvergedError,
                           match=r"RFE round 1 \(10 features, C=20\).*KKT gap 0\.0018"):
            rfe_rank(X, y, C=C)
        with pytest.raises(SolverNotConvergedError, match=r"RFE round 3 .*C=10\)"):
            rfe_rank(X, y, C=10.0)


class TestSmoWarmStart:
    """A feasible warm start reaches the optimum the cold reference finds."""

    @staticmethod
    def feasible_alpha(rng, y, C):
        a = rng.uniform(0.0, C, y.size) * (rng.random(y.size) < 0.6)
        pos_sum, neg_sum = a[y > 0].sum(), a[y < 0].sum()
        if pos_sum > neg_sum:
            a[y > 0] *= neg_sum / pos_sum
        elif neg_sum > 0.0:
            a[y < 0] *= pos_sum / neg_sum
        return a

    @pytest.mark.parametrize("seed", range(30))
    def test_random_starts_reach_reference_optimum(self, seed):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(5, 121))
        X = rng.normal(size=(n, int(rng.integers(1, 6))))
        if seed % 5 == 0:
            X[n // 2:] = X[:n - n // 2]          # duplicate points: zero quad
        y = np.where(X[:, 0] + rng.normal(0, 0.7, n) > 0, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        C = float(rng.choice([0.1, 1.0]))
        name = str(rng.choice(["linear", "poly2", "gaussian"]))
        K = kernel_matrix(KernelSpec(name, 1.5 if name == "gaussian" else None),
                          X, X)
        start = self.feasible_alpha(rng, y, C)
        tol, cap = 1e-6, max(20000, 200 * n)

        alpha, _, iters, _ = _smo(K, y, C, tol=tol, alpha=start)
        ref_alpha, _, ref_iters = reference_smo(K, y, C, tol=tol)
        assert iters < cap and ref_iters < cap    # both converged
        assert (alpha >= 0.0).all() and (alpha <= C).all()
        assert abs(alpha @ y) < 1e-9
        # KKT gap from a fresh gradient, not the solver's running one
        vals = y - K @ (alpha * y)
        pos = y > 0
        up = (pos & (alpha < C - 1e-10)) | (~pos & (alpha > 1e-10))
        low = (~pos & (alpha < C - 1e-10)) | (pos & (alpha > 1e-10))
        assert vals[up].max() - vals[low].min() < tol
        want = dual_value(K, y, ref_alpha)
        assert dual_value(K, y, alpha) == pytest.approx(want, rel=1e-9)

    def test_start_is_not_modified(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 3))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        K = kernel_matrix(KernelSpec("linear"), X, X)
        start = self.feasible_alpha(rng, y, 1.0)
        kept = start.copy()
        _smo(K, y, 1.0, alpha=start)
        assert start.tobytes() == kept.tobytes()

    def test_zero_start_is_the_cold_solve(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 2))
        y = np.where(X[:, 1] > 0, 1.0, -1.0)
        K = kernel_matrix(KernelSpec("poly2"), X, X)
        cold = _smo(K, y, 1.0)
        warm = _smo(K, y, 1.0, alpha=np.zeros(40))
        assert cold[0].tobytes() == warm[0].tobytes()
        assert (cold[1], cold[2]) == (warm[1], warm[2])

    def test_optimal_start_stops_at_once(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(50, 3))
        y = np.where(X[:, 0] + 0.5 * rng.normal(size=50) > 0, 1.0, -1.0)
        K = kernel_matrix(KernelSpec("linear"), X, X)
        alpha, *_ = _smo(K, y, 1.0, tol=1e-9)
        again, _, iters, _ = _smo(K, y, 1.0, alpha=alpha)
        assert iters == 1
        assert again.tobytes() == alpha.tobytes()


class TestKernels:
    def test_linear_matches_dot(self):
        rng = np.random.default_rng(2)
        A, B = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        assert np.allclose(kernel_matrix(KernelSpec("linear"), A, B), A @ B.T)

    def test_poly_inhomogeneous(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[0.5, -1.0]])
        got2 = kernel_matrix(KernelSpec("poly2"), a, b)[0, 0]
        got3 = kernel_matrix(KernelSpec("poly3"), a, b)[0, 0]
        assert got2 == pytest.approx((1 * 0.5 + 2 * -1 + 1) ** 2)
        assert got3 == pytest.approx((1 * 0.5 + 2 * -1 + 1) ** 3)

    def test_gaussian_unit_diagonal(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 4))
        K = kernel_matrix(KernelSpec("gaussian", bandwidth=2.0), A, A)
        assert np.allclose(np.diag(K), 1.0)
        assert K.max() <= 1.0 + 1e-12

    def test_gaussian_closed_form(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        got = kernel_matrix(KernelSpec("gaussian", bandwidth=5.0), a, b)[0, 0]
        assert got == pytest.approx(np.exp(-25.0 / 50.0))

    def test_median_distance(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert median_pairwise_distance(X) == pytest.approx(5.0)
        assert median_pairwise_distance(np.zeros((4, 2))) == 1.0

    def test_unknown_kernel_rejected(self):
        with pytest.raises(InvalidInputError):
            KernelSpec("sigmoid")

    @pytest.mark.parametrize("bw", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_bandwidth_rejected(self, bw):
        with pytest.raises(InvalidInputError):
            KernelSpec("gaussian", bandwidth=bw)


def blob_data(rng, centers, n_per, spread=0.3):
    X, y = [], []
    for label, c in centers.items():
        X.append(rng.normal(0.0, spread, size=(n_per, len(c))) + np.asarray(c))
        y.extend([label] * n_per)
    return np.vstack(X), y


class TestTraining:
    def test_separable_blobs_zero_loss(self):
        rng = np.random.default_rng(10)
        X, y = blob_data(rng, {"a": (0, 0), "b": (6, 6)}, 20)
        model = train_svm(X, y, C=1.0, kernel=KernelSpec("linear"))
        assert loss(model, X, y) == 0.0

    def test_xor_needs_nonlinear_kernel(self):
        X = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        y = ["p", "p", "q", "q"]
        lin = train_svm(X, y, C=10.0, kernel=KernelSpec("linear"))
        assert loss(lin, X, y) > 0.0
        quad = train_svm(X, y, C=10.0, kernel=KernelSpec("poly2"))
        assert loss(quad, X, y) == 0.0

    def test_three_class_ova(self):
        rng = np.random.default_rng(20)
        X, y = blob_data(rng, {"bike": (0, 0), "motor": (7, 0), "walk": (0, 7)}, 15)
        model = train_svm(X, y, C=1.0, kernel=KernelSpec("linear"))
        assert model.classes == ("bike", "motor", "walk")
        assert loss(model, X, y) == 0.0
        dv = model.decision_values(X)
        assert dv.shape == (45, 3)

    def test_standardization_stored_not_recomputed(self):
        rng = np.random.default_rng(30)
        X, y = blob_data(rng, {"a": (0, 0), "b": (4, 4)}, 12)
        model = train_svm(X, y, C=1.0, kernel=KernelSpec("linear"))
        assert np.allclose(model.mu, X.mean(axis=0))
        Xs = (X - model.mu) / model.scale
        assert np.allclose(Xs.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Xs.std(axis=0), 1.0, atol=1e-9)
        # a shifted test batch must be judged by the stored parameters
        probe = X[:3] + 100.0
        dv = model.decision_values(probe)
        manual = np.column_stack([
            b.decision((probe - model.mu) / model.scale, model.kernel)
            for b in model.binaries])
        assert np.allclose(dv, manual)

    def test_relabeling_permutes_predictions(self):
        rng = np.random.default_rng(41)
        X, y = blob_data(rng, {"a": (0, 0), "b": (6, 0), "c": (0, 6)}, 12)
        swap = {"a": "c", "b": "b", "c": "a"}
        y2 = [swap[v] for v in y]
        m1 = train_svm(X, y, C=1.0, kernel=KernelSpec("linear"))
        m2 = train_svm(X, y2, C=1.0, kernel=KernelSpec("linear"))
        p1 = [swap[v] for v in m1.predict(X)]
        assert p1 == m2.predict(X)

    def test_gaussian_bandwidth_heuristic_recorded(self):
        rng = np.random.default_rng(17)
        X, y = blob_data(rng, {"a": (0, 0), "b": (5, 5)}, 10)
        model = train_svm(X, y, C=1.0, kernel=KernelSpec("gaussian"))
        assert model.kernel.bandwidth is not None
        assert model.kernel.bandwidth > 0

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(50)
        X, y = blob_data(rng, {"a": (0, 0), "b": (3, 1)}, 15, spread=0.8)
        m1 = train_svm(X, y, C=10.0, kernel=KernelSpec("gaussian"))
        m2 = train_svm(X, y, C=10.0, kernel=KernelSpec("gaussian"))
        assert np.array_equal(m1.decision_values(X), m2.decision_values(X))

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateTrainingError):
            train_svm(np.zeros((5, 2)), ["a"] * 5)

    def test_priors_recorded(self):
        rng = np.random.default_rng(60)
        X, y = blob_data(rng, {"a": (0, 0), "b": (5, 5)}, 10)
        X = np.vstack([X, rng.normal(size=(10, 2)) + 5.0])
        y = y + ["b"] * 10
        model = train_svm(X, y, C=1.0, kernel=KernelSpec("linear"))
        assert model.priors == {"a": 10 / 30, "b": 20 / 30}

    def test_feature_mask_restricts_input(self):
        rng = np.random.default_rng(70)
        X, y = blob_data(rng, {"a": (0, 0, 0), "b": (5, 0, 0)}, 10)
        mask = np.array([True, False, False])
        model = train_svm(X, y, C=1.0, kernel=KernelSpec("linear"), feature_mask=mask)
        scrambled = X.copy()
        scrambled[:, 1:] = rng.normal(size=(X.shape[0], 2))
        assert model.predict(scrambled) == model.predict(X)
        for width in (1, 2):   # only the full schema is accepted
            with pytest.raises(InvalidInputError):
                model.predict(X[:, :width])


class TestLoss:
    def _model(self):
        rng = np.random.default_rng(80)
        X, y = blob_data(rng, {"a": (0, 0), "b": (8, 8)}, 10)
        return train_svm(X, y, C=1.0, kernel=KernelSpec("linear")), X, y

    def test_perfect_is_zero_and_all_wrong_is_one(self):
        model, X, y = self._model()
        assert loss(model, X, y) == 0.0
        flipped = ["b" if v == "a" else "a" for v in y]
        assert loss(model, X, flipped) == pytest.approx(1.0)

    def test_half_of_one_class_wrong(self):
        model, X, y = self._model()
        # mislabel half of class a in the truth vector: those become errors
        y2 = list(y)
        for i in range(5):
            y2[i] = "b"
        # five of fifteen b-labeled rows are predicted a: weight 0.5/15 each
        assert loss(model, X, y2) == pytest.approx(5 * 0.5 / 15)

    def test_duplication_invariance(self):
        model, X, y = self._model()
        y2 = list(y)
        y2[0] = "b"
        base = loss(model, X, y2)
        doubled = loss(model, np.vstack([X, X]), y2 + y2)
        assert doubled == pytest.approx(base, abs=1e-12)

    def test_empty_and_unknown_rejected(self):
        model, X, y = self._model()
        with pytest.raises(InvalidInputError):
            loss(model, X[:0], [])
        with pytest.raises(InvalidInputError):
            loss(model, X[:2], ["a", "zz"])
