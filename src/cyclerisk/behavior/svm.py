"""Soft-margin SVM, one binary machine per class (one-versus-all).

The dual problem is solved by a sequential two-variable method with
maximal-violating-pair working-set selection. All tie-breaks fall to the
lowest index, so training is a pure function of (data order, parameters).
Features are standardized internally with train-set statistics, which are
stored on the model and re-applied at prediction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateTrainingError, InvalidInputError

_SUPPORT_EPS = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its one optional shape parameter."""

    name: str
    bandwidth: float | None = None  # gaussian only; None = median heuristic

    def __post_init__(self) -> None:
        if self.name not in ("linear", "poly2", "poly3", "gaussian"):
            raise InvalidInputError(f"unknown kernel {self.name!r}")
        if self.bandwidth is not None and not 0.0 < self.bandwidth < np.inf:
            raise InvalidInputError("kernel bandwidth must be finite and positive")


def kernel_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if spec.name == "linear":
        return A @ B.T
    if spec.name == "poly2":
        return (A @ B.T + 1.0) ** 2
    if spec.name == "poly3":
        return (A @ B.T + 1.0) ** 3
    sq = (np.sum(A ** 2, axis=1)[:, None] + np.sum(B ** 2, axis=1)[None, :]
          - 2.0 * (A @ B.T))
    np.maximum(sq, 0.0, out=sq)
    bw = spec.bandwidth
    return np.exp(-sq / (2.0 * bw * bw))


def median_pairwise_distance(X: np.ndarray) -> float:
    """Median Euclidean distance over all point pairs; 1.0 if degenerate."""
    n = X.shape[0]
    if n < 2:
        return 1.0
    sq = (np.sum(X ** 2, axis=1)[:, None] + np.sum(X ** 2, axis=1)[None, :]
          - 2.0 * (X @ X.T))
    np.maximum(sq, 0.0, out=sq)
    d = np.sqrt(sq[np.triu_indices(n, k=1)])
    med = float(np.median(d))
    return med if med > 0.0 else 1.0


def _smo(K: np.ndarray, y: np.ndarray, C: float, tol: float = 1e-6,
         max_iter: int | None = None) -> tuple[np.ndarray, float, int]:
    """Minimize 0.5 a'Qa - sum(a) s.t. 0 <= a <= C, y'a = 0, Q = yy' * K.

    Returns (alpha, bias, iterations). Pair selection is the most-violating
    pair under the KKT conditions; ties resolve to the first index.
    """
    n = y.size
    if max_iter is None:
        max_iter = max(20000, 200 * n)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # Q @ alpha - 1 at alpha = 0
    Qy = K * (y[:, None] * y[None, :])

    pos = y > 0
    it = 0
    for it in range(1, max_iter + 1):
        vals = -y * grad
        up = (pos & (alpha < C - _SUPPORT_EPS)) | (~pos & (alpha > _SUPPORT_EPS))
        low = (~pos & (alpha < C - _SUPPORT_EPS)) | (pos & (alpha > _SUPPORT_EPS))
        if not up.any() or not low.any():
            break
        i = int(np.where(up, vals, -np.inf).argmax())
        j = int(np.where(low, vals, np.inf).argmin())
        gap = vals[i] - vals[j]
        if gap < tol:
            break

        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        step = gap / max(quad, 1e-12)
        # stay inside the box along the feasible direction
        limit_i = C - alpha[i] if y[i] > 0 else alpha[i]
        limit_j = alpha[j] if y[j] > 0 else C - alpha[j]
        step = min(step, limit_i, limit_j)
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        grad += step * (y[i] * Qy[i] - y[j] * Qy[j])

    vals = -y * grad
    up = (pos & (alpha < C - _SUPPORT_EPS)) | (~pos & (alpha > _SUPPORT_EPS))
    low = (~pos & (alpha < C - _SUPPORT_EPS)) | (pos & (alpha > _SUPPORT_EPS))
    hi = float(np.where(up, vals, -np.inf).max()) if up.any() else 0.0
    lo = float(np.where(low, vals, np.inf).min()) if low.any() else 0.0
    bias = 0.5 * (hi + lo)
    return alpha, bias, it


@dataclass
class BinarySvm:
    """One trained class-vs-rest machine in standardized feature space."""

    sv_x: np.ndarray          # support vectors, standardized
    sv_coef: np.ndarray       # alpha_i * y_i per support vector
    bias: float
    weights: np.ndarray | None = None  # linear kernel: explicit w

    def decision(self, Xs: np.ndarray, spec: KernelSpec) -> np.ndarray:
        if self.weights is not None:
            return Xs @ self.weights + self.bias
        return kernel_matrix(spec, Xs, self.sv_x) @ self.sv_coef + self.bias


@dataclass
class SvmModel:
    classes: tuple[str, ...]
    kernel: KernelSpec
    C: float
    mu: np.ndarray
    scale: np.ndarray
    binaries: tuple[BinarySvm, ...]
    priors: dict[str, float]
    feature_mask: np.ndarray = field(default=None)  # over the raw schema
    smoother_bandwidth: float | None = None  # median pairwise distance, standardized

    def __post_init__(self) -> None:
        if self.feature_mask is None:
            self.feature_mask = np.ones(self.mu.size, dtype=bool)
        self.feature_mask = np.asarray(self.feature_mask, dtype=bool)

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        if X.shape[1] != self.mu.size:
            raise InvalidInputError(
                f"expected {self.mu.size} features after masking, got {X.shape[1]}")
        return (X - self.mu) / self.scale

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        """(m, n_classes) raw decision values, class order = self.classes."""
        Xs = self._standardize(self._apply_mask(X))
        return np.column_stack([b.decision(Xs, self.kernel) for b in self.binaries])

    def _apply_mask(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise InvalidInputError("feature matrix must be 2-D")
        if X.shape[1] != self.feature_mask.size:
            raise InvalidInputError(
                f"feature matrix has {X.shape[1]} columns; schema expects "
                f"{self.feature_mask.size}")
        return X[:, self.feature_mask]

    def predict(self, X: np.ndarray) -> list[str]:
        dv = self.decision_values(X)
        return [self.classes[i] for i in dv.argmax(axis=1)]


def train_svm(X: np.ndarray, y: list, C: float = 1.0,
              kernel: KernelSpec = KernelSpec("linear"),
              feature_mask: np.ndarray | None = None) -> SvmModel:
    """Fit one-versus-all machines over sorted class labels."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InvalidInputError("X must be a nonempty 2-D matrix")
    if not np.isfinite(X).all():
        raise InvalidInputError("X contains non-finite values")
    labels = [str(v) for v in y]
    if len(labels) != X.shape[0]:
        raise InvalidInputError("X and y lengths differ")
    if C <= 0:
        raise InvalidInputError("C must be positive")
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise DegenerateTrainingError("training needs at least two classes")

    if feature_mask is not None:
        feature_mask = np.asarray(feature_mask, dtype=bool)
        if feature_mask.shape != (X.shape[1],) or not feature_mask.any():
            raise InvalidInputError("feature mask must be nonempty over the schema")
        Xm = X[:, feature_mask]
    else:
        feature_mask = np.ones(X.shape[1], dtype=bool)
        Xm = X

    mu = Xm.mean(axis=0)
    sd = Xm.std(axis=0)
    scale = np.where(sd > 1e-12, sd, 1.0)
    Xs = (Xm - mu) / scale

    if kernel.name == "gaussian" and kernel.bandwidth is None:
        kernel = KernelSpec("gaussian", bandwidth=median_pairwise_distance(Xs))

    K = kernel_matrix(kernel, Xs, Xs)
    counts = {c: labels.count(c) for c in classes}
    total = len(labels)

    binaries = []
    yarr = np.array(labels)
    for c in classes:
        ypm = np.where(yarr == c, 1.0, -1.0)
        alpha, bias, _ = _smo(K, ypm, C)
        sv = alpha > _SUPPORT_EPS
        coef = (alpha * ypm)[sv]
        w = Xs[sv].T @ coef if kernel.name == "linear" else None
        binaries.append(BinarySvm(sv_x=Xs[sv].copy(), sv_coef=coef,
                                  bias=bias, weights=w))

    return SvmModel(classes=classes, kernel=kernel, C=C, mu=mu, scale=scale,
                    binaries=tuple(binaries),
                    priors={c: counts[c] / total for c in classes},
                    feature_mask=feature_mask,
                    smoother_bandwidth=median_pairwise_distance(Xs))


def loss(model: SvmModel, X: np.ndarray, y: list) -> float:
    """Weighted 0-1 loss; weights give each class its training prior."""
    labels = [str(v) for v in y]
    if len(labels) == 0:
        raise InvalidInputError("empty test set")
    unknown = set(labels) - set(model.classes)
    if unknown:
        raise InvalidInputError(f"labels {sorted(unknown)} unseen at training time")
    pred = model.predict(X)
    counts = {c: labels.count(c) for c in set(labels)}
    total = 0.0
    for truth, guess in zip(labels, pred):
        if truth != guess:
            total += model.priors[truth] / counts[truth]
    return total
