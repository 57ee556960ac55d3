"""Focus-of-expansion estimation from sparse optical flow.

Flows arrive as plain arrays, one row per flow: (n, 2) source points, (n, 2)
displacement vectors and (n,) weights. Each flow spans a line through its
source point; during forward motion those lines meet near one image point.
The estimate is the point minimizing a robust (Huber) sum of weighted
point-to-line distances. A flow's weight is the product of a
magnitude-consistency term (`magnitude_weights`: flows that disagree with
their annulus's mean speed are discounted) and an object term
(`object_weights`: flows sitting on detected moving objects are discounted);
rows with a zero weight or a zero vector take no part. An orientation
refinement pass then drops flows whose direction disagrees with the radial
expansion pattern around the estimate and re-solves.

The settings (Huber corner, refinement tolerance, pruning angle, round cap,
quorum, ring radii and the smoother's window and decay) are the fields of
`config.FoeConfig`, which checks their bounds; `magnitude_weights`,
`estimate_foe`, `refine_foe` and `FoeSmoother` take one, e.g.
`refine_foe(points, vectors, weights, cfg=FoeConfig(angle_thresh=20.0))`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import FoeConfig
from .errors import DegenerateGeometryError, InsufficientFlowError, InvalidInputError

# Flat zone weights for magnitude consistency: strong disagreement, mild
# disagreement, agreement.
_MAG_OUTLIER = 0.10
_MAG_MID = 0.75
_MAG_INLIER = 1.00

_COND_LIMIT = 1e12

# Reweighted solves per estimate, and the step (px) that ends them. The
# tolerance is deliberately much tighter than FoeConfig.tol: the inner
# solver must localize the optimum well below a pixel for the refinement
# geometry to be meaningful.
_IRLS_MAX_ITERS = 50
_IRLS_TOL = 1e-8


@dataclass
class FoeEstimate:
    """Result of one estimation or refinement run.

    iterations counts solver rounds (reweighted solves for estimate_foe,
    prune-and-solve rounds for refine_foe). objective_history records the
    robust objective after every reweighted solve of the last estimation.
    """

    point: np.ndarray
    iterations: int
    active_count: int
    objective: float
    stop_reason: str = "converged"
    objective_history: list[float] = field(default_factory=list)


def _magnitudes(vectors: np.ndarray) -> np.ndarray:
    return np.hypot(vectors[:, 0], vectors[:, 1])


def magnitude_weights(
    points: np.ndarray,
    vectors: np.ndarray,
    prev_foe: np.ndarray,
    frame_size: tuple[int, int],
    cfg: FoeConfig = FoeConfig(),
) -> np.ndarray:
    """Weight each flow by how well its speed matches its annulus.

    Concentric annuli around the previous focus estimate (cfg.ring_radii
    are fractions of the frame diagonal; a point on a bound belongs to the
    inner annulus, and the last annulus is unbounded) group flows whose
    apparent speed should be comparable. Within annulus mean magnitude
    vbar, a flow at absolute deviation dev gets 0.10 when dev >= vbar^(2/3),
    1.00 when dev <= vbar^(1/2), and 0.75 strictly between; the first rule
    wins when the bounds cross (vbar < 1).
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    vectors = np.asarray(vectors, dtype=np.float64).reshape(-1, 2)
    weights = np.ones(len(vectors))
    if not len(vectors):
        return weights
    w, h = frame_size
    if w <= 0 or h <= 0:
        raise InvalidInputError(f"bad frame size {frame_size}")

    prev_foe = np.asarray(prev_foe, dtype=np.float64).reshape(2)
    with np.errstate(over="ignore"):   # a radius past the float range has no bound
        bounds = np.asarray(cfg.ring_radii, dtype=np.float64) * math.hypot(w, h)

    mags = _magnitudes(vectors)
    if (mags == 0.0).any():
        raise InvalidInputError("zero-length flows must be dropped before weighting")
    dist = np.linalg.norm(points - prev_foe, axis=1)
    rings = np.searchsorted(bounds, dist, side="left")

    for ring in np.unique(rings):
        members = rings == ring
        vbar = float(mags[members].mean())
        hi = vbar ** (2.0 / 3.0)
        lo = vbar ** 0.5
        dev = np.abs(mags[members] - vbar)
        weights[members] = np.where(dev >= hi, _MAG_OUTLIER,
                                    np.where(dev <= lo, _MAG_INLIER, _MAG_MID))
    return weights


def object_weights(points: np.ndarray, detections) -> np.ndarray:
    """Discount flows that sit on detected objects: weight exp(-score).

    A flow covered by several boxes (edges included) takes the highest
    detection score; one covered by none keeps weight 1.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    x, y, bw, bh, score = np.array([(*det.bbox, det.score) for det in detections],
                                   dtype=np.float64).reshape(-1, 5).T
    px, py = points[:, :1], points[:, 1:]
    inside = (x <= px) & (px <= x + bw) & (y <= py) & (py <= y + bh)
    return np.exp(-np.where(inside, score, 0.0).max(axis=1, initial=0.0))


def _huber_value(t: np.ndarray, delta: float) -> np.ndarray:
    # the linear branch only where it applies: at a delta near the float
    # range it overflows for the residuals inside delta
    a = np.abs(t)
    out = 0.5 * t * t
    far = a > delta
    out[far] = delta * (a[far] - 0.5 * delta)
    return out


def _usable(points, vectors, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows with a positive weight and a nonzero vector."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    vectors = np.asarray(vectors, dtype=np.float64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    keep = (weights > 0.0) & (vectors != 0.0).any(axis=1)
    return points[keep], vectors[keep], weights[keep]


def estimate_foe(points: np.ndarray, vectors: np.ndarray, weights: np.ndarray,
                 cfg: FoeConfig = FoeConfig()) -> FoeEstimate:
    """Robustly intersect the flow lines.

    Solves argmin_x sum_i huber_delta(f(x, L_i) / w_i) where f is the
    point-to-line distance, by iteratively reweighted least squares on the
    2x2 normal system. Raises InsufficientFlowError below the quorum and
    DegenerateGeometryError when the lines do not pin down a point.
    """
    pts, vecs, wts = _usable(points, vectors, weights)
    n = len(wts)
    if n < cfg.min_flows:
        raise InsufficientFlowError(f"{n} usable flows, need {cfg.min_flows}")

    dirs = vecs / _magnitudes(vecs)[:, None]
    normals = np.column_stack((-dirs[:, 1], dirs[:, 0]))
    offsets = np.einsum("ij,ij->i", normals, pts)  # n_i . p_i

    def solve(coef: np.ndarray) -> np.ndarray:
        m00 = float((coef * normals[:, 0] * normals[:, 0]).sum())
        m01 = float((coef * normals[:, 0] * normals[:, 1]).sum())
        m11 = float((coef * normals[:, 1] * normals[:, 1]).sum())
        mat = np.array([[m00, m01], [m01, m11]])
        evals = np.linalg.eigvalsh(mat)
        if evals[0] <= 0.0 or evals[1] / evals[0] > _COND_LIMIT:
            raise DegenerateGeometryError(
                "flow lines are (near) parallel; intersection is unconstrained")
        rhs = (normals * (coef * offsets)[:, None]).sum(axis=0)
        return np.linalg.solve(mat, rhs)

    def objective(x: np.ndarray) -> float:
        res = np.abs(normals @ x - offsets) / wts
        return float(_huber_value(res, cfg.delta).sum())

    inv_w2 = 1.0 / (wts * wts)
    x = solve(inv_w2)
    history = [objective(x)]
    iterations = 1
    stop = "max_iters"
    for _ in range(_IRLS_MAX_ITERS - 1):
        scaled = np.abs(normals @ x - offsets) / wts
        hub = np.ones_like(scaled)
        far = scaled > cfg.delta
        hub[far] = cfg.delta / np.maximum(scaled[far], 1e-300)
        x_next = solve(hub * inv_w2)
        iterations += 1
        history.append(objective(x_next))
        step = float(np.linalg.norm(x_next - x))
        x = x_next
        if step < _IRLS_TOL:
            stop = "converged"
            break

    return FoeEstimate(point=x, iterations=iterations, active_count=n,
                       objective=history[-1], stop_reason=stop,
                       objective_history=history)


def refine_foe(points: np.ndarray, vectors: np.ndarray, weights: np.ndarray,
               cfg: FoeConfig = FoeConfig()) -> FoeEstimate:
    """Alternate estimation with radial-orientation pruning.

    After each solve, flows whose direction deviates from the outward radial
    direction at their point by more than angle_thresh degrees are removed
    and the remainder re-solved. Stops when nothing is pruned, when the
    estimate moves less than tol, when pruning would dip below the quorum
    (the last feasible estimate is returned, flagged "quorum"), or after
    max_refine_iters rounds.
    """
    points, vectors, weights = _usable(points, vectors, weights)
    est = estimate_foe(points, vectors, weights, cfg)
    dirs = vectors / _magnitudes(vectors)[:, None]
    active = np.arange(len(weights))
    solves = 1
    cos_limit = math.cos(math.radians(cfg.angle_thresh))

    stop = "max_iters"
    while solves < cfg.max_refine_iters + 1:
        radial = points[active] - est.point
        norms = np.linalg.norm(radial, axis=1)
        # A flow starting exactly at the estimate carries no direction
        # information; it is never pruned.
        cosang = np.where(norms > 0.0,
                          np.einsum("ij,ij->i", dirs[active], radial) / np.maximum(norms, 1e-300),
                          1.0)
        keep = cosang >= cos_limit
        if keep.all():
            stop = "converged"
            break
        if int(keep.sum()) < cfg.min_flows:
            stop = "quorum"
            break
        pruned = active[keep]
        new_est = estimate_foe(points[pruned], vectors[pruned], weights[pruned], cfg)
        solves += 1
        moved = float(np.linalg.norm(new_est.point - est.point))
        active, est = pruned, new_est
        if moved < cfg.tol:
            stop = "converged"
            break

    return FoeEstimate(point=est.point, iterations=solves,
                       active_count=len(active), objective=est.objective,
                       stop_reason=stop, objective_history=est.objective_history)


class FoeSmoother:
    """Exponentially decayed average of recent estimates.

    Keeps estimates from the last cfg.smooth_window frames; the smoothed
    point at frame t is sum_j x_j exp(-cfg.smooth_decay (t - j)) normalized
    over the retained frames. Frames without an estimate are simply absent
    and carry no weight.
    """

    def __init__(self, cfg: FoeConfig = FoeConfig()):
        self.cfg = cfg
        self._history: list[tuple[int, np.ndarray]] = []

    def push(self, frame_index: int, point: np.ndarray) -> np.ndarray:
        """Add frame t's raw estimate; returns the smoothed point for t."""
        point = np.asarray(point, dtype=np.float64).reshape(2)
        if self._history and frame_index <= self._history[-1][0]:
            raise InvalidInputError(
                f"frame indices must increase: got {frame_index} after {self._history[-1][0]}")
        self._history.append((frame_index, point.copy()))
        self._history = [(t, p) for t, p in self._history
                         if t >= frame_index - self.cfg.smooth_window]
        ts = np.array([t for t, _ in self._history], dtype=np.float64)
        pts = np.array([p for _, p in self._history])
        weights = np.exp(-float(self.cfg.smooth_decay) * (frame_index - ts))
        return (pts * weights[:, None]).sum(axis=0) / weights.sum()
