"""Focus-of-expansion estimation from sparse optical flow.

Flows arrive as plain arrays, one row per flow: (n, 2) source points, (n, 2)
displacement vectors and (n,) weights. Each flow spans a line through its
source point; during forward motion those lines meet near one image point.
The estimate is the point minimizing a robust (Huber) sum of weighted
point-to-line distances, reached by iteratively reweighted least squares.
A flow's weight is the product of a magnitude-consistency term
(`magnitude_weights`: flows that disagree with their annulus's mean speed
are discounted) and an object term (`object_weights`: flows sitting on
detected moving objects are discounted);
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
from dataclasses import dataclass

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
    """Result of one estimation or refinement run: the focus and its counts.

    iterations counts solver rounds (reweighted solves for estimate_foe,
    prune-and-solve rounds for refine_foe); active_count counts the flows
    of the last solve; stop_reason is "converged", "max_iters" or, for
    refine_foe, "quorum".
    """

    point: np.ndarray
    iterations: int
    active_count: int
    stop_reason: str


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


def _flow_lines(points, vectors, weights, min_flows: int):
    """The usable rows as a flow-line table.

    A row is usable with a positive weight and a nonzero vector. Returns
    the source points, unit directions, unit normals, offsets n_i . p_i and
    weights of those rows; raises InsufficientFlowError below the quorum.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    vectors = np.asarray(vectors, dtype=np.float64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    keep = (weights > 0.0) & (vectors != 0.0).any(axis=1)
    points, vectors, weights = points[keep], vectors[keep], weights[keep]
    if len(weights) < min_flows:
        raise InsufficientFlowError(f"{len(weights)} usable flows, need {min_flows}")
    dirs = vectors / _magnitudes(vectors)[:, None]
    normals = np.column_stack((-dirs[:, 1], dirs[:, 0]))
    offsets = np.einsum("ij,ij->i", normals, points)
    return points, dirs, normals, offsets, weights


def _irls(normals: np.ndarray, offsets: np.ndarray, wts: np.ndarray,
          delta: float) -> tuple[np.ndarray, int, str]:
    """Huber IRLS over flow lines: the point, the solve count, the stop reason."""

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

    inv_w2 = 1.0 / (wts * wts)
    x = solve(inv_w2)
    for iterations in range(2, _IRLS_MAX_ITERS + 1):
        scaled = np.abs(normals @ x - offsets) / wts
        hub = np.ones_like(scaled)
        far = scaled > delta
        hub[far] = delta / np.maximum(scaled[far], 1e-300)
        x_next = solve(hub * inv_w2)
        step = float(np.linalg.norm(x_next - x))
        x = x_next
        if step < _IRLS_TOL:
            return x, iterations, "converged"
    return x, _IRLS_MAX_ITERS, "max_iters"


def estimate_foe(points: np.ndarray, vectors: np.ndarray, weights: np.ndarray,
                 cfg: FoeConfig = FoeConfig()) -> FoeEstimate:
    """Robustly intersect the flow lines.

    Solves argmin_x sum_i huber_delta(f(x, L_i) / w_i) where f is the
    point-to-line distance, by iteratively reweighted least squares on the
    2x2 normal system. Raises InsufficientFlowError below the quorum and
    DegenerateGeometryError when the lines do not pin down a point.
    """
    *_, normals, offsets, wts = _flow_lines(points, vectors, weights, cfg.min_flows)
    x, iterations, stop = _irls(normals, offsets, wts, cfg.delta)
    return FoeEstimate(x, iterations, len(wts), stop)


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
    points, dirs, normals, offsets, weights = _flow_lines(points, vectors, weights,
                                                          cfg.min_flows)
    point = _irls(normals, offsets, weights, cfg.delta)[0]
    active = np.arange(len(weights))
    solves = 1
    cos_limit = math.cos(math.radians(cfg.angle_thresh))

    stop = "max_iters"
    while solves < cfg.max_refine_iters + 1:
        radial = points[active] - point
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
        new_point = _irls(normals[pruned], offsets[pruned], weights[pruned], cfg.delta)[0]
        solves += 1
        moved = float(np.linalg.norm(new_point - point))
        active, point = pruned, new_point
        if moved < cfg.tol:
            stop = "converged"
            break

    return FoeEstimate(point, solves, len(active), stop)


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
