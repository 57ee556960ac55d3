"""Focus-of-expansion estimation from sparse optical flow.

Each tracked flow vector spans a line through its source point; during forward
motion those lines meet near one image point. The estimate is the point
minimizing a robust (Huber) sum of weighted point-to-line distances, where the
per-flow weight combines a magnitude-consistency term (flows that disagree
with their neighborhood's mean speed are discounted) and an object term
(flows sitting on detected moving objects are discounted). An orientation
refinement pass then drops flows whose direction disagrees with the radial
expansion pattern around the estimate and re-solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, InsufficientFlowError, InvalidInputError

# Flat zone weights for magnitude consistency: strong disagreement, mild
# disagreement, agreement.
_MAG_OUTLIER = 0.10
_MAG_MID = 0.75
_MAG_INLIER = 1.00

_COND_LIMIT = 1e12

DEFAULT_RING_RADII = (0.15, 0.30, 0.50)


@dataclass
class FlowObservation:
    """One flow vector with the weights assigned to it.

    point is the (x, y) source position, vector the displacement. weight is
    always the product of the magnitude and object terms.
    """

    point: np.ndarray
    vector: np.ndarray
    mag_weight: float = 1.0
    obj_weight: float = 1.0
    ring: int = -1

    def __post_init__(self) -> None:
        self.point = np.asarray(self.point, dtype=np.float64).reshape(2)
        self.vector = np.asarray(self.vector, dtype=np.float64).reshape(2)

    @property
    def magnitude(self) -> float:
        return float(np.hypot(self.vector[0], self.vector[1]))

    @property
    def direction(self) -> np.ndarray:
        mag = self.magnitude
        if mag == 0.0:
            raise InvalidInputError("zero-length flow has no direction")
        return self.vector / mag

    @property
    def weight(self) -> float:
        return self.mag_weight * self.obj_weight


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


@dataclass(frozen=True)
class HuberConfig:
    """Estimation knobs.

    delta is the Huber corner in weighted-residual units; tol the convergence
    threshold in pixels for the refinement loop; angle_thresh the maximum
    radial deviation in degrees a flow may have and survive pruning. irls_tol
    is deliberately much tighter than tol: the inner solver must localize the
    optimum well below a pixel for the refinement geometry to be meaningful.
    """

    delta: float = 1.0
    tol: float = 1.0
    angle_thresh: float = 30.0
    max_refine_iters: int = 10
    min_flows: int = 8
    irls_max_iters: int = 50
    irls_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < np.inf:
            raise InvalidInputError(f"delta must be finite and > 0, got {self.delta}")
        if not 0.0 < self.tol < np.inf:
            raise InvalidInputError(f"tol must be finite and > 0, got {self.tol}")
        if not 0.0 < self.angle_thresh <= 90.0:
            raise InvalidInputError(
                f"angle_thresh must be in (0, 90] degrees, got {self.angle_thresh}")
        if self.max_refine_iters < 1:
            raise InvalidInputError("max_refine_iters must be >= 1")
        if self.min_flows < 2:
            raise InvalidInputError("min_flows must be >= 2")
        if self.irls_max_iters < 1 or not 0.0 < self.irls_tol < np.inf:
            raise InvalidInputError("bad IRLS settings")


def observations_from_flow(flow) -> list[FlowObservation]:
    """Keep tracked, nonzero flow vectors as weight-1 observations."""
    out = []
    for i in range(len(flow.points)):
        if not flow.tracked[i]:
            continue
        v = flow.vectors[i]
        if v[0] == 0.0 and v[1] == 0.0:
            continue
        out.append(FlowObservation(point=flow.points[i].copy(), vector=v.copy()))
    return out


def assign_magnitude_weights(
    observations: list[FlowObservation],
    prev_foe: np.ndarray,
    frame_size: tuple[int, int],
    radii: tuple[float, ...] = DEFAULT_RING_RADII,
) -> None:
    """Weight each flow by how well its speed matches its annulus.

    Concentric annuli around the previous focus estimate (radii are fractions
    of the frame diagonal; the last annulus is unbounded) group flows whose
    apparent speed should be comparable. Within annulus mean magnitude vbar,
    a flow at absolute deviation dev gets 0.10 when dev >= vbar^(2/3), 1.00
    when dev <= vbar^(1/2), and 0.75 strictly between; the first rule wins
    when the bounds cross (vbar < 1).
    """
    if not observations:
        return
    w, h = frame_size
    if w <= 0 or h <= 0:
        raise InvalidInputError(f"bad frame size {frame_size}")
    if any(r <= 0 for r in radii) or list(radii) != sorted(radii):
        raise InvalidInputError(f"ring radii must be positive and increasing: {radii}")

    prev_foe = np.asarray(prev_foe, dtype=np.float64).reshape(2)
    diag = math.hypot(w, h)
    bounds = np.asarray(radii, dtype=np.float64) * diag

    mags = np.array([o.magnitude for o in observations])
    if (mags == 0.0).any():
        raise InvalidInputError("zero-length flows must be dropped before weighting")
    pts = np.array([o.point for o in observations])
    dist = np.linalg.norm(pts - prev_foe, axis=1)
    rings = np.searchsorted(bounds, dist, side="left")

    for ring in np.unique(rings):
        members = rings == ring
        vbar = float(mags[members].mean())
        hi = vbar ** (2.0 / 3.0)
        lo = vbar ** 0.5
        dev = np.abs(mags[members] - vbar)
        weights = np.where(dev >= hi, _MAG_OUTLIER,
                           np.where(dev <= lo, _MAG_INLIER, _MAG_MID))
        for slot, obs_idx in enumerate(np.nonzero(members)[0]):
            observations[obs_idx].ring = int(ring)
            observations[obs_idx].mag_weight = float(weights[slot])


def assign_object_weights(observations: list[FlowObservation], detections) -> None:
    """Discount flows that sit on detected objects: weight exp(-score).

    A flow covered by several boxes takes the highest detection score; one
    covered by none keeps weight 1.
    """
    if not observations:
        return
    boxes = []
    for det in detections:
        x, y, bw, bh = det.bbox
        if bw < 0 or bh < 0:
            raise InvalidInputError(f"negative box size in {det.bbox}")
        boxes.append((x, y, x + bw, y + bh, det.score))

    for obs in observations:
        if obs.magnitude == 0.0:
            raise InvalidInputError("zero-length flows must be dropped before weighting")
        px, py = obs.point
        score = 0.0
        for x0, y0, x1, y1, s in boxes:
            if x0 <= px <= x1 and y0 <= py <= y1:
                score = max(score, s)
        obs.obj_weight = float(np.exp(-score))


def _huber_value(t: np.ndarray, delta: float) -> np.ndarray:
    a = np.abs(t)
    return np.where(a <= delta, 0.5 * t * t, delta * (a - 0.5 * delta))


def _usable(observations: list[FlowObservation]) -> list[FlowObservation]:
    return [o for o in observations
            if o.weight > 0.0 and (o.vector[0] != 0.0 or o.vector[1] != 0.0)]


def estimate_foe(observations: list[FlowObservation], cfg: HuberConfig = HuberConfig()) -> FoeEstimate:
    """Robustly intersect the flow lines.

    Solves argmin_x sum_i huber_delta(f(x, L_i) / w_i) where f is the
    point-to-line distance, by iteratively reweighted least squares on the
    2x2 normal system. Raises InsufficientFlowError below the quorum and
    DegenerateGeometryError when the lines do not pin down a point.
    """
    usable = _usable(observations)
    n = len(usable)
    if n < cfg.min_flows:
        raise InsufficientFlowError(f"{n} usable flows, need {cfg.min_flows}")

    pts = np.array([o.point for o in usable])
    dirs = np.array([o.direction for o in usable])
    wts = np.array([o.weight for o in usable])

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
    for _ in range(cfg.irls_max_iters - 1):
        scaled = np.abs(normals @ x - offsets) / wts
        hub = np.where(scaled <= cfg.delta, 1.0,
                       cfg.delta / np.maximum(scaled, 1e-300))
        x_next = solve(hub * inv_w2)
        iterations += 1
        history.append(objective(x_next))
        step = float(np.linalg.norm(x_next - x))
        x = x_next
        if step < cfg.irls_tol:
            stop = "converged"
            break

    return FoeEstimate(point=x, iterations=iterations, active_count=n,
                       objective=history[-1], stop_reason=stop,
                       objective_history=history)


def refine_foe(observations: list[FlowObservation], cfg: HuberConfig = HuberConfig()) -> FoeEstimate:
    """Alternate estimation with radial-orientation pruning.

    After each solve, flows whose direction deviates from the outward radial
    direction at their point by more than angle_thresh degrees are removed
    and the remainder re-solved. Stops when nothing is pruned, when the
    estimate moves less than tol, when pruning would dip below the quorum
    (the last feasible estimate is returned, flagged "quorum"), or after
    max_refine_iters rounds.
    """
    active = _usable(observations)
    est = estimate_foe(active, cfg)
    solves = 1
    cos_limit = math.cos(math.radians(cfg.angle_thresh))

    stop = "max_iters"
    while solves < cfg.max_refine_iters + 1:
        radial = np.array([o.point for o in active]) - est.point
        norms = np.linalg.norm(radial, axis=1)
        dirs = np.array([o.direction for o in active])
        # A flow starting exactly at the estimate carries no direction
        # information; it is never pruned.
        cosang = np.where(norms > 0.0,
                          np.einsum("ij,ij->i", dirs, radial) / np.maximum(norms, 1e-300),
                          1.0)
        keep = cosang >= cos_limit
        if keep.all():
            stop = "converged"
            break
        if int(keep.sum()) < cfg.min_flows:
            stop = "quorum"
            break
        pruned = [o for o, k in zip(active, keep) if k]
        new_est = estimate_foe(pruned, cfg)
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

    Keeps estimates from the last `window` frames; the smoothed point at
    frame t is sum_j x_j exp(-decay (t - j)) normalized over the retained
    frames. Frames without an estimate are simply absent and carry no weight.
    """

    def __init__(self, window: int = 5, decay: float = 0.5):
        if window < 0:
            raise InvalidInputError(f"window must be >= 0, got {window}")
        if decay < 0:
            raise InvalidInputError(f"decay must be >= 0, got {decay}")
        self.window = int(window)
        self.decay = float(decay)
        self._history: list[tuple[int, np.ndarray]] = []

    def push(self, frame_index: int, point: np.ndarray) -> np.ndarray:
        """Add frame t's raw estimate; returns the smoothed point for t."""
        point = np.asarray(point, dtype=np.float64).reshape(2)
        if self._history and frame_index <= self._history[-1][0]:
            raise InvalidInputError(
                f"frame indices must increase: got {frame_index} after {self._history[-1][0]}")
        self._history.append((frame_index, point.copy()))
        self._history = [(t, p) for t, p in self._history
                         if t >= frame_index - self.window]
        ts = np.array([t for t, _ in self._history], dtype=np.float64)
        pts = np.array([p for _, p in self._history])
        weights = np.exp(-self.decay * (frame_index - ts))
        return (pts * weights[:, None]).sum(axis=0) / weights.sum()
