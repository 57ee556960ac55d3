"""Per-flow reference implementation of the focus-of-expansion stage.

This is the object path the array code in `cyclerisk.foe` replaced: one
`FlowObservation` per flow, weighted one flow (and one box) at a time, and
re-stacked into arrays on every solve. The property tests require the
package to reproduce its point, counts, stop reason and errors byte for
byte, so keep it independent of the package's helpers: only the settings
(`FoeConfig`) are shared. Its result record also carries the robust
objective after every reweighted solve, which the package never computes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from cyclerisk.errors import DegenerateGeometryError, InsufficientFlowError, InvalidInputError
from cyclerisk.config import FoeConfig

_MAG_OUTLIER = 0.10
_MAG_MID = 0.75
_MAG_INLIER = 1.00
_COND_LIMIT = 1e12
_IRLS_MAX_ITERS = 50
_IRLS_TOL = 1e-8


@dataclass
class RefEstimate:
    """The reference's result: the package's four fields plus the objective.

    objective_history holds the robust objective after every reweighted
    solve of the last estimation; objective is its last entry.
    """

    point: np.ndarray
    iterations: int
    active_count: int
    stop_reason: str
    objective: float
    objective_history: list[float] = field(default_factory=list)


@dataclass
class FlowObservation:
    """One flow vector with the weights assigned to it."""

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


def observations_from_flow(flow) -> list:
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


def assign_magnitude_weights(observations, prev_foe, frame_size,
                             radii=FoeConfig.ring_radii) -> None:
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


def assign_object_weights(observations, detections) -> None:
    if not observations:
        return
    boxes = []
    for det in detections:
        x, y, bw, bh = det.bbox
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


def _usable(observations):
    return [o for o in observations
            if o.weight > 0.0 and (o.vector[0] != 0.0 or o.vector[1] != 0.0)]


def _huber_value(t, delta):
    a = np.abs(t)
    return np.where(a <= delta, 0.5 * t * t, delta * (a - 0.5 * delta))


def estimate_foe(observations, cfg=FoeConfig()) -> RefEstimate:
    usable = _usable(observations)
    n = len(usable)
    if n < cfg.min_flows:
        raise InsufficientFlowError(f"{n} usable flows, need {cfg.min_flows}")

    pts = np.array([o.point for o in usable])
    dirs = np.array([o.direction for o in usable])
    wts = np.array([o.weight for o in usable])

    normals = np.column_stack((-dirs[:, 1], dirs[:, 0]))
    offsets = np.einsum("ij,ij->i", normals, pts)

    def solve(coef):
        m00 = float((coef * normals[:, 0] * normals[:, 0]).sum())
        m01 = float((coef * normals[:, 0] * normals[:, 1]).sum())
        m11 = float((coef * normals[:, 1] * normals[:, 1]).sum())
        mat = np.array([[m00, m01], [m01, m11]])
        evals = np.linalg.eigvalsh(mat)
        if evals[0] <= 0.0 or evals[1] / evals[0] > _COND_LIMIT:
            raise DegenerateGeometryError("flow lines are (near) parallel")
        rhs = (normals * (coef * offsets)[:, None]).sum(axis=0)
        return np.linalg.solve(mat, rhs)

    def objective(x):
        res = np.abs(normals @ x - offsets) / wts
        return float(_huber_value(res, cfg.delta).sum())

    inv_w2 = 1.0 / (wts * wts)
    x = solve(inv_w2)
    history = [objective(x)]
    iterations = 1
    stop = "max_iters"
    for _ in range(_IRLS_MAX_ITERS - 1):
        scaled = np.abs(normals @ x - offsets) / wts
        hub = np.where(scaled <= cfg.delta, 1.0,
                       cfg.delta / np.maximum(scaled, 1e-300))
        x_next = solve(hub * inv_w2)
        iterations += 1
        history.append(objective(x_next))
        step = float(np.linalg.norm(x_next - x))
        x = x_next
        if step < _IRLS_TOL:
            stop = "converged"
            break

    return RefEstimate(point=x, iterations=iterations, active_count=n,
                       stop_reason=stop, objective=history[-1],
                       objective_history=history)


def refine_foe(observations, cfg=FoeConfig()) -> RefEstimate:
    active = _usable(observations)
    est = estimate_foe(active, cfg)
    solves = 1
    cos_limit = math.cos(math.radians(cfg.angle_thresh))

    stop = "max_iters"
    while solves < cfg.max_refine_iters + 1:
        radial = np.array([o.point for o in active]) - est.point
        norms = np.linalg.norm(radial, axis=1)
        dirs = np.array([o.direction for o in active])
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

    return RefEstimate(point=est.point, iterations=solves,
                       active_count=len(active), stop_reason=stop,
                       objective=est.objective,
                       objective_history=est.objective_history)
