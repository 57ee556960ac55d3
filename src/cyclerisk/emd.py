"""Earth mover's distance between risk descriptors, and level retrieval.

The ground distance between sub-regions is the centroid distance folded
across the frame's vertical mirror (so a hazard on the left reads like its
twin on the right), normalized by the frame diagonal, and inflated by a
constant factor when the two sub-regions belong to different risk groups
(color regions for the lane criterion, annuli for proximity).

The transport problem itself is solved exactly with successive shortest
paths under node potentials: deterministic, no tolerance tuning, and fast at
25 bins because supports are usually sparse.

Retrieval is exact k-NN, but most exact solves are skipped. For unit masses
q and t and any nonnegative ground distance D, the iterative constrained
transfers bound (ICT; Atasu & Mittelholzer, ICML 2019) never exceeds
EMD(q, t). Its forward fill ships each q_i to the bins of t in ascending
D_ij order, at most t_j along each edge; its backward fill ships each t_j to
the bins of q the same way, at most q_i along each edge. Each fill keeps one
marginal of the transport problem and caps every edge at a mass that any
feasible plan also respects, so it relaxes the problem, and the larger of
the two is the bound. It is never below the relaxed transport bound (RWMD;
Kusner et al., ICML 2015), which drops the caps. Training items are solved
in ascending (bound, index) order, and the search stops once k are solved
and the next bound lies above the k-th exact distance by more than a
roundoff margin. Every skipped item is then strictly farther than the k-th
neighbor, so the result is the one an all-pairs search would give, bit for
bit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .config import EmdConfig
from .errors import InvalidInputError, ZeroMassError
from .risk import CROSS_GROUPS, RegionMap, descriptor_bins

_EPS = 1e-15
# slack between a bound and an exact value before an item may be skipped,
# relative to the largest ground distance (solver roundoff is far below it)
_PRUNE_MARGIN = 1e-9


def build_distance_matrix(region_map: RegionMap, cross_factor: float = 2.0) -> np.ndarray:
    """25x25 ground distance from sub-region centroids.

    D[i, j] = min(|c_i - c_j|, |c_i - mirror(c_j)|) / diagonal, times
    cross_factor when i and j sit in different risk groups. Symmetric with a
    zero diagonal. A sub-region with no pixels (the outermost annulus corners
    at wide aspect ratios) can never hold descriptor mass, so its centroid is
    replaced by the frame center just to keep every entry finite.
    """
    if not 1.0 <= cross_factor < math.inf:
        raise InvalidInputError(
            f"cross_factor must be finite and >= 1, got {cross_factor}")
    w, h = region_map.dims
    cents = region_map.centroids()[1:].copy()
    missing = np.isnan(cents[:, 0])
    cents[missing] = (w / 2.0, h / 2.0)

    mirrored = cents.copy()
    mirrored[:, 0] = w - mirrored[:, 0]
    direct = np.linalg.norm(cents[:, None, :] - cents[None, :, :], axis=2)
    folded = np.linalg.norm(cents[:, None, :] - mirrored[None, :, :], axis=2)
    base = np.minimum(direct, folded) / np.hypot(w, h)
    base[base < 1e-12] = 0.0  # mirror-pair rounding residue snaps to exact zero

    g = np.array(CROSS_GROUPS[region_map.criterion])
    cross = np.where(g[:, None] == g[None, :], 1.0, cross_factor)
    dist = base * cross
    np.fill_diagonal(dist, 0.0)
    # folded terms round differently across the diagonal; pin exact symmetry
    return np.minimum(dist, dist.T)


def _shortest_paths(rc, flow, live_src):
    """Bellman sweeps over the bipartite residual graph.

    rc holds forward reduced costs (>= 0 up to roundoff); backward arcs exist
    where flow > 0 and carry -rc. Returns distances and parent links.
    """
    m, n = rc.shape
    dist_a = np.where(live_src, 0.0, np.inf)
    dist_b = np.full(n, np.inf)
    parent_b = np.full(n, -1, dtype=np.intp)  # source that feeds sink j
    parent_a = np.full(m, -1, dtype=np.intp)  # sink that feeds source i

    for _ in range(m + n + 1):
        changed = False
        cand = dist_a[:, None] + rc
        src = np.argmin(cand, axis=0)
        best = cand[src, np.arange(n)]
        improved = best < dist_b - _EPS
        if improved.any():
            dist_b[improved] = best[improved]
            parent_b[improved] = src[improved]
            changed = True
        back = np.where(flow > _EPS, dist_b[None, :] - rc, np.inf)
        snk = np.argmin(back, axis=1)
        best_a = back[np.arange(m), snk]
        improved_a = best_a < dist_a - _EPS
        if improved_a.any():
            dist_a[improved_a] = best_a[improved_a]
            parent_a[improved_a] = snk[improved_a]
            changed = True
        if not changed:
            break
    return dist_a, dist_b, parent_a, parent_b


def _min_cost_transport(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """Exact transportation plan for equal-mass supplies a and demands b."""
    m, n = a.size, b.size
    flow = np.zeros((m, n))
    res_a = a.astype(np.float64).copy()
    res_b = b.astype(np.float64).copy()
    pot_a = np.zeros(m)
    pot_b = np.zeros(n)

    remaining = res_a.sum()
    guard = 4 * (m + n) * max(m, n) + 64
    for _ in range(guard):
        if remaining <= 1e-12:
            break
        rc = np.maximum(cost + pot_a[:, None] - pot_b[None, :], 0.0)
        live_src = res_a > _EPS
        dist_a, dist_b, parent_a, parent_b = _shortest_paths(rc, flow, live_src)

        open_sinks = res_b > _EPS
        target_dist = np.where(open_sinks, dist_b, np.inf)
        target = int(np.argmin(target_dist))
        if not np.isfinite(target_dist[target]):
            raise ZeroMassError("transport became infeasible; masses inconsistent")

        # walk the alternating path back to a live source
        path = []  # (i, j, forward?)
        bottleneck = res_b[target]
        j = target
        while True:
            i = int(parent_b[j])
            path.append((i, j, True))
            if dist_a[i] <= 0.0 and res_a[i] > _EPS and parent_a[i] < 0:
                bottleneck = min(bottleneck, res_a[i])
                break
            jj = int(parent_a[i])
            path.append((i, jj, False))
            bottleneck = min(bottleneck, flow[i, jj])
            j = jj

        for i, jj, forward in path:
            if forward:
                flow[i, jj] += bottleneck
            else:
                flow[i, jj] -= bottleneck
                if flow[i, jj] < _EPS:
                    flow[i, jj] = 0.0
        res_a[path[-1][0]] -= bottleneck
        res_b[target] -= bottleneck
        remaining -= bottleneck

        cap = dist_b[target]
        pot_a += np.minimum(dist_a, cap)
        pot_b += np.minimum(dist_b, cap)
    else:
        raise ZeroMassError("transport failed to terminate; masses inconsistent")

    return flow


def emd_with_flow(a, b, dist: np.ndarray):
    """EMD plus the optimal transport plan between unit-normalized masses."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape or a.shape[0] != dist.shape[0] or dist.shape[0] != dist.shape[1]:
        raise InvalidInputError("signature and distance matrix sizes disagree")
    with np.errstate(over="ignore", invalid="ignore"):
        ta, tb = a.sum(), b.sum()
    if not (np.isfinite(ta) and np.isfinite(tb)) or (a < 0).any() or (b < 0).any():
        raise InvalidInputError("signatures must be nonnegative with finite totals")
    if ta <= 0.0 or tb <= 0.0:
        raise ZeroMassError("cannot compare a signature with no mass")
    a = a / ta
    b = b / tb

    ia = np.nonzero(a > 0.0)[0]
    ib = np.nonzero(b > 0.0)[0]
    sub = dist[np.ix_(ia, ib)]
    plan_sub = _min_cost_transport(a[ia], b[ib], sub)
    value = float((plan_sub * sub).sum())
    plan = np.zeros_like(dist)
    plan[np.ix_(ia, ib)] = plan_sub
    return value, plan


def emd(a, b, dist: np.ndarray) -> float:
    """Minimum work to morph signature a into b under the ground distance.

    Arguments are evaluated in a canonical order so that swapping them
    returns the bit-identical value, not merely an equal one.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.tobytes() <= b.tobytes():
        value, _ = emd_with_flow(a, b, dist)
    else:
        value, _ = emd_with_flow(b, a, np.asarray(dist, dtype=np.float64).T)
    return value


@dataclass
class TrainingItem:
    values: np.ndarray
    level: int

    def __post_init__(self) -> None:
        self.values = descriptor_bins(self.values)
        if self.level not in (1, 2, 3):
            raise InvalidInputError(f"risk level must be 1, 2 or 3, got {self.level}")


@dataclass
class RiskTrainingSet:
    """Labeled reference descriptors for one criterion."""

    criterion: str
    items: list[TrainingItem]
    cross_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.criterion not in ("lane", "proximity"):
            raise InvalidInputError(f"unknown criterion {self.criterion!r}")
        if not 1.0 <= self.cross_factor < math.inf:
            raise InvalidInputError("cross_factor must be finite and >= 1")


@dataclass(frozen=True)
class RiskLevel:
    """Retrieval outcome: level plus the supporting neighbor evidence."""

    level: int
    neighbor_distances: tuple[float, ...]
    votes: dict[int, int]


def _fill_cost(filled, cost) -> np.ndarray:
    """Total cost of fills along edges taken in order (axis 0).

    filled[k] is the mass a fill has shipped over its first k + 1 edges and
    cost[k] the unit price of edge k, so the fill pays
    sum_k (filled_k - filled_{k-1}) cost_k = sum_k filled_k (cost_k - cost_{k+1}).
    """
    step = cost.copy()
    step[:-1] -= cost[1:]
    return np.tensordot(step, filled, axes=2)


def transfer_lower_bounds(query, items, dist: np.ndarray) -> np.ndarray:
    """ICT lower bound on EMD(query, item) for each row of items.

    query is one 25-bin signature and items an (N, 25) stack, all finite,
    nonnegative and with positive mass; both are normalized to unit mass
    here, as `emd` does. Requires a nonnegative ground distance.
    """
    q = np.asarray(query, dtype=np.float64)
    t = np.asarray(items, dtype=np.float64)
    q = q / q.sum()
    t = np.ascontiguousarray((t / t.sum(axis=1, keepdims=True)).T)   # (25, N)
    supp = q > 0.0
    mass = q[supp]
    rows = np.asarray(dist, dtype=np.float64)[supp]     # (|supp q|, 25)
    # backward: item bin j fills the query's bins nearest first, q_i per edge
    bwd = np.argsort(rows, axis=0, kind="stable")
    backward = _fill_cost(np.minimum(np.cumsum(mass[bwd], axis=0)[:, :, None], t),
                          np.take_along_axis(rows, bwd, axis=0))
    # forward: query bin i fills the item's bins nearest first, t_j per edge;
    # one (25, |supp q|, N) array goes from capacities to shipped mass
    fwd = np.argsort(rows, axis=1, kind="stable")
    filled = t[fwd.T]
    np.cumsum(filled, axis=0, out=filled)
    np.minimum(filled, mass[:, None], out=filled)
    forward = _fill_cost(filled, np.take_along_axis(rows, fwd, axis=1).T)
    return np.maximum(forward, backward)


def classify_risk(descriptor, train: RiskTrainingSet, dist: np.ndarray,
                  cfg: EmdConfig = EmdConfig()) -> RiskLevel:
    """Nearest-neighbor level retrieval under EMD, with cfg.k neighbors.

    An all-zero descriptor is an empty scene and maps to level 1 outright.
    Ties in the vote fall to the level with the smaller summed neighbor
    distance, then to the lower level. Training items without mass cannot be
    compared and are ignored.

    The k nearest items, ordered by (distance, index), are exact. Items are
    solved in ascending (`transfer_lower_bounds`, index) order; the search
    stops once k are solved and the next bound exceeds the k-th exact
    distance by more than a roundoff margin, since no later item can then
    displace a neighbor.
    """
    values = descriptor.values if hasattr(descriptor, "values") else descriptor
    values = descriptor_bins(values)
    if values.sum() <= 0.0:
        return RiskLevel(level=1, neighbor_distances=(), votes={})

    usable = [it for it in train.items if it.values.sum() > 0.0]
    if not usable:
        raise ZeroMassError("every training descriptor has zero mass")

    k = min(cfg.k, len(usable))
    bounds = transfer_lower_bounds(values, [it.values for it in usable], dist)
    margin = _PRUNE_MARGIN * max(1.0, float(np.max(dist)))
    solved: list[tuple[float, int]] = []   # (exact distance, index), sorted
    for idx in np.lexsort((np.arange(len(usable)), bounds)):
        if len(solved) >= k and bounds[idx] > solved[k - 1][0] + margin:
            break
        bisect.insort(solved, (emd(values, usable[idx].values, dist), int(idx)))
    nearest = solved[:k]

    votes: dict[int, int] = {}
    sums: dict[int, float] = {}
    for d, idx in nearest:
        lv = usable[idx].level
        votes[lv] = votes.get(lv, 0) + 1
        sums[lv] = sums.get(lv, 0.0) + d
    top = max(votes.values())
    tied = sorted(lv for lv, c in votes.items() if c == top)
    winner = min(tied, key=lambda lv: (sums[lv], lv))
    return RiskLevel(level=winner,
                     neighbor_distances=tuple(d for d, _ in nearest),
                     votes=votes)
