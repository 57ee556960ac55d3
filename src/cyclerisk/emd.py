"""Earth mover's distance between risk descriptors, and level retrieval.

The ground distance between sub-regions is the centroid distance folded
across the frame's vertical mirror (so a hazard on the left reads like its
twin on the right), normalized by the frame diagonal, and inflated by a
constant factor when the two sub-regions belong to different risk groups
(color regions for the lane criterion, annuli for proximity).

The transport problem is solved exactly, and deterministically, by
successive shortest paths under node potentials (Ahuja, Magnanti & Orlin,
Network Flows, 1993, ch. 9), on the two signatures' supports only. Each
augmentation runs Dijkstra over reduced costs from every source with supply
left and stops at the first sink with demand left that it settles; each
tentative distance is floored at the distance just settled, since reduced
costs are nonnegative but for roundoff. Among nodes at equal distance a sink
is settled before a source. After a potential update most augmentations
(about 55% on ride retrieval, two thirds at full 25-bin support) find an open
sink at reduced distance 0, and with that order they cost one row scan. The
solver runs over Python lists, not numpy arrays: ride supports hold a handful
of bins a side (at most 9 on the benchmark rides), and at those sizes the
fixed cost of a numpy call outweighs the arithmetic it does.

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
import heapq
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
    cents = region_map.centroids()[1:]
    missing = np.isnan(cents[:, 0])
    cents[missing] = (w / 2.0, h / 2.0)

    x, y = cents.T
    dy2 = np.square(y[:, None] - y)
    direct = np.sqrt(np.square(x[:, None] - x) + dy2)
    folded = np.sqrt(np.square(x[:, None] - (w - x)) + dy2)   # to the mirror image
    base = np.minimum(direct, folded) / np.hypot(w, h)
    base[base < 1e-12] = 0.0  # mirror-pair rounding residue snaps to exact zero

    g = np.array(CROSS_GROUPS[region_map.criterion])
    cross = np.where(g[:, None] == g[None, :], 1.0, cross_factor)
    dist = base * cross
    np.fill_diagonal(dist, 0.0)
    # folded terms round differently across the diagonal; pin exact symmetry
    return np.minimum(dist, dist.T)


def _min_cost_transport(a: list, b: list, cost: np.ndarray) -> list:
    """Exact transportation plan, as rows, for equal-mass supplies a and demands b.

    Successive shortest paths: each augmentation runs Dijkstra from every
    live source over reduced costs and stops at the first open sink it
    settles; on equal distances a sink is settled before a source.
    """
    m, n = len(a), len(b)
    rows, cols = cost.tolist(), cost.T.tolist()
    flow = [[0.0] * n for _ in range(m)]
    res_a, res_b = list(a), list(b)
    pot_a, pot_b = [0.0] * m, [0.0] * n
    remaining = sum(res_a)
    for _ in range(4 * (m + n) * max(m, n) + 64):
        if remaining <= 1e-12:
            return flow
        dist_a = [0.0 if r > _EPS else math.inf for r in res_a]
        dist_b = [math.inf] * n
        parent_a = [-1] * m   # sink that feeds source i over a backward arc
        parent_b = [-1] * n   # source that feeds sink j
        # (distance, 0 for a sink / 1 for a source, index): sinks pop first.
        # A node is settled by its first pop; later pops of it are stale.
        heap = [(0.0, 1, i) for i in range(m) if res_a[i] > _EPS]
        target = -1
        while heap:
            d, is_source, k = heapq.heappop(heap)
            if is_source:
                if d != dist_a[k]:
                    continue
                base = d + pot_a[k]
                for j, c in enumerate(rows[k]):
                    # reduced costs are >= 0 but for roundoff: floor at d, so
                    # that a settled node is never reached again
                    nd = base + c - pot_b[j]
                    if nd < d:
                        nd = d
                    if nd < dist_b[j]:
                        dist_b[j] = nd
                        parent_b[j] = k
                        heapq.heappush(heap, (nd, 0, j))
            elif d == dist_b[k]:
                if res_b[k] > _EPS:
                    target = k
                    break
                base = d + pot_b[k]
                for i, c in enumerate(cols[k]):
                    if flow[i][k] > _EPS:
                        nd = base - c - pot_a[i]
                        if nd < d:
                            nd = d
                        if nd < dist_a[i]:
                            dist_a[i] = nd
                            parent_a[i] = k
                            heapq.heappush(heap, (nd, 1, i))
        if target < 0:
            raise ZeroMassError("transport became infeasible; masses inconsistent")

        # walk the alternating path back to a live source
        path = []   # (source, sink it feeds, sink it gives back to or -1)
        bottleneck = res_b[target]
        j = target
        while True:
            i = parent_b[j]
            back = parent_a[i]
            path.append((i, j, back))
            if back < 0:
                bottleneck = min(bottleneck, res_a[i])
                break
            bottleneck = min(bottleneck, flow[i][back])
            j = back
        for i, j, back in path:
            flow[i][j] += bottleneck
            if back >= 0:
                f = flow[i][back] - bottleneck
                flow[i][back] = f if f >= _EPS else 0.0
        res_a[path[-1][0]] -= bottleneck
        res_b[target] -= bottleneck
        remaining -= bottleneck

        # every node's potential moves by its distance, capped at the
        # target's; when that is 0, nothing moves
        if d > 0.0:
            pot_a = [p + (x if x < d else d) for p, x in zip(pot_a, dist_a)]
            pot_b = [p + (x if x < d else d) for p, x in zip(pot_b, dist_b)]
    raise ZeroMassError("transport failed to terminate; masses inconsistent")


def emd(a, b, dist: np.ndarray) -> float:
    """Minimum work to morph signature a into b under the ground distance.

    Both signatures are normalized to unit mass. Arguments are evaluated in
    a canonical order so that swapping them returns the bit-identical value,
    not merely an equal one.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    dist = np.asarray(dist, dtype=np.float64)
    if a.shape != b.shape or dist.shape != a.shape * 2:
        raise InvalidInputError("signature and distance matrix sizes disagree")
    if a.tobytes() > b.tobytes():
        a, b, dist = b, a, dist.T
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
    plan = np.array(_min_cost_transport(a[ia].tolist(), b[ib].tolist(), sub))
    return float((plan * sub).sum())


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
