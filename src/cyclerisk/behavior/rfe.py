"""Recursive feature elimination with a linear machine, plus rank consensus.

The elimination criterion is the squared weight component of a linear SVM:
retrain on what remains, drop the weakest coordinate, repeat. A feature's
rank is the reverse of its elimination time (rank 1 survived longest).
Consensus over the per-class binary rankings keeps the m features with the
smallest rank sum.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateTrainingError, InvalidInputError, SolverNotConvergedError
from .svm import SMO_TOL, _smo


def _as_binary(y) -> np.ndarray:
    arr = np.asarray(y)
    uniq = sorted(set(arr.tolist()))
    if len(uniq) != 2:
        raise DegenerateTrainingError(f"binary ranking needs 2 classes, got {len(uniq)}")
    return np.where(arr == uniq[1], 1.0, -1.0)


def rfe_rank(X: np.ndarray, y, C: float = 1.0) -> np.ndarray:
    """Rank features 1 (kept longest) .. d (dropped first) for a binary task.

    A round whose solve stops at the iteration cap unconverged raises
    SolverNotConvergedError naming the round, C and the final KKT gap.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InvalidInputError("X must be a nonempty 2-D matrix")
    if not np.isfinite(X).all():
        raise InvalidInputError("X contains non-finite values")
    ypm = _as_binary(y)
    if ypm.size != X.shape[0]:
        raise InvalidInputError("X and y lengths differ")

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    Xs = (X - mu) / np.where(sd > 1e-12, sd, 1.0)

    d = X.shape[1]
    rank = np.zeros(d, dtype=np.intp)
    remaining = list(range(d))
    alpha = None
    while len(remaining) > 1:
        sub = Xs[:, remaining]
        K = sub @ sub.T
        # the box and y'a = 0 outlive a dropped feature: start from last round
        alpha, _, iters, gap = _smo(K, ypm, C, alpha=alpha)
        if gap >= SMO_TOL:
            raise SolverNotConvergedError(
                f"RFE round {d - len(remaining) + 1} ({len(remaining)} features, "
                f"C={C:g}) stopped at its cap of {iters} iterations with KKT "
                f"gap {gap:.3g}")
        w = sub.T @ (alpha * ypm)
        drop = int(np.argmin(w ** 2))  # first index wins ties
        rank[remaining[drop]] = len(remaining)
        remaining.pop(drop)
    rank[remaining] = 1  # the survivor, if any
    return rank


def ova_rankings(X: np.ndarray, y, C: float = 1.0) -> list[np.ndarray]:
    """One RFE ranking per sorted class label, class-versus-rest."""
    labels = np.array([str(v) for v in y])
    classes = sorted(set(labels.tolist()))
    if len(classes) < 2:
        raise DegenerateTrainingError("need at least two classes to rank")
    out = []
    for c in classes:
        ypm = np.where(labels == c, 1.0, -1.0)
        out.append(rfe_rank(X, ypm, C=C))
    return out


def consensus_select(rankings: list[np.ndarray], m: int) -> np.ndarray:
    """Boolean mask keeping the m features with the best summed rank."""
    if not rankings:
        raise InvalidInputError("no rankings given")
    stack = np.vstack([np.asarray(r, dtype=np.float64) for r in rankings])
    if stack.ndim != 2:
        raise InvalidInputError("rankings must share one schema")
    d = stack.shape[1]
    if not 1 <= m <= d:
        raise InvalidInputError(f"m must be in [1, {d}], got {m}")
    totals = stack.sum(axis=0)
    order = np.lexsort((np.arange(d), totals))  # ties fall to the lower index
    mask = np.zeros(d, dtype=bool)
    mask[order[:m]] = True
    return mask
