"""Label smoothing over consecutive windows.

A lone misclassified window in the middle of a steady ride is almost always
noise. Each window's class scores are therefore blended with recent history,
where a past window counts for more when it is both recent (exponential decay
in lag, `BehaviorConfig.smooth_decay`) and similar in feature space (gaussian
affinity). At most `BehaviorConfig.smooth_window` past windows take part.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..config import BehaviorConfig
from ..errors import InvalidInputError


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def smooth_sequence(features: np.ndarray, probs: np.ndarray, bandwidth: float,
                    cfg: BehaviorConfig = BehaviorConfig()) -> np.ndarray:
    """Smoothed class index of each window of a ride, in order.

    Window t scores sum_lag exp(-cfg.smooth_decay * lag)
    * exp(-|f_t - f_(t-lag)|^2 / (2 * bandwidth^2)) * probs_(t-lag) over
    lag 0..cfg.smooth_window and takes the argmax.
    """
    features = np.asarray(features, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if features.shape[0] != probs.shape[0]:
        raise InvalidInputError("features and probs must align per window")
    if probs.ndim != 2 or (probs < 0).any():
        raise InvalidInputError("probs must be one nonnegative vector per window")
    decay, bandwidth = float(cfg.smooth_decay), float(bandwidth)
    history: deque[tuple[np.ndarray, np.ndarray]] = deque(
        maxlen=cfg.smooth_window + 1)
    labels = np.empty(len(probs), dtype=np.intp)
    for t, (current, p) in enumerate(zip(features, probs)):
        history.append((current, p))
        scores = np.zeros_like(p)
        for lag, (f, q) in enumerate(reversed(history)):
            diff = current - f
            affinity = np.exp(-float(diff @ diff) / (2.0 * bandwidth ** 2))
            scores += np.exp(-decay * lag) * affinity * q
        labels[t] = scores.argmax()
    return labels
