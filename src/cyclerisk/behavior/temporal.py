"""Label smoothing over consecutive windows.

A lone misclassified window in the middle of a steady ride is almost always
noise. Each window's class scores are therefore blended with recent history,
where a past window counts for more when it is both recent (exponential decay
in lag) and similar in feature space (gaussian affinity).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import InvalidInputError


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class TemporalSmoother:
    """Streaming accumulator: push windows in order, read back smoothed labels."""

    def __init__(self, window: int = 10, decay: float = 0.5,
                 bandwidth: float = 1.0) -> None:
        if window < 1:
            raise InvalidInputError("history window must be >= 1")
        if decay < 0:
            raise InvalidInputError("decay must be >= 0")
        if bandwidth <= 0:
            raise InvalidInputError("bandwidth must be positive")
        self.window = int(window)
        self.decay = float(decay)
        self.bandwidth = float(bandwidth)
        self._history: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=window + 1)

    def push(self, features: np.ndarray, probs: np.ndarray) -> tuple[int, np.ndarray]:
        """Add one window; returns (smoothed class index, blended scores)."""
        features = np.asarray(features, dtype=np.float64)
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or (probs < 0).any():
            raise InvalidInputError("probs must be a nonnegative vector")
        self._history.append((features, probs))

        current = self._history[-1][0]
        scores = np.zeros_like(probs)
        for lag, (f, p) in enumerate(reversed(self._history)):
            diff = current - f
            affinity = np.exp(-float(diff @ diff) / (2.0 * self.bandwidth ** 2))
            scores += np.exp(-self.decay * lag) * affinity * p
        return int(scores.argmax()), scores


def smooth_sequence(features: np.ndarray, probs: np.ndarray,
                    window: int = 10, decay: float = 0.5,
                    bandwidth: float = 1.0) -> np.ndarray:
    """Run the smoother over a whole ride; returns per-window class indices."""
    features = np.asarray(features, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if features.shape[0] != probs.shape[0]:
        raise InvalidInputError("features and probs must align per window")
    sm = TemporalSmoother(window=window, decay=decay, bandwidth=bandwidth)
    return np.array([sm.push(f, p)[0] for f, p in zip(features, probs)], dtype=np.intp)
