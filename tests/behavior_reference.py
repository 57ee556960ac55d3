"""Row-by-row reference implementations of the sensor-side fast paths.

These are the straightforward loops that the batched code in `cyclerisk`
replaced: the per-line sensor CSV reader, the per-window feature extractor,
the SMO loop that recomputed its working sets over every point, and the
feature elimination that started every round's solve from zero. The tests
require the package to reproduce them (the rankings exactly, the rest byte
for byte), so they share no helper with the code they check.
"""

import math
from pathlib import Path

import numpy as np

from cyclerisk.behavior.stream import SensorStream
from cyclerisk.errors import RecordParseError

SENSOR_FIELDS = ("t", "ax", "ay", "az", "gx", "gy", "gz", "speed", "lat", "lon", "acc")
SENSOR_HEADER = ",".join(SENSOR_FIELDS)
_PAIRS = ((0, 1), (0, 2), (1, 2))
_SUPPORT_EPS = 1e-10


def reference_read_sensor_csv(path) -> SensorStream:
    """The sensor log read one line at a time."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != SENSOR_HEADER:
        raise RecordParseError(f"header must be {SENSOR_HEADER!r}", path=str(path),
                               line=1)
    columns = [[] for _ in SENSOR_FIELDS]
    prev_t = None
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(SENSOR_FIELDS):
            raise RecordParseError(f"expected {len(SENSOR_FIELDS)} fields, "
                                   f"got {len(parts)}", path=str(path), line=lineno)
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise RecordParseError(f"bad number: {exc}", path=str(path),
                                   line=lineno) from exc
        if any(not math.isfinite(v) for v in values):
            raise RecordParseError("non-finite sensor value", path=str(path),
                                   line=lineno)
        if prev_t is not None and values[0] <= prev_t:
            raise RecordParseError(
                f"timestamp {values[0]!r} does not increase past {prev_t!r}",
                path=str(path), line=lineno)
        prev_t = values[0]
        for col, v in zip(columns, values):
            col.append(v)
    if not columns[0]:
        raise RecordParseError("no samples", path=str(path), line=2)
    return SensorStream(**{f: np.array(c) for f, c in zip(SENSOR_FIELDS, columns)})


def _time_stats(x):
    mu = float(x.mean())
    centered = x - mu
    std = float(np.sqrt((centered ** 2).mean()))
    rms = float(np.sqrt((x ** 2).mean()))
    mad = float(np.abs(centered).mean())
    return mu, std, rms, mad


def _spectral(x):
    n = x.size
    power = np.abs(np.fft.rfft(x)) ** 2
    tail = power[1:]  # DC excluded
    total = float(tail.sum())
    energy = total / n
    if total <= 0.0:
        return energy, 0.0
    q = tail / total
    nz = q[q > 0]
    entropy = float(-(nz * np.log2(nz)).sum())
    return energy, entropy


def reference_features(data) -> np.ndarray:
    """The 54 descriptors of one valid (n, 7) window, one channel at a time."""
    data = np.asarray(data, dtype=np.float64)
    out = np.empty(54)
    for ch in range(7):
        out[4 * ch:4 * ch + 4] = _time_stats(data[:, ch])
    for ch in range(7):
        out[28 + 2 * ch], out[28 + 2 * ch + 1] = _spectral(data[:, ch])
    base = 42
    for i, j in _PAIRS:
        a = data[:, i] - data[:, i].mean()
        b = data[:, j] - data[:, j].mean()
        out[base:base + 4] = _time_stats(a * b)
        base += 4
    return out


def reference_smo(K, y, C, tol=1e-6, max_iter=None):
    """(alpha, bias, iterations), recomputing both working sets every step."""
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
    return alpha, 0.5 * (hi + lo), it


def reference_rfe_rank(X, y, C=1.0):
    """Feature ranks 1 (kept longest) .. d, every round solved cold."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(y).tolist()
    top = sorted(set(labels))[1]
    ypm = np.array([1.0 if lab == top else -1.0 for lab in labels])
    sd = X.std(axis=0)
    Xs = (X - X.mean(axis=0)) / np.where(sd > 1e-12, sd, 1.0)
    d = X.shape[1]
    rank = np.zeros(d, dtype=np.intp)
    remaining = list(range(d))
    while len(remaining) > 1:
        sub = Xs[:, remaining]
        alpha, _, _ = reference_smo(sub @ sub.T, ypm, C)
        w = sub.T @ (alpha * ypm)
        drop = int(np.argmin(w ** 2))
        rank[remaining[drop]] = len(remaining)
        del remaining[drop]
    rank[remaining[0]] = 1
    return rank
