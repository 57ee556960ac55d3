"""The 54-number window descriptor.

Layout, frozen (see docs/formats.md):
  0..27   per channel (ax ay az gx gy gz speed): mean, std, rms, mad
  28..41  per channel: spectral energy, power spectral entropy
  42..53  per acceleration pair (xy, xz, yz): mean, std, rms, mad of the
          elementwise product of the two mean-centered axes

std is the population standard deviation, mad the mean absolute deviation
about the mean. Spectral quantities come from the magnitude-squared DFT over
positive frequencies only; the DC bin is excluded so constant signals carry
zero spectral content.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError
from .preprocess import RawWindow
from .stream import CHANNEL_NAMES

_STATS = ("mean", "std", "rms", "mad")
_PAIRS = (("ax", "ay", 0, 1), ("ax", "az", 0, 2), ("ay", "az", 1, 2))
_PAIR_A = [i for _, _, i, _ in _PAIRS]
_PAIR_B = [j for _, _, _, j in _PAIRS]


def _build_names() -> tuple[str, ...]:
    names = [f"{ch}_{st}" for ch in CHANNEL_NAMES for st in _STATS]
    for ch in CHANNEL_NAMES:
        names.append(f"{ch}_spec_energy")
        names.append(f"{ch}_spec_entropy")
    for a, b, _, _ in _PAIRS:
        names.extend(f"{a}{b}_prod_{st}" for st in _STATS)
    return tuple(names)


FEATURE_NAMES = _build_names()
N_FEATURES = len(FEATURE_NAMES)
assert N_FEATURES == 54


def _time_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, std, rms, mad) over the last axis, stacked last; and x centered."""
    mu = x.mean(axis=-1)
    centered = x - mu[..., None]
    stats = np.stack([mu, np.sqrt((centered ** 2).mean(axis=-1)),
                      np.sqrt((x ** 2).mean(axis=-1)),
                      np.abs(centered).mean(axis=-1)], axis=-1)
    return stats, centered


def _spectral(x: np.ndarray) -> np.ndarray:
    """(energy, entropy) over the last axis, stacked last."""
    n = x.shape[-1]
    tail = (np.abs(np.fft.rfft(x, axis=-1)) ** 2)[..., 1:]  # DC excluded
    total = tail.sum(axis=-1)
    entropy = np.zeros_like(total)
    live = total > 0.0
    q = tail[live] / total[live][:, None]
    ent = np.empty(q.shape[0])
    full = (q > 0).all(axis=1)
    qf = q[full]
    ent[full] = -(qf * np.log2(qf)).sum(axis=1)
    # zero bins are dropped; compress row by row to keep the summation order
    for r in np.flatnonzero(~full):
        nz = q[r][q[r] > 0]
        ent[r] = -(nz * np.log2(nz)).sum()
    entropy[live] = ent
    return np.stack([total / n, entropy], axis=-1)


def _window_data(window) -> np.ndarray:
    data = window.data if isinstance(window, RawWindow) else np.asarray(window, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != 7:
        raise InvalidInputError(f"window must be (n, 7), got {data.shape}")
    if data.shape[0] < 4:
        raise InvalidInputError("window too short for spectral statistics")
    if not np.isfinite(data).all():
        raise InvalidInputError("window contains non-finite samples")
    return data


def _stacked_features(datas: list) -> np.ndarray:
    """(m, 54) features of m validated (n, 7) windows of one length.

    The windows are stacked channel-major into one contiguous (m, 7, n)
    array, so every statistic reduces over a contiguous last axis and each
    window's numbers sum in the same order as they would alone.
    """
    m = len(datas)
    channels = np.ascontiguousarray(np.stack(datas).transpose(0, 2, 1))
    stats, centered = _time_stats(channels)
    pair_stats, _ = _time_stats(centered[:, _PAIR_A] * centered[:, _PAIR_B])
    return np.concatenate([stats.reshape(m, 28),
                           _spectral(channels).reshape(m, 14),
                           pair_stats.reshape(m, 12)], axis=1)


def extract_features(window) -> np.ndarray:
    """54 descriptors for one (n, 7) window; accepts RawWindow or array."""
    return features_matrix([window])[0]


def features_matrix(windows: list) -> np.ndarray:
    """Stack per-window feature vectors into an (m, 54) design matrix.

    Finite samples can still be large enough to overflow the squares and
    spectra; a window whose features are not all finite is an input error.
    """
    if not windows:
        raise InvalidInputError("no windows to featurize")
    datas = [_window_data(w) for w in windows]
    with np.errstate(over="ignore", invalid="ignore"):
        if any(d.shape[0] != datas[0].shape[0] for d in datas):
            X = np.vstack([_stacked_features([d]) for d in datas])
        else:
            X = _stacked_features(datas)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        k = int(bad[0])
        at = f" (sample {windows[k].start})" if isinstance(windows[k], RawWindow) else ""
        raise InvalidInputError(
            f"window {k}{at} has non-finite features: sensor values too large")
    return X
