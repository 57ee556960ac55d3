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


def extract_features(window) -> np.ndarray:
    """54 descriptors for one (n, 7) window."""
    return features_matrix([window])[0]


def features_matrix(windows) -> np.ndarray:
    """(m, 54) design matrix of m windows of one length: an (m, n, 7) array
    or a list of m equal (n, 7) arrays.

    The windows are copied once, channel-major, into one contiguous (m, 7, n)
    array, so every statistic reduces over a contiguous last axis and each
    window's numbers sum in the same order as they would alone. Finite
    samples can still be large enough to overflow the squares and spectra; a
    window whose features are not all finite is an input error.
    """
    try:
        data = np.asarray(windows, dtype=np.float64)
    except ValueError:
        raise InvalidInputError(
            "windows must be numbers of one (n, 7) shape") from None
    if data.shape[:1] == (0,):
        raise InvalidInputError("no windows to featurize")
    if data.ndim != 3 or data.shape[2] != 7:
        raise InvalidInputError(f"windows must be (m, n, 7), got {data.shape}")
    m, n, _ = data.shape
    if n < 4:
        raise InvalidInputError("window too short for spectral statistics")
    channels = np.ascontiguousarray(data.transpose(0, 2, 1))
    bad = np.flatnonzero(~np.isfinite(channels).all(axis=(1, 2)))
    if bad.size:
        raise InvalidInputError(f"window {bad[0]} contains non-finite samples")
    with np.errstate(over="ignore", invalid="ignore"):
        stats, centered = _time_stats(channels)
        pair_stats, _ = _time_stats(centered[:, _PAIR_A] * centered[:, _PAIR_B])
        X = np.concatenate([stats.reshape(m, 28),
                            _spectral(channels).reshape(m, 14),
                            pair_stats.reshape(m, 12)], axis=1)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise InvalidInputError(
            f"window {bad[0]} has non-finite features: sensor values too large")
    return X
