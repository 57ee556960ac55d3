"""Signal conditioning ahead of feature extraction.

Recordings start and end with handling noise (pocketing the phone, mounting
it), so 10 seconds are cut from each end. What remains is re-gridded onto an
exact 10 Hz lattice, and make_windows cuts it into half-overlapped windows
of WINDOW_SIZE samples: their start samples, and one (m, WINDOW_SIZE, 7)
view of the channel matrix that copies no window.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import InsufficientDataError
from .stream import SENSOR_FIELDS, SensorStream

TRIM_SECONDS = 10.0
GRID_RATE = 10.0
WINDOW_SIZE = 100
WINDOW_STRIDE = 50


def preprocess(stream: SensorStream) -> SensorStream:
    """Trim both ends and resample to a uniform lattice.

    Each grid slot takes the nearest sample when one lies strictly within
    half a period; otherwise the previous sample is held and the slot is
    flagged in gap_mask. Raises when fewer than one window of samples
    survives the trim.
    """
    t = stream.t
    t_start = t[0] + TRIM_SECONDS
    t_end = t[-1] - TRIM_SECONDS
    span = t_end - t_start
    n = int(np.floor(span * GRID_RATE + 1e-9)) + 1 if span >= 0 else 0
    if n < WINDOW_SIZE:
        raise InsufficientDataError(
            f"{n} samples remain after trimming; need at least {WINDOW_SIZE}")

    grid = t_start + np.arange(n) / GRID_RATE
    right = np.searchsorted(t, grid)
    left = np.clip(right - 1, 0, t.size - 1)
    right = np.clip(right, 0, t.size - 1)
    pick_right = np.abs(t[right] - grid) < np.abs(t[left] - grid)
    nearest = np.where(pick_right, right, left)

    # strict half-period tolerance: a sample exactly 50 ms away does not count
    tol = 0.5 / GRID_RATE
    within = np.abs(t[nearest] - grid) < tol
    held = np.clip(np.searchsorted(t, grid, side="right") - 1, 0, t.size - 1)
    chosen = np.where(within, nearest, held)

    kw = {name: getattr(stream, name)[chosen] for name in SENSOR_FIELDS[1:]}
    return SensorStream(t=grid, **kw, gap_mask=~within)


def make_windows(stream: SensorStream) -> tuple[np.ndarray, np.ndarray]:
    """(starts, windows): each window's first sample, and the windows as one
    read-only (m, WINDOW_SIZE, 7) view of the channel matrix."""
    n = len(stream)
    if n < WINDOW_SIZE:
        raise InsufficientDataError(
            f"stream has {n} samples; one window needs {WINDOW_SIZE}")
    starts = np.arange(0, n - WINDOW_SIZE + 1, WINDOW_STRIDE)
    windows = sliding_window_view(stream.channel_matrix(), WINDOW_SIZE, axis=0)
    return starts, windows[::WINDOW_STRIDE].transpose(0, 2, 1)
