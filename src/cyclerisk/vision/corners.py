"""Minimum-eigenvalue corner detection with per-cell capping.

Scores follow the small-eigenvalue criterion on the 2x2 structure tensor,
built from 3x3 Sobel gradients summed over a 5x5 box. Keeping at most
max_per_cell corners per grid cell spreads detections across the frame instead
of letting one textured area take every slot.

All local maxima are refined at once by a parabola through their 3x3
neighbourhood. The cap ranks each corner within its cell in the global
(score descending, y, x) order and keeps ranks below max_per_cell, which
selects exactly what taking corners one by one in that order would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ..errors import InvalidInputError
from .frames import GrayFrame

# Sobel support (1) plus box-sum reach (2): scores this close to the frame
# edge mix in padding, so they are never reported.
_BORDER = 4
_SUM_SIZE = 5
_NMS_SIZE = 3


@dataclass
class CornerSet:
    """Detected corners for one frame: (x, y) subpixel points plus scores."""

    points: np.ndarray  # (n, 2) float64, x then y
    response: np.ndarray  # (n,) float64 min-eigenvalue score
    frame_index: int = 0

    def __len__(self) -> int:
        return int(self.points.shape[0])


def min_eigen_response(img: np.ndarray) -> np.ndarray:
    """Per-pixel smaller eigenvalue of the 5x5-summed structure tensor."""
    f = img.astype(np.float64)
    gx = ndimage.sobel(f, axis=1, mode="nearest") / 8.0
    gy = ndimage.sobel(f, axis=0, mode="nearest") / 8.0
    sxx = ndimage.uniform_filter(gx * gx, size=_SUM_SIZE, mode="nearest")
    sxy = ndimage.uniform_filter(gx * gy, size=_SUM_SIZE, mode="nearest")
    syy = ndimage.uniform_filter(gy * gy, size=_SUM_SIZE, mode="nearest")
    trace = sxx + syy
    root = np.sqrt((sxx - syy) ** 2 + 4.0 * sxy * sxy)
    return (trace - root) / 2.0


def _subpixel_offsets(score: np.ndarray, ys: np.ndarray,
                      xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parabolic peak refinement from the 3x3 neighbourhood of each peak.

    Per axis, the offset is 0.5 * (a - c) / (a - 2b + c), clamped to +-0.5,
    or 0 where the curvature is not negative (not a local max along it).
    """
    def axis_offset(a, b, c):
        denom = a - 2.0 * b + c
        with np.errstate(divide="ignore", invalid="ignore"):
            off = np.clip(0.5 * (a - c) / denom, -0.5, 0.5)
        return np.where(denom >= 0.0, 0.0, off)

    mid = score[ys, xs]
    dy = axis_offset(score[ys - 1, xs], mid, score[ys + 1, xs])
    dx = axis_offset(score[ys, xs - 1], mid, score[ys, xs + 1])
    return dx, dy


def detect_corners(
    frame: GrayFrame,
    max_per_cell: int = 8,
    grid: tuple[int, int] = (4, 4),
    quality: float = 0.01,
) -> CornerSet:
    """Find corners, strongest first, capped per grid cell.

    quality is the fraction of the global best score a local maximum must
    reach to survive. Returned coordinates are subpixel and always strictly
    inside the frame. An untextured frame yields an empty set.
    """
    if max_per_cell < 1:
        raise InvalidInputError(f"max_per_cell must be >= 1, got {max_per_cell}")
    if not 0.0 < quality <= 1.0:
        raise InvalidInputError(f"quality must be in (0, 1], got {quality}")
    rows, cols = grid
    if rows < 1 or cols < 1:
        raise InvalidInputError(f"corner grid must be positive, got {grid}")

    score = min_eigen_response(frame.data)
    h, w = score.shape

    interior = np.zeros_like(score, dtype=bool)
    if h > 2 * _BORDER and w > 2 * _BORDER:
        interior[_BORDER:h - _BORDER, _BORDER:w - _BORDER] = True

    best = float(score[interior].max()) if interior.any() else 0.0
    if best <= 0.0:
        return CornerSet(np.empty((0, 2)), np.empty(0), frame_index=frame.index)

    local_max = score == ndimage.maximum_filter(score, size=_NMS_SIZE, mode="nearest")
    keep = local_max & interior & (score >= quality * best)
    ys, xs = np.nonzero(keep)
    if ys.size == 0:
        return CornerSet(np.empty((0, 2)), np.empty(0), frame_index=frame.index)

    vals = score[ys, xs]
    dx, dy = _subpixel_offsets(score, ys, xs)
    refined = np.stack((xs + dx, ys + dy), axis=1)

    # Cell membership comes from the refined position so the per-cell cap
    # holds for the coordinates callers actually see.
    cell_h = -(-h // rows)  # ceil division so edge cells absorb the remainder
    cell_w = -(-w // cols)
    cells = ((refined[:, 1].astype(np.intp) // cell_h) * cols
             + refined[:, 0].astype(np.intp) // cell_w)

    # Deterministic order: score descending, then y, then x. A corner is
    # kept when fewer than max_per_cell corners of its cell precede it.
    order = np.lexsort((xs, ys, -vals))
    by_cell = np.lexsort((xs, ys, -vals, cells))
    sorted_cells = cells[by_cell]
    rank = np.empty(ys.size, dtype=np.intp)
    rank[by_cell] = np.arange(ys.size) - np.searchsorted(sorted_cells, sorted_cells)
    chosen = order[rank[order] < max_per_cell]

    return CornerSet(refined[chosen], vals[chosen], frame_index=frame.index)
