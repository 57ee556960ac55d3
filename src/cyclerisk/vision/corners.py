"""Minimum-eigenvalue corner detection with per-cell capping.

Scores follow the small-eigenvalue criterion on the 2x2 structure tensor,
built from 3x3 Sobel gradients summed over a 5x5 box. Keeping at most
`VisionConfig.corner_max_per_cell` corners per cell of the
`VisionConfig.corner_grid` spreads detections across the frame instead of
letting one textured area take every slot.

All local maxima are refined at once by a parabola through their 3x3
neighbourhood. The cap ranks each corner within its cell in the global
(score descending, y, x) order and keeps ranks below the cap, which
selects exactly what taking corners one by one in that order would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import VisionConfig
from .frames import GrayFrame

# Sobel support (1) plus box-sum reach (2): scores this close to the frame
# edge mix in padding, so they are never reported.
_BORDER = 4


@dataclass
class CornerSet:
    """Detected corners for one frame: (x, y) subpixel points plus scores."""

    points: np.ndarray  # (n, 2) float64, x then y
    response: np.ndarray  # (n,) float64 min-eigenvalue score

    def __len__(self) -> int:
        return int(self.points.shape[0])


def _box_mean(a: np.ndarray) -> np.ndarray:
    """5x5 mean, edges repeated: along axis 0, then axis 1, the first
    window's sum, then a running sum of (entering - leaving) values, / 5.
    That is the oracle's order (tests/vision_reference.py), bit for bit."""
    for axis in (0, 1):
        p = np.pad(np.moveaxis(a, axis, 0), ((2, 2), (0, 0)), mode="edge")
        run = np.cumsum(np.concatenate((p[:5], p[5:] - p[:-5])), axis=0)
        a = np.moveaxis(run[4:] / 5.0, 0, axis)
    return a


def _local_max(a: np.ndarray) -> np.ndarray:
    """3x3 maximum with the edge values repeated."""
    p = np.pad(a, 1, mode="edge")
    m = np.maximum(np.maximum(p[:-2], p[1:-1]), p[2:])
    return np.maximum(np.maximum(m[:, :-2], m[:, 1:-1]), m[:, 2:])


def min_eigen_response(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Per-pixel smaller eigenvalue of the 5x5-summed structure tensor of
    the gradient (gx, gy)."""
    sxx = _box_mean(gx * gx)
    sxy = _box_mean(gx * gy)
    syy = _box_mean(gy * gy)
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


def detect_corners(frame: GrayFrame, cfg: VisionConfig = VisionConfig()) -> CornerSet:
    """Find corners, strongest first, capped per grid cell.

    cfg.corner_quality is the fraction of the global best score a local
    maximum must reach to survive. Returned coordinates are subpixel and
    always strictly inside the frame. An untextured frame yields an empty set.
    """
    score = min_eigen_response(*frame.gradient)
    h, w = score.shape

    interior = np.zeros_like(score, dtype=bool)
    if h > 2 * _BORDER and w > 2 * _BORDER:
        interior[_BORDER:h - _BORDER, _BORDER:w - _BORDER] = True

    best = float(score[interior].max()) if interior.any() else 0.0
    if best <= 0.0:
        return CornerSet(np.empty((0, 2)), np.empty(0))

    local_max = score == _local_max(score)
    keep = local_max & interior & (score >= cfg.corner_quality * best)
    ys, xs = np.nonzero(keep)
    if ys.size == 0:
        return CornerSet(np.empty((0, 2)), np.empty(0))

    vals = score[ys, xs]
    dx, dy = _subpixel_offsets(score, ys, xs)
    refined = np.stack((xs + dx, ys + dy), axis=1)

    # Cell membership comes from the refined position so the per-cell cap
    # holds for the coordinates callers actually see.
    rows, cols = cfg.corner_grid
    cell_h = -(-h // rows)  # ceil division so edge cells absorb the remainder
    cell_w = -(-w // cols)
    cells = ((refined[:, 1].astype(np.intp) // cell_h) * cols
             + refined[:, 0].astype(np.intp) // cell_w)

    # Deterministic order: score descending, then y, then x. A corner is
    # kept when fewer than corner_max_per_cell corners of its cell precede it.
    order = np.lexsort((xs, ys, -vals))
    by_cell = np.lexsort((xs, ys, -vals, cells))
    sorted_cells = cells[by_cell]
    rank = np.empty(ys.size, dtype=np.intp)
    rank[by_cell] = np.arange(ys.size) - np.searchsorted(sorted_cells, sorted_cells)
    chosen = order[rank[order] < cfg.corner_max_per_cell]

    return CornerSet(refined[chosen], vals[chosen])
