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

The box means, the score and the 3x3 maximum write into arrays they already
hold (`out=`, `+=`, `/=`). Every in-place step keeps the operands and the
order of the oracles in tests/vision_reference.py, bit for bit.
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
    That is the oracle's order (tests/vision_reference.py), bit for bit.

    Each axis holds two arrays at a time: the input extended by its edge
    values, and the differences, summed in place; the axis-0 means land in
    the middle of axis 1's extended copy."""
    h, w = a.shape
    ext = np.empty((h + 4, w))
    ext[2:-2] = a
    ext[:2] = a[:1]
    ext[-2:] = a[-1:]
    run = np.empty_like(ext)
    run[:5] = ext[:5]
    np.subtract(ext[5:], ext[:-5], out=run[5:])
    del ext
    np.cumsum(run, axis=0, out=run)
    ext = np.empty((h, w + 4))
    np.divide(run[4:], 5.0, out=ext[:, 2:-2])
    del run
    ext[:, :2] = ext[:, 2:3]
    ext[:, -2:] = ext[:, -3:-2]
    run = np.empty_like(ext)
    run[:, :5] = ext[:, :5]
    np.subtract(ext[:, 5:], ext[:, :-5], out=run[:, 5:])
    np.cumsum(run, axis=1, out=ext)
    del run
    out = ext[:, 4:]
    out /= 5.0
    return out


def _local_max(a: np.ndarray) -> np.ndarray:
    """3x3 maximum with the edge values repeated."""
    p = np.pad(a, 1, mode="edge")
    m = np.maximum(p[:-2], p[1:-1])
    np.maximum(m, p[2:], out=m)
    del p
    out = np.maximum(m[:, :-2], m[:, 1:-1])
    return np.maximum(out, m[:, 2:], out=out)


def min_eigen_response(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Per-pixel smaller eigenvalue of the 5x5-summed structure tensor of
    the gradient (gx, gy): (sxx + syy - sqrt((sxx - syy)**2 + 4 sxy sxy)) / 2.
    Each step runs in place in an array it no longer needs, with the
    oracle's operands in the oracle's order, and sxy is made last."""
    sxx = _box_mean(gx * gx)
    syy = _box_mean(gy * gy)
    out = sxx + syy
    sxx -= syy
    del syy
    np.square(sxx, out=sxx)
    sxy = _box_mean(gx * gy)
    cross = np.multiply(4.0, sxy)
    cross *= sxy
    del sxy
    sxx += cross
    del cross
    np.sqrt(sxx, out=sxx)
    out -= sxx
    out /= 2.0
    return out


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
    inner = (slice(_BORDER, h - _BORDER), slice(_BORDER, w - _BORDER))
    best = (float(score[inner].max()) if h > 2 * _BORDER and w > 2 * _BORDER
            else 0.0)
    if best <= 0.0:
        return CornerSet(np.empty((0, 2)), np.empty(0))

    keep = score[inner] == _local_max(score)[inner]
    keep &= score[inner] >= cfg.corner_quality * best
    ys, xs = np.nonzero(keep)
    if ys.size == 0:
        return CornerSet(np.empty((0, 2)), np.empty(0))
    ys += _BORDER
    xs += _BORDER

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
