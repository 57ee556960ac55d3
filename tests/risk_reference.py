"""Full-frame references for the region-map rasters in `cyclerisk.risk`.

This is the tiled form the package replaced: every builder lays the pixel
centers out as two full-frame `X`/`Y` grids and computes each edge, band and
distance per pixel. The package broadcasts a pixel row against a pixel
column instead, and the property tests require the same assignment and
centroid bytes. Keep it independent of the package's helpers: only the
layout constants are shared.
"""

import numpy as np

from cyclerisk.risk import DEFAULT_PROXIMITY_RADII


def _grids(w, h):
    xs = np.arange(w, dtype=np.float64) + 0.5
    ys = np.arange(h, dtype=np.float64) + 0.5
    return np.tile(xs, (h, 1)), np.tile(ys[:, None], (1, w))


def lane_assignment(foe, dims) -> np.ndarray:
    """(h, w) sub-region ids of the lane wedges around a focus."""
    w, h = dims
    fx = float(np.clip(np.asarray(foe, dtype=np.float64)[0], 0.0, w - 1.0))
    fy = float(np.clip(np.asarray(foe, dtype=np.float64)[1], 0.0, h - 1.0))
    X, Y = _grids(w, h)

    s = (Y - fy) / (h - fy)
    below = s > 0.0

    def edge(bottom_x):
        return fx + s * (bottom_x - fx)

    red_l, red_r = edge(0.30 * w), edge(0.70 * w)
    yel_l, yel_r = edge(0.10 * w), edge(0.90 * w)

    in_red = below & (X >= red_l) & (X <= red_r)
    in_yl = below & ~in_red & (X >= yel_l) & (X < red_l)
    in_yr = below & ~in_red & (X > red_r) & (X <= yel_r)
    left = X < fx
    region_idx = np.where(
        in_red, 0, np.where(in_yl, 1, np.where(in_yr, 2, np.where(left, 3, 4))))

    band = np.ceil(np.clip(s, 0.0, 1.0) * 5.0).astype(np.int64)
    row_from_bottom = np.where(below, 6 - np.clip(band, 1, 5), 5)
    return (region_idx * 5 + row_from_bottom).astype(np.int16)


def proximity_assignment(dims) -> np.ndarray:
    """(h, w) sub-region ids of the annuli around the bottom-center."""
    w, h = dims
    X, Y = _grids(w, h)
    dx = X - w / 2.0
    dy = h - Y
    dist = np.hypot(dx, dy)
    bounds = np.asarray(DEFAULT_PROXIMITY_RADII, dtype=np.float64) * h
    annulus = np.searchsorted(bounds, dist, side="left") + 1
    theta = np.arctan2(dy, dx)
    sector = 5 - np.clip(np.floor(theta / (np.pi / 5.0)).astype(np.int64), 0, 4)
    return ((annulus - 1) * 5 + sector).astype(np.int16)


def centroids(assignment) -> np.ndarray:
    """(26, 2) mean pixel-center position per sub-region id; NaN if empty."""
    h, w = assignment.shape
    X, Y = _grids(w, h)
    flat = np.asarray(assignment).ravel()
    areas = np.bincount(flat, minlength=26)
    sx = np.bincount(flat, weights=X.ravel(), minlength=26)
    sy = np.bincount(flat, weights=Y.ravel(), minlength=26)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.column_stack((sx, sy)) / areas[:, None]
