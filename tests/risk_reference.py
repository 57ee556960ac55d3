"""Full-frame references for the region maps in `cyclerisk.risk`.

This is the tiled raster form the package replaced: every builder lays the
pixel centers out as two full-frame `X`/`Y` grids and computes each edge,
band and distance per pixel, and a descriptor counts a footprint's pixels in
the raster. The package cuts each pixel row into runs instead (the lane
wedges by their edges, without a raster), and the property tests require
the same assignment, area, centroid and descriptor bytes. Keep it
independent of the package's helpers: only the layout constants and the
settings (`RiskConfig`) are shared.
"""

import math

import numpy as np

from cyclerisk.config import RiskConfig
from cyclerisk.risk import (COLOR_BASE, DEFAULT_CLASS_COEFFS, DEFAULT_PROXIMITY_RADII,
                            ROW_FALLOFF, SUBREGION_BANDS, SUBREGION_COLORS)


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


def descriptor(detections, assignment, criterion, cfg=RiskConfig()) -> np.ndarray:
    """The 25 bins of the default-coefficient descriptor, counting each
    footprint's pixels per sub-region in the raster."""
    h, w = assignment.shape
    cell = np.array([0.0] + [COLOR_BASE[c] * ROW_FALLOFF[b - 1] for c, b in
                             zip(SUBREGION_COLORS, SUBREGION_BANDS[criterion])])
    areas = np.bincount(assignment.ravel(), minlength=26)
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_area = np.where(areas > 0, 1.0 / areas, 0.0)
    values = np.zeros(25)
    for det in detections:
        coeff = DEFAULT_CLASS_COEFFS.get(det.label)
        if coeff is None:
            continue
        x, y, bw, bh = det.bbox
        fh = max(cfg.footprint_frac * bh, cfg.footprint_min_px)
        top = y + bh - fh
        x0, x1 = min(max(x, 0.0), w), min(max(x + bw, 0.0), w)
        y0, y1 = min(max(top, 0.0), h), min(max(top + fh, 0.0), h)
        c0, c1 = max(math.floor(x0), 0), min(math.ceil(x0 + max(x1 - x0, 0.0)), w)
        r0, r1 = max(math.floor(y0), 0), min(math.ceil(y0 + max(y1 - y0, 0.0)), h)
        if c0 >= c1 or r0 >= r1:
            continue
        counts = np.bincount(assignment[r0:r1, c0:c1].ravel(), minlength=26)
        values += coeff * det.score * (cell * counts.astype(np.float64) * inv_area)[1:]
    return values
