"""Contrast-limited adaptive histogram equalization on a tile grid.

The frame is divided into a grid of tiles (`VisionConfig.clahe_grid`; the
leading tiles absorb any remainder so the grid always covers the frame). Each
tile gets a 256-bin histogram, clipped at `VisionConfig.clahe_clip` times the
tile's pixel count with the excess spread uniformly over all bins, and the
clipped cumulative distribution becomes the tile's tone mapping. Pixels are
remapped by bilinear interpolation between the mappings of the four nearest
tile centers, which removes visible tile seams.

The blend gathers each corner's curve from the flat tables and then scales
and sums it in place. Every in-place step keeps the operands and the order
of `reference_clahe` in tests/vision_reference.py, so each rounding, and
each output byte, is the reference's.
"""

from __future__ import annotations

import numpy as np

from ..config import VisionConfig
from ..errors import InvalidInputError
from .frames import GrayFrame


def _tile_edges(extent: int, tiles: int) -> np.ndarray:
    """Tile boundary positions covering [0, extent] as evenly as possible."""
    base = extent // tiles
    rem = extent % tiles
    sizes = np.full(tiles, base, dtype=np.int64)
    sizes[:rem] += 1  # spread the remainder over the leading tiles
    return np.concatenate(([0], np.cumsum(sizes)))


def _tile_mapping(tile: np.ndarray, clip_limit: float) -> np.ndarray:
    """256-entry tone curve for one tile: clip, redistribute, scale the cdf.

    A tile with a single occupied bin has no contrast to stretch; it keeps the
    identity curve so featureless input passes through unchanged.
    """
    hist = np.bincount(tile.ravel(), minlength=256).astype(np.float64)
    if np.count_nonzero(hist) <= 1:
        return np.arange(256, dtype=np.float64)
    npix = tile.size
    clip_at = clip_limit * npix
    excess = np.maximum(hist - clip_at, 0.0).sum()
    hist = np.minimum(hist, clip_at)
    hist += excess / 256.0
    cdf = np.cumsum(hist)
    return cdf * (255.0 / npix)


def _blend(a: np.ndarray, wa: np.ndarray, b: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """wa * a + wb * b, computed in a (which it returns) and b: a product
    and a sum commute exactly, so this is the oracle's blend bit for bit."""
    a *= wa
    b *= wb
    a += b
    return a


def clahe(frame: GrayFrame, cfg: VisionConfig = VisionConfig()) -> GrayFrame:
    """Equalize a frame tile-by-tile with a histogram clip.

    The tile grid is cfg.clahe_grid, (rows, cols), and must fit the frame.
    The remapped frame keeps the source index.
    """
    rows, cols = cfg.clahe_grid
    img = frame.data
    h, w = img.shape
    if rows > h or cols > w:
        raise InvalidInputError(f"grid {cfg.clahe_grid} exceeds frame size {h}x{w}")

    y_edges = _tile_edges(h, rows)
    x_edges = _tile_edges(w, cols)

    luts = np.empty((rows, cols, 256), dtype=np.float64)
    for r in range(rows):
        for c in range(cols):
            tile = img[y_edges[r]:y_edges[r + 1], x_edges[c]:x_edges[c + 1]]
            luts[r, c] = _tile_mapping(tile, cfg.clahe_clip)

    # Blend between the four surrounding tile centers. Pixels outside the
    # outermost centers clamp to the edge tile's mapping.
    yc = (y_edges[:-1] + y_edges[1:]) / 2.0 - 0.5
    xc = (x_edges[:-1] + x_edges[1:]) / 2.0 - 0.5

    ys = np.arange(h, dtype=np.float64)
    xs = np.arange(w, dtype=np.float64)

    r0 = np.clip(np.searchsorted(yc, ys, side="right") - 1, 0, rows - 1)
    c0 = np.clip(np.searchsorted(xc, xs, side="right") - 1, 0, cols - 1)
    r1 = np.minimum(r0 + 1, rows - 1)
    c1 = np.minimum(c0 + 1, cols - 1)

    with np.errstate(divide="ignore", invalid="ignore"):
        wy = np.where(r1 > r0, (ys - yc[r0]) / (yc[r1] - yc[r0]), 0.0)
        wx = np.where(c1 > c0, (xs - xc[c0]) / (xc[c1] - xc[c0]), 0.0)
    wy = np.clip(wy, 0.0, 1.0)
    wx = np.clip(wx, 0.0, 1.0)

    # Each corner's mapping, gathered from the flat tables at
    # (r * cols + c) * 256 + value; the index steps from corner to corner.
    lut = luts.ravel()
    at = img.astype(np.intp)
    at += (256 * cols) * r0[:, None]
    at += 256 * c0
    step_c, step_r = 256 * (c1 - c0), (256 * cols) * (r1 - r0)[:, None]
    top_left = lut[at]
    at += step_c
    top_right = lut[at]
    at += step_r
    bottom_right = lut[at]
    at -= step_c
    bot = _blend(lut[at], 1.0 - wx, bottom_right, wx)
    top = _blend(top_left, 1.0 - wx, top_right, wx)
    out = _blend(top, 1.0 - wy[:, None], bot, wy[:, None])
    np.rint(out, out=out)
    np.clip(out, 0, 255, out=out)
    return GrayFrame(out.astype(np.uint8), index=frame.index)
