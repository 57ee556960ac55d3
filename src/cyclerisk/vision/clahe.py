"""Contrast-limited adaptive histogram equalization on a tile grid.

The frame is divided into a grid of tiles (`VisionConfig.clahe_grid`; the
leading tiles absorb any remainder so the grid always covers the frame). Each
tile gets a 256-bin histogram, clipped at `VisionConfig.clahe_clip` times the
tile's pixel count with the excess spread uniformly over all bins, and the
clipped cumulative distribution becomes the tile's tone mapping. Pixels are
remapped by bilinear interpolation between the mappings of the four nearest
tile centers, which removes visible tile seams.
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

    val = img.astype(np.intp)
    r0g = r0[:, None]
    r1g = r1[:, None]
    c0g = c0[None, :]
    c1g = c1[None, :]

    top = (1.0 - wx[None, :]) * luts[r0g, c0g, val] + wx[None, :] * luts[r0g, c1g, val]
    bot = (1.0 - wx[None, :]) * luts[r1g, c0g, val] + wx[None, :] * luts[r1g, c1g, val]
    out = (1.0 - wy[:, None]) * top + wy[:, None] * bot

    out = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return GrayFrame(out, index=frame.index)
