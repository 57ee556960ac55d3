"""Sparse optical flow: iterative Lucas-Kanade with an optional pyramid.

Each corner is tracked on its own terms, a block of corners at a time
(Bouguet, "Pyramidal Implementation of the Lucas Kanade Feature Tracker",
2001). The gradient template and its 2x2 normal matrix come from the earlier
frame (at full resolution GrayFrame.gradient, which corner detection read)
and stay fixed, so each update needs only the template's inner products with
the later frame under the moving window (Baker & Matthews, "Lucas-Kanade 20
Years On", 2004): four integer-aligned sums a window (see _correlate), and
no window is resampled. A point is untracked when its window does not fit
the frame, when its normal matrix is near singular (no texture to lock onto)
or when the window leaves the frame; one that runs out of iterations inside
the frame counts as tracked. A coarse level that loses a point restarts the
finer level from zero. docs/formats.md gives the sampler and the rule the
flow keeps against the per-corner reference; a corner tracked in a block
gives the bytes it gives alone. The window's side and the pyramid depth are
`VisionConfig.lk_window` and `VisionConfig.lk_levels`.

Level 0 reads each frame's own zero-padded image and gradient
(GrayFrame.padded), so the frame that ends one pair and starts the next is
padded once. The sampler does its arithmetic in the block it gathered; each
in-place step keeps the operands and order of the plain expression, so the
bytes do not move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..config import VisionConfig
from ..errors import InvalidInputError
from .corners import CornerSet
from .frames import GrayFrame, sobel

# Minimum normalized eigenvalue of the gradient normal matrix for a point to
# count as trackable (intensities in 0..255).
_MIN_EIG = 1e-3
_MAX_ITERS = 20
_CONVERGENCE = 0.01  # pixels
# Corners tracked together. A block's (n, window, window) working arrays are
# a few hundred kB. Tracking all 128 corners of a 240x180 frame in one block
# made a ride analysis no faster and took its peak memory from 71 to 77 MB.
_BLOCK = 32
_TAPS = np.exp(-0.5 * np.arange(-4, 5) ** 2)
_TAPS = (_TAPS / _TAPS.sum())[4:]  # pyramid blur: sigma 1, cut at 4, centre first


@dataclass
class FlowField:
    """Per-corner displacement between two frames.

    points are the source (x, y) positions, vectors the displacements to the
    later frame, and tracked flags which entries converged.
    """

    points: np.ndarray  # (n, 2) float64
    vectors: np.ndarray  # (n, 2) float64
    tracked: np.ndarray  # (n,) bool

    def __len__(self) -> int:
        return int(self.points.shape[0])


def _blocks(tiles: np.ndarray, origin: np.ndarray):
    """(blocks, fractions) of n windows. tiles is the (size+1)-square sliding
    window view of an image with one zero row and column appended; origin
    (n, 2) is the (x, y) of each window's first sample; its floor picks the
    block."""
    corner = np.floor(origin).astype(np.intp)
    return tiles[corner[:, 1], corner[:, 0]], origin - corner


def _sample(tiles: np.ndarray, origin: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The image sampled bilinearly on n windows into out, (n, L) with row
    stride size+1 (see _correlate): along x on all size+1 rows of each block,
    then along y. Both passes run on the flat block, so each row's last x
    sample mixes in the next row; that entry is set to 0. A fraction 0 gives
    the zero row or column weight 0, so a window may end on the last one."""
    blocks, frac = _blocks(tiles, origin)
    side = blocks.shape[-1]
    flat = blocks.reshape(len(origin), -1)
    fx, fy = frac[:, :1], frac[:, 1:]
    # in the gathered block: rows = flat[:-1] * (1 - fx) + flat[1:] * fx,
    # then out = rows[:-side] * (1 - fy) + rows[side:] * fy, each sum taken
    # the other way round (a sum commutes exactly)
    right = flat[:, 1:] * fx
    rows = flat[:, :-1]
    rows *= 1 - fx
    rows += right
    np.multiply(rows[:, side:], fy, out=out)
    rows[:, :-side] *= 1 - fy
    out += rows[:, :-side]
    out[:, side - 1::side] = 0.0
    return out


def _correlate(tmpl: np.ndarray, tiles: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """(n, k) inner products of k templates a window with the image as
    _sample samples it: sum_ab c_ab * S_ab, with S_ab the inner product with
    the block's integer window at offset (b, a) and c_ab the bilinear
    weights. tmpl (n, k, L) has row stride size+1 (a zero after each row, the
    last one dropped), so each such window is one slice of the flat block.
    einsum, not BLAS: the sums do not depend on the thread count."""
    blocks, frac = _blocks(tiles, origin)
    n, _, length = tmpl.shape
    window, row, step = blocks.strides
    s = np.einsum("nkl,nabl->abnk", tmpl, np.ndarray(
        (n, 2, 2, length), buffer=blocks, strides=(window, row, step, step)))
    cx, fx, cy, fy = 1 - frac[:, :1], frac[:, :1], 1 - frac[:, 1:], frac[:, 1:]
    return (s[0, 0] * cx + s[0, 1] * fx) * cy + (s[1, 0] * cx + s[1, 1] * fx) * fy


def _downsample(img: np.ndarray) -> np.ndarray:
    """Every second row and column of img blurred by _TAPS, edges repeated:
    along axis 0, then axis 1, the centre tap, then the symmetric pairs from
    the outermost in. That is the oracle's order, bit for bit."""
    for axis in (0, 1):
        n = img.shape[axis]
        p = np.pad(np.moveaxis(img, axis, 0), ((4, 4), (0, 0)), mode="edge")
        img = _TAPS[0] * p[4:4 + n]
        for j in (4, 3, 2, 1):
            img += (p[4 + j:4 + j + n] + p[4 - j:4 - j + n]) * _TAPS[j]
        img = np.moveaxis(img, 0, axis)
    return np.ascontiguousarray(img[::2, ::2])


def _track_level(prev: np.ndarray, gx: np.ndarray, gy: np.ndarray,
                 nxt: np.ndarray, points: np.ndarray, guess: np.ndarray,
                 half: int) -> tuple[np.ndarray, np.ndarray]:
    """(vectors, tracked) of a block of points at one pyramid level, each
    window addressed by its origin, point - half; the images come as tiles
    (see _blocks). A point rejected before iterating keeps its guess; one
    whose window leaves the frame keeps the estimate from before that step."""
    size = 2 * half + 1
    last = np.array(prev.shape[1::-1]) - 1  # the last origin whose window fits
    v = guess.copy()
    ok = np.zeros(len(points), dtype=bool)

    def inside(q: np.ndarray) -> np.ndarray:
        return ((q >= 0) & (q <= last)).all(axis=1)

    origin = points - half
    idx = np.flatnonzero(inside(origin))
    if idx.size == 0:
        return v, ok
    origin = origin[idx]

    # the gradient templates, with row stride size + 1 (see _correlate)
    tmpl = np.empty((idx.size, 2, size * (size + 1) - 1))
    for k, g in enumerate((gx, gy)):
        _sample(g, origin, tmpl[:, k])
    normal = np.einsum("nkl,nml->nkm", tmpl, tmpl)
    gxx, gxy, gyy = normal[:, 0, 0], normal[:, 0, 1], normal[:, 1, 1]
    trace = gxx + gyy
    det = gxx * gyy - gxy * gxy
    min_eig = (trace - np.sqrt(np.maximum(trace * trace - 4.0 * det, 0.0))) / 2.0
    keep = ~(min_eig / size ** 2 < _MIN_EIG)
    # sum(g * I) over the earlier frame's window; each step subtracts sum(g * J)
    g_prev = _correlate(tmpl, prev, origin)

    vv = v[idx]
    for _ in range(_MAX_ITERS):
        q = origin + vv
        fits = inside(q)
        left = keep & ~fits
        v[idx[left]] = vv[left]  # left the frame: untracked
        keep &= fits
        if not keep.all():
            idx, vv, q, origin, tmpl, g_prev, gxx, gxy, gyy, det = (
                a[keep] for a in (idx, vv, q, origin, tmpl, g_prev,
                                  gxx, gxy, gyy, det))
            if idx.size == 0:
                return v, ok
        bx, by = (g_prev - _correlate(tmpl, nxt, q)).T
        dx = (gyy * bx - gxy * by) / det
        dy = (gxx * by - gxy * bx) / det
        vv += np.column_stack((dx, dy))
        converged = dx * dx + dy * dy < _CONVERGENCE * _CONVERGENCE
        v[idx[converged]] = vv[converged]
        ok[idx[converged]] = True
        keep = ~converged
    # ran out of iterations but stayed in frame
    v[idx[keep]] = vv[keep]
    ok[idx[keep]] = True
    return v, ok


def lk_flow(prev: GrayFrame, nxt: GrayFrame, corners: CornerSet,
            cfg: VisionConfig = VisionConfig()) -> FlowField:
    """Track corners from prev to nxt.

    cfg.lk_levels 1 means tracking at full resolution only. Untracked
    entries keep the last displacement estimate but are flagged false.
    """
    if prev.data.shape != nxt.data.shape:
        raise InvalidInputError("frame sizes differ")

    window = cfg.lk_window
    half = window // 2
    n = len(corners)
    vectors = np.zeros((n, 2), dtype=np.float64)
    tracked = np.zeros(n, dtype=bool)
    if min(prev.data.shape) < window:  # no window fits the frame
        return FlowField(corners.points.copy(), vectors, tracked)

    # level 0 is each frame's own zero-padded image and gradient (see
    # GrayFrame.padded); a pyramid level pads its own
    levels = [(prev.padded, *prev.padded_gradient, nxt.padded)]
    p, q = prev.pixels, nxt.pixels
    for _ in range(cfg.lk_levels - 1):
        if min(p.shape) < 2 * window:
            break  # stop the pyramid before windows outgrow the image
        p, q = _downsample(p), _downsample(q)
        levels.append([np.pad(a, ((0, 1), (0, 1))) for a in (p, *sobel(p), q)])
    side = (window + 1, window + 1)
    levels = [[sliding_window_view(a, side) for a in level] for level in levels]

    for start in range(0, n, _BLOCK):
        points = corners.points[start:start + _BLOCK]
        v = np.zeros((len(points), 2))
        for level in range(len(levels) - 1, -1, -1):
            v, ok = _track_level(*levels[level], points / 2.0 ** level, v, half)
            if level > 0:
                v = v * 2.0
                v[~ok] = 0.0  # restart the finer level from scratch
        vectors[start:start + _BLOCK] = v
        tracked[start:start + _BLOCK] = ok

    return FlowField(points=corners.points.copy(), vectors=vectors,
                     tracked=tracked)


__all__ = ["FlowField", "lk_flow"]
