"""Sparse optical flow: iterative Lucas-Kanade with an optional pyramid.

Each corner is tracked on its own terms, but the tracker works on a block of
corners at a time (Bouguet, "Pyramidal Implementation of the Lucas Kanade
Feature Tracker", 2001). The spatial gradient and its 2x2 normal matrix come
from the earlier frame and stay fixed while the update iterations re-sample
the later frame at the moving position; each corner leaves the block's
working set when it converges or is rejected. A point is reported as
untracked when it is too close to the border for its window, when its normal
matrix is near singular (no texture to lock onto) or when the window leaves
the frame. One that runs out of iterations inside the frame counts as
tracked. A coarse level that loses a point restarts the finer level from zero.

Blocks bound memory (see _BLOCK). Every product and sum is evaluated in the
same order as a one-corner-at-a-time loop, so the flow is bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from ..errors import InvalidInputError
from .corners import CornerSet
from .frames import GrayFrame

# Minimum normalized eigenvalue of the gradient normal matrix for a point to
# count as trackable (intensities in 0..255).
_MIN_EIG = 1e-3
_MAX_ITERS = 20
_CONVERGENCE = 0.01  # pixels
# Corners tracked together. A block's (n, window, window) working arrays are
# a few hundred kB. Tracking all 128 corners of a 240x180 frame in one block
# made a ride analysis no faster and took its peak memory from 71 to 77 MB.
_BLOCK = 32


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


def _bilinear(img: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample img on n square grids at once.

    img carries one zero row and column past the frame (see _pad). xs and ys
    are (n, W) float coordinates inside the frame; row r, column c of window i
    samples (xs[i, c], ys[i, r]). Returns (n, W, W). Floor and the fractional
    weights work on the (n, W) vectors, and each window reads one (W+1, W+1)
    block of img. On the last row or column the weight of the zero padding is
    0, which gives the value of clamping the taps to the frame.
    """
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    fx = (xs - x0)[:, None, :]
    fy = (ys - y0)[:, :, None]
    size = xs.shape[1]
    blocks = sliding_window_view(img, (size + 1, size + 1))[y0[:, 0], x0[:, 0]]
    p00, p01 = blocks[:, :-1, :-1], blocks[:, :-1, 1:]
    p10, p11 = blocks[:, 1:, :-1], blocks[:, 1:, 1:]
    # p00*(1-fx)*(1-fy) + p01*fx*(1-fy) + p10*(1-fx)*fy + p11*fx*fy, in place,
    # with the same products and left-to-right sums
    cx, cy = 1 - fx, 1 - fy
    out = p00 * cx
    out *= cy
    term = p01 * fx
    term *= cy
    out += term
    np.multiply(p10, cx, out=term)
    term *= fy
    out += term
    np.multiply(p11, fx, out=term)
    term *= fy
    out += term
    return out


def _pad(img: np.ndarray) -> np.ndarray:
    """img with one zero row and column appended, so that every bilinear tap
    of an in-frame coordinate has a right and a lower neighbour."""
    return np.pad(img, ((0, 1), (0, 1)))


def _downsample(img: np.ndarray) -> np.ndarray:
    blurred = ndimage.gaussian_filter(img, sigma=1.0, mode="nearest")
    return np.ascontiguousarray(blurred[::2, ::2])


def _track_level(
    prev: np.ndarray,
    gx: np.ndarray,
    gy: np.ndarray,
    nxt: np.ndarray,
    points: np.ndarray,
    guess: np.ndarray,
    half: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Refine the displacements of a block of points at one pyramid level.

    Returns (vectors, tracked). A point that is rejected before iterating
    keeps its guess; one whose window leaves the frame keeps the estimate
    from before that step.
    """
    h, w = prev.shape[0] - 1, prev.shape[1] - 1  # the frame, without the padding
    v = guess.copy()
    ok = np.zeros(len(points), dtype=bool)
    px, py = points[:, 0], points[:, 1]

    idx = np.flatnonzero(~((px < half) | (py < half)
                           | (px > w - 1 - half) | (py > h - 1 - half)))
    if idx.size == 0:
        return v, ok  # no window fits, or the frame is smaller than one
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    wx = px[idx, None] + offsets
    wy = py[idx, None] + offsets

    i_win = _bilinear(prev, wx, wy)
    ix = _bilinear(gx, wx, wy)
    iy = _bilinear(gy, wx, wy)

    gxx = (ix * ix).sum(axis=(1, 2))
    gxy = (ix * iy).sum(axis=(1, 2))
    gyy = (iy * iy).sum(axis=(1, 2))
    trace = gxx + gyy
    det = gxx * gyy - gxy * gxy
    min_eig = (trace - np.sqrt(np.maximum(trace * trace - 4.0 * det, 0.0))) / 2.0
    npix = (2 * half + 1) ** 2
    keep = ~(min_eig / npix < _MIN_EIG)

    vv = v[idx]
    for _ in range(_MAX_ITERS):
        qx = wx + vv[:, :1]
        qy = wy + vv[:, 1:]
        inside = ~((qx.min(axis=1) < 0) | (qy.min(axis=1) < 0)
                   | (qx.max(axis=1) > w - 1) | (qy.max(axis=1) > h - 1))
        left = keep & ~inside
        v[idx[left]] = vv[left]  # left the frame: untracked
        keep &= inside
        if not keep.all():
            idx, vv, qx, qy, wx, wy, i_win, ix, iy, gxx, gxy, gyy, det = (
                a[keep] for a in (idx, vv, qx, qy, wx, wy, i_win, ix, iy,
                                  gxx, gxy, gyy, det))
            if idx.size == 0:
                return v, ok
        diff = i_win - _bilinear(nxt, qx, qy)
        bx = (ix * diff).sum(axis=(1, 2))
        by = (iy * diff).sum(axis=(1, 2))
        dx = (gyy * bx - gxy * by) / det
        dy = (gxx * by - gxy * bx) / det
        vv[:, 0] += dx
        vv[:, 1] += dy
        converged = dx * dx + dy * dy < _CONVERGENCE * _CONVERGENCE
        v[idx[converged]] = vv[converged]
        ok[idx[converged]] = True
        keep = ~converged
    # ran out of iterations but stayed in frame
    v[idx[keep]] = vv[keep]
    ok[idx[keep]] = True
    return v, ok


def lk_flow(
    prev: GrayFrame,
    nxt: GrayFrame,
    corners: CornerSet,
    window: int = 35,
    pyramid_levels: int = 1,
) -> FlowField:
    """Track corners from prev to nxt.

    window is the odd side length of the matching window; pyramid_levels >= 1,
    where 1 means tracking at full resolution only. Untracked entries keep the
    last displacement estimate but are flagged false.
    """
    if window < 3 or window % 2 == 0:
        raise InvalidInputError(f"window must be odd and >= 3, got {window}")
    if pyramid_levels < 1:
        raise InvalidInputError(f"pyramid_levels must be >= 1, got {pyramid_levels}")
    if prev.data.shape != nxt.data.shape:
        raise InvalidInputError("frame sizes differ")

    half = window // 2

    prevs = [prev.as_float()]
    nxts = [nxt.as_float()]
    for _ in range(pyramid_levels - 1):
        if min(prevs[-1].shape) < 2 * window:
            break  # stop the pyramid before windows outgrow the image
        prevs.append(_downsample(prevs[-1]))
        nxts.append(_downsample(nxts[-1]))

    grads = []
    for level_img in prevs:
        grads.append((_pad(ndimage.sobel(level_img, axis=1, mode="nearest") / 8.0),
                      _pad(ndimage.sobel(level_img, axis=0, mode="nearest") / 8.0)))
    prevs = [_pad(img) for img in prevs]
    nxts = [_pad(img) for img in nxts]

    n = len(corners)
    vectors = np.zeros((n, 2), dtype=np.float64)
    tracked = np.zeros(n, dtype=bool)

    for start in range(0, n, _BLOCK):
        points = corners.points[start:start + _BLOCK]
        v = np.zeros((len(points), 2))
        for level in range(len(prevs) - 1, -1, -1):
            gx, gy = grads[level]
            v, ok = _track_level(prevs[level], gx, gy, nxts[level],
                                 points / 2.0 ** level, v, half)
            if level > 0:
                v = v * 2.0
                v[~ok] = 0.0  # restart the finer level from scratch
        vectors[start:start + _BLOCK] = v
        tracked[start:start + _BLOCK] = ok

    return FlowField(points=corners.points.copy(), vectors=vectors,
                     tracked=tracked)


__all__ = ["FlowField", "lk_flow"]
