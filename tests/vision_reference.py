"""Reference implementations of the vision filters, corner refinement and
LK flow.

The filters are scipy.ndimage's: the Sobel gradient, the 5x5 box mean and
3x3 maximum of the corner score, and the Gaussian of the flow pyramid. The
corners and the flow are the straightforward per-peak and per-corner loops
the vectorized code in `cyclerisk.vision` replaced. The property tests
require the package to reproduce all of them byte for byte, so nothing here
uses the package's own helpers.
"""

import numpy as np
from scipy import ndimage

_BORDER = 4
_MIN_EIG = 1e-3
_MAX_ITERS = 20
_CONVERGENCE = 0.01


def reference_gradient(img):
    """(gx, gy): Sobel derivatives of img as float64, divided by 8."""
    f = np.asarray(img, dtype=np.float64)
    return (ndimage.sobel(f, axis=1, mode="nearest") / 8.0,
            ndimage.sobel(f, axis=0, mode="nearest") / 8.0)


def reference_box_mean(a):
    return ndimage.uniform_filter(a, size=5, mode="nearest")


def reference_local_max(a):
    return ndimage.maximum_filter(a, size=3, mode="nearest")


def reference_score(img):
    """Smaller eigenvalue of the 5x5-averaged structure tensor of img."""
    gx, gy = reference_gradient(img)
    sxx = reference_box_mean(gx * gx)
    sxy = reference_box_mean(gx * gy)
    syy = reference_box_mean(gy * gy)
    trace = sxx + syy
    root = np.sqrt((sxx - syy) ** 2 + 4.0 * sxy * sxy)
    return (trace - root) / 2.0


def reference_downsample(img):
    """Every second row and column of img after a sigma-1 Gaussian blur."""
    blurred = ndimage.gaussian_filter(img, sigma=1.0, mode="nearest")
    return np.ascontiguousarray(blurred[::2, ::2])


def _subpixel_offset(patch):
    """Parabolic peak refinement from a 3x3 score patch, clamped to +-0.5."""
    def axis_offset(a, b, c):
        denom = a - 2.0 * b + c
        if denom >= 0.0:
            return 0.0
        return float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))

    dy = axis_offset(patch[0, 1], patch[1, 1], patch[2, 1])
    dx = axis_offset(patch[1, 0], patch[1, 1], patch[1, 2])
    return dx, dy


def reference_corners(data, max_per_cell=8, grid=(4, 4), quality=0.01):
    """(points, response) as detect_corners computed them one peak at a time."""
    score = reference_score(data)
    h, w = score.shape
    rows, cols = grid
    interior = np.zeros_like(score, dtype=bool)
    if h > 2 * _BORDER and w > 2 * _BORDER:
        interior[_BORDER:h - _BORDER, _BORDER:w - _BORDER] = True
    best = float(score[interior].max()) if interior.any() else 0.0
    if best <= 0.0:
        return np.empty((0, 2)), np.empty(0)
    local_max = score == reference_local_max(score)
    keep = local_max & interior & (score >= quality * best)
    ys, xs = np.nonzero(keep)
    if ys.size == 0:
        return np.empty((0, 2)), np.empty(0)

    vals = score[ys, xs]
    refined = np.empty((ys.size, 2), dtype=np.float64)
    for i in range(ys.size):
        y, x = int(ys[i]), int(xs[i])
        dx, dy = _subpixel_offset(score[y - 1:y + 2, x - 1:x + 2])
        refined[i] = (x + dx, y + dy)

    cell_h = -(-h // rows)
    cell_w = -(-w // cols)
    cells = ((refined[:, 1].astype(np.intp) // cell_h) * cols
             + refined[:, 0].astype(np.intp) // cell_w)
    order = np.lexsort((xs, ys, -vals))
    chosen = []
    taken = np.zeros(rows * cols, dtype=np.int64)
    for idx in order:
        cell = cells[idx]
        if taken[cell] < max_per_cell:
            taken[cell] += 1
            chosen.append(int(idx))
    pts = refined[chosen].reshape(-1, 2)
    resp = vals[np.asarray(chosen, dtype=np.intp)] if chosen else np.empty(0)
    return pts, resp


def _bilinear(img, xs, ys):
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.clip(x0, 0, img.shape[1] - 2)
    y0 = np.clip(y0, 0, img.shape[0] - 2)
    fx = xs - x0
    fy = ys - y0
    p00 = img[y0, x0]
    p01 = img[y0, x0 + 1]
    p10 = img[y0 + 1, x0]
    p11 = img[y0 + 1, x0 + 1]
    return (p00 * (1 - fx) * (1 - fy) + p01 * fx * (1 - fy)
            + p10 * (1 - fx) * fy + p11 * fx * fy)


def _track_one(prev, gx, gy, nxt, point, guess, half):
    h, w = prev.shape
    px, py = point
    if px < half or py < half or px > w - 1 - half or py > h - 1 - half:
        return guess, False

    ox, oy = np.meshgrid(np.arange(-half, half + 1, dtype=np.float64),
                         np.arange(-half, half + 1, dtype=np.float64))
    wx = px + ox
    wy = py + oy
    i_win = _bilinear(prev, wx, wy)
    ix = _bilinear(gx, wx, wy)
    iy = _bilinear(gy, wx, wy)

    gxx = float((ix * ix).sum())
    gxy = float((ix * iy).sum())
    gyy = float((iy * iy).sum())
    trace = gxx + gyy
    det = gxx * gyy - gxy * gxy
    min_eig = (trace - np.sqrt(max(trace * trace - 4.0 * det, 0.0))) / 2.0
    npix = (2 * half + 1) ** 2
    if min_eig / npix < _MIN_EIG:
        return guess, False

    v = guess.astype(np.float64).copy()
    for _ in range(_MAX_ITERS):
        qx = wx + v[0]
        qy = wy + v[1]
        if (qx.min() < 0 or qy.min() < 0
                or qx.max() > w - 1 or qy.max() > h - 1):
            return v, False
        diff = i_win - _bilinear(nxt, qx, qy)
        bx = float((ix * diff).sum())
        by = float((iy * diff).sum())
        dx = (gyy * bx - gxy * by) / det
        dy = (gxx * by - gxy * bx) / det
        v[0] += dx
        v[1] += dy
        if dx * dx + dy * dy < _CONVERGENCE * _CONVERGENCE:
            return v, True
    return v, True


def reference_flow(prev, nxt, points, window=35, pyramid_levels=1):
    """(vectors, tracked) as lk_flow computed them one corner at a time."""
    half = window // 2
    prevs = [prev.data.astype(np.float64)]
    nxts = [nxt.data.astype(np.float64)]
    for _ in range(pyramid_levels - 1):
        if min(prevs[-1].shape) < 2 * window:
            break
        prevs.append(reference_downsample(prevs[-1]))
        nxts.append(reference_downsample(nxts[-1]))
    grads = [reference_gradient(img) for img in prevs]

    n = points.shape[0]
    vectors = np.zeros((n, 2), dtype=np.float64)
    tracked = np.zeros(n, dtype=bool)
    for i in range(n):
        pt = points[i]
        v = np.zeros(2)
        ok = False
        for level in range(len(prevs) - 1, -1, -1):
            scale = 2.0 ** level
            gx, gy = grads[level]
            v, ok = _track_one(prevs[level], gx, gy, nxts[level],
                               pt / scale, v, half)
            if level > 0:
                v = v * 2.0
            if not ok and level > 0:
                v = np.zeros(2)
        vectors[i] = v
        tracked[i] = ok
    return vectors, tracked
