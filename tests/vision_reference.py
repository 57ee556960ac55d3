"""Reference implementations of the vision filters, corner refinement and
LK flow.

The filters are scipy.ndimage's: the Sobel gradient, the 5x5 box mean and
3x3 maximum of the corner score, and the Gaussian of the flow pyramid. The
corners and the flow are the straightforward per-peak and per-corner loops
the vectorized code in `cyclerisk.vision` replaced, and nothing here uses
the package's own helpers. The property tests require the package to
reproduce all of them byte for byte, except the flow: the tracker sums
inner products in another order, so it must match the flags and, wherever
the reference stops before the iteration cap, the flow to the flow rule's
1e-9 px (docs/formats.md).
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


def _sample(img, ox, oy, size):
    """img, padded with one zero row and column, bilinearly sampled on the
    size x size window whose first sample is at (ox, oy): one fraction for
    the whole window, interpolated along x on size+1 rows, then along y."""
    x0, y0 = int(np.floor(ox)), int(np.floor(oy))
    fx, fy = ox - x0, oy - y0
    block = img[y0:y0 + size + 1, x0:x0 + size + 1]
    rows = block[:, :-1] * (1 - fx) + block[:, 1:] * fx
    return rows[:-1] * (1 - fy) + rows[1:] * fy


def _track_one(prev, gx, gy, nxt, point, guess, half):
    """(vector, tracked, exit reason) of one corner at one level; the images
    carry the zero row and column _sample reads."""
    h, w = prev.shape[0] - 1, prev.shape[1] - 1
    size = 2 * half + 1

    def inside(qx, qy):
        return 0 <= qx <= w - size and 0 <= qy <= h - size

    ox, oy = point[0] - half, point[1] - half
    if not inside(ox, oy):
        return guess, False, "border"
    i_win = _sample(prev, ox, oy, size)
    ix = _sample(gx, ox, oy, size)
    iy = _sample(gy, ox, oy, size)

    gxx = float((ix * ix).sum())
    gxy = float((ix * iy).sum())
    gyy = float((iy * iy).sum())
    trace = gxx + gyy
    det = gxx * gyy - gxy * gxy
    min_eig = (trace - np.sqrt(max(trace * trace - 4.0 * det, 0.0))) / 2.0
    if min_eig / size ** 2 < _MIN_EIG:
        return guess, False, "flat"

    v = guess.astype(np.float64).copy()
    for _ in range(_MAX_ITERS):
        qx, qy = ox + v[0], oy + v[1]
        if not inside(qx, qy):
            return v, False, "left"
        diff = i_win - _sample(nxt, qx, qy, size)
        bx = float((ix * diff).sum())
        by = float((iy * diff).sum())
        dx = (gyy * bx - gxy * by) / det
        dy = (gxx * by - gxy * bx) / det
        v[0] += dx
        v[1] += dy
        if dx * dx + dy * dy < _CONVERGENCE * _CONVERGENCE:
            return v, True, "converged"
    return v, True, "cap"


def reference_flow(prev, nxt, points, window=35, pyramid_levels=1):
    """(vectors, tracked, reasons) as lk_flow computes them, one corner at a
    time. A reason is how the last level stopped: "border", "flat", "left",
    "converged", or "cap" when any level ran out of iterations."""
    half = window // 2
    prevs = [prev.data.astype(np.float64)]
    nxts = [nxt.data.astype(np.float64)]
    for _ in range(pyramid_levels - 1):
        if min(prevs[-1].shape) < 2 * window:
            break
        prevs.append(reference_downsample(prevs[-1]))
        nxts.append(reference_downsample(nxts[-1]))
    grads = [reference_gradient(img) for img in prevs]
    levels = [[np.pad(img, ((0, 1), (0, 1))) for img in (p, *g, q)]
              for p, g, q in zip(prevs, grads, nxts)]

    n = points.shape[0]
    vectors = np.zeros((n, 2), dtype=np.float64)
    tracked = np.zeros(n, dtype=bool)
    reasons = np.empty(n, dtype=object)
    for i in range(n):
        pt = points[i]
        v = np.zeros(2)
        capped = False
        for level in range(len(prevs) - 1, -1, -1):
            scale = 2.0 ** level
            v, ok, reason = _track_one(*levels[level], pt / scale, v, half)
            capped |= reason == "cap"
            if level > 0:
                v = v * 2.0
            if not ok and level > 0:
                v = np.zeros(2)
        vectors[i] = v
        tracked[i] = ok
        reasons[i] = "cap" if capped else reason
    return vectors, tracked, reasons
