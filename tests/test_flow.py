import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from cyclerisk.config import VisionConfig
from cyclerisk.errors import ConfigError, InvalidInputError
from cyclerisk.vision import CornerSet, GrayFrame, detect_corners, lk_flow
from cyclerisk.vision.flow import _BLOCK, _downsample, _sample

from conftest import filter_images, smooth_texture
from vision_reference import reference_downsample, reference_flow


def _shifted_pair(seed, dx, dy, h=240, w=320):
    base = smooth_texture(h, w, seed=seed)
    moved = np.roll(np.roll(base, dy, axis=0), dx, axis=1)
    return GrayFrame(base), GrayFrame(moved)


def test_identity_pair_zero_flow(texture_frame):
    corners = detect_corners(texture_frame)
    flow = lk_flow(texture_frame, texture_frame, corners, VisionConfig(lk_window=35))
    assert flow.tracked.any()
    mags = np.linalg.norm(flow.vectors[flow.tracked], axis=1)
    assert mags.max() <= 0.05


@pytest.mark.parametrize("dx,dy", [(3, 2), (-2, 1), (1, -3)])
def test_integer_translation_recovered(dx, dy):
    prev, nxt = _shifted_pair(seed=21, dx=dx, dy=dy)
    corners = detect_corners(prev)
    margin = 35 // 2 + 4  # away from the rolled wrap strip
    inside = ((corners.points[:, 0] > margin)
              & (corners.points[:, 0] < 320 - 1 - margin)
              & (corners.points[:, 1] > margin)
              & (corners.points[:, 1] < 240 - 1 - margin))
    assert inside.sum() >= 10
    subset = CornerSet(corners.points[inside], corners.response[inside])
    flow = lk_flow(prev, nxt, subset, VisionConfig(lk_window=35))
    err = np.linalg.norm(flow.vectors - np.array([dx, dy]), axis=1)
    good = flow.tracked & (err <= 0.25)
    assert good.sum() / len(subset) >= 0.9


def test_flat_region_untracked(texture_frame):
    img = texture_frame.data.copy()
    img[100:140, 100:140] = 90  # paint a flat patch
    frame = GrayFrame(img)
    pts = CornerSet(np.array([[120.0, 120.0]]), np.array([1.0]))
    flow = lk_flow(frame, frame, pts, VisionConfig(lk_window=25))
    assert not flow.tracked[0]


def test_point_leaving_frame_untracked():
    prev, nxt = _shifted_pair(seed=23, dx=-6, dy=0)
    pts = CornerSet(np.array([[18.0, 120.0]]), np.array([1.0]))
    flow = lk_flow(prev, nxt, pts, VisionConfig(lk_window=35))
    assert not flow.tracked[0]


def test_point_too_close_to_border_untracked(texture_frame):
    pts = CornerSet(np.array([[5.0, 5.0]]), np.array([1.0]))
    flow = lk_flow(texture_frame, texture_frame, pts, VisionConfig(lk_window=35))
    assert not flow.tracked[0]


def test_pyramid_recovers_larger_shift():
    base = smooth_texture(360, 480, seed=27, sigma=6.0)
    moved = np.roll(base, 12, axis=1)
    prev, nxt = GrayFrame(base), GrayFrame(moved)
    corners = detect_corners(prev)
    margin = 35 // 2 + 14
    inside = ((corners.points[:, 0] > margin)
              & (corners.points[:, 0] < 480 - 1 - margin)
              & (corners.points[:, 1] > margin)
              & (corners.points[:, 1] < 360 - 1 - margin))
    subset = CornerSet(corners.points[inside], corners.response[inside])
    assert len(subset) >= 5
    flow = lk_flow(prev, nxt, subset, VisionConfig(lk_window=35, lk_levels=3))
    err = np.linalg.norm(flow.vectors - np.array([12, 0]), axis=1)
    good = flow.tracked & (err <= 0.5)
    assert good.sum() / len(subset) >= 0.8


def test_mismatched_sizes_rejected(texture_frame):
    other = GrayFrame(np.zeros((100, 100), dtype=np.uint8))
    pts = CornerSet(np.array([[50.0, 50.0]]), np.array([1.0]))
    with pytest.raises(InvalidInputError):
        lk_flow(texture_frame, other, pts)


@pytest.mark.parametrize("kwargs", [{"lk_window": 4}, {"lk_window": 1}, {"lk_levels": 0}])
def test_bad_parameters_rejected(texture_frame, kwargs):
    # the settings are the section's, which refuses them before the stage runs
    pts = CornerSet(np.array([[50.0, 50.0]]), np.array([1.0]))
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        lk_flow(texture_frame, texture_frame, pts, VisionConfig(**kwargs))


def test_deterministic(texture_frame):
    prev, nxt = _shifted_pair(seed=31, dx=2, dy=1)
    corners = detect_corners(prev)
    a = lk_flow(prev, nxt, corners)
    b = lk_flow(prev, nxt, corners)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.tracked, b.tracked)


def assert_flow_rule(flow, vectors, tracked, reasons):
    """The flow rule against reference_flow (docs/formats.md): identical
    tracked flags on every point, and the flow within 1e-9 px on every point
    whose levels never use up the iteration cap, times (1 + its largest
    displacement component) for a point that left the frame: its last
    estimate may have wandered far in ill-conditioned steps. A point that
    uses up the cap moves chaotically with any change of rounding, so it is
    not held."""
    assert flow.tracked.tobytes() == tracked.tobytes()
    held = reasons != "cap"
    scale = np.where(reasons == "left", 1.0 + np.abs(vectors).max(axis=1), 1.0)
    err = np.abs(flow.vectors - vectors).max(axis=1, initial=0.0)
    assert (err[held] <= 1e-9 * scale[held]).all()


def _oracle_case(seed, window, h=180, w=240):
    """A shifted textured pair with flat patches, and points that probe every
    untracked rule: on and just inside/outside the border margin, in a flat
    patch, near the edge the shift pushes windows across."""
    rng = np.random.default_rng(seed)
    base = smooth_texture(h, w, seed=seed)
    base[20:70, 150:210] = 90   # flat in both frames: near-singular normal matrix
    dx, dy = rng.integers(-6, 7, size=2)
    moved = np.roll(np.roll(base, dy, axis=0), dx, axis=1)
    noise = rng.integers(-2, 3, size=moved.shape)
    moved = np.clip(moved.astype(np.int16) + noise, 0, 255).astype(np.uint8)

    half = window // 2
    lo, hi_x, hi_y = float(half), float(w - 1 - half), float(h - 1 - half)
    edge = []
    for off in (0.0, 0.25, -0.25, 1.5):
        edge += [(lo + off, 90.0), (hi_x - off, 91.5), (120.25, lo + off),
                 (60.75, hi_y - off)]
    edge += [(180.0, 45.0), (172.5, 50.5)]   # inside the flat patch
    rand = np.column_stack([rng.uniform(1.0, w - 2.0, 53),
                            rng.uniform(1.0, h - 2.0, 53)])
    points = np.vstack([np.array(edge), rand])
    points = points[rng.permutation(len(points))]   # edge cases in every block
    return GrayFrame(base), GrayFrame(moved), CornerSet(points, np.ones(len(points)))


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("window", [3, 21, 35])
def test_matches_per_corner_reference(window, levels):
    for seed in (window * 10 + levels, window * 10 + levels + 100):
        prev, nxt, corners = _oracle_case(seed, window)
        assert len(corners) > 2 * _BLOCK and len(corners) % _BLOCK   # ragged tail
        flow = lk_flow(prev, nxt, corners,
                       VisionConfig(lk_window=window, lk_levels=levels))
        vectors, tracked, reasons = reference_flow(
            prev, nxt, corners.points, window=window, pyramid_levels=levels)
        assert_flow_rule(flow, vectors, tracked, reasons)
        assert flow.points.tobytes() == corners.points.tobytes()
        assert tracked.any() and not tracked.all()
        assert (reasons == "converged").any()


def test_matches_reference_on_detected_corners():
    prev, nxt = _shifted_pair(seed=41, dx=4, dy=-3, h=180, w=240)
    corners = detect_corners(prev)
    assert len(corners) > 32
    for levels in (1, 3):
        flow = lk_flow(prev, nxt, corners, VisionConfig(lk_levels=levels))
        vectors, tracked, reasons = reference_flow(prev, nxt, corners.points,
                                                   pyramid_levels=levels)
        assert_flow_rule(flow, vectors, tracked, reasons)
        assert (reasons == "converged").sum() > 32


@pytest.mark.parametrize("n", [0, 1])
def test_empty_and_single_corner_match_reference(n):
    prev, nxt, _ = _oracle_case(seed=7, window=21)
    subset = CornerSet(np.array([[120.5, 90.25]])[:n].reshape(n, 2), np.ones(n))
    flow = lk_flow(prev, nxt, subset, VisionConfig(lk_window=21, lk_levels=2))
    vectors, tracked, reasons = reference_flow(prev, nxt, subset.points,
                                               window=21, pyramid_levels=2)
    assert flow.vectors.shape == (n, 2) and flow.tracked.shape == (n,)
    assert_flow_rule(flow, vectors, tracked, reasons)


@pytest.mark.parametrize("shape,window,levels,points,dx", [
    # the window is larger than the frame: no point fits, all untracked
    ((40, 40), 41, 1, [[20.0, 20.0], [0.0, 0.0], [39.0, 39.0]], 1),
    # level 1 is 35x50, one window tall: the windows touch its first and last
    # rows, and any vertical step takes them out of it
    ((70, 100), 35, 2, [[50.0, 34.0], [49.5, 34.0], [30.0, 34.0], [50.0, 35.0]], 1),
    # the block's only live window leaves that level mid-iteration
    ((70, 100), 35, 2, [[64.0, 34.0]], 3),
])
def test_windows_as_large_as_the_frame_match_reference(shape, window, levels, points, dx):
    base = smooth_texture(*shape, seed=5)
    prev, nxt = GrayFrame(base), GrayFrame(np.roll(base, dx, axis=1))
    points = np.array(points)
    flow = lk_flow(prev, nxt, CornerSet(points, np.ones(len(points))),
                   VisionConfig(lk_window=window, lk_levels=levels))
    vectors, tracked, reasons = reference_flow(prev, nxt, points, window=window,
                                               pyramid_levels=levels)
    assert_flow_rule(flow, vectors, tracked, reasons)
    assert tracked.any() == (window < min(shape))


@pytest.mark.parametrize("size", [1, 3, 6])
def test_sampler_matches_scalar_loop(size):
    # the sampler's definition, one pixel at a time with Python floats
    rng = np.random.default_rng(size)
    h, w = 9, 12
    img = rng.uniform(-50.0, 300.0, (h, w))
    origins = np.column_stack([rng.uniform(0.0, w - size, 40),
                               rng.uniform(0.0, h - size, 40)])
    # whole-pixel origins, down to the last row and column: fraction 0
    origins[:4] = [[w - size, h - size], [0.0, h - size], [w - size, 0.5], [3.0, 2.0]]
    padded = np.pad(img, ((0, 1), (0, 1)))   # the tracker's zero row and column
    side = size + 1
    flat = _sample(sliding_window_view(padded, (side, side)), origins,
                   np.full((len(origins), size * side - 1), np.nan))
    assert not flat[:, size::side].any()   # the zero after each row
    got = np.append(flat, np.zeros((len(origins), 1)), axis=1).reshape(-1, size, side)
    padded = padded.tolist()
    for i, (ox, oy) in enumerate(origins.tolist()):
        x0, y0 = int(np.floor(ox)), int(np.floor(oy))
        fx, fy = ox - x0, oy - y0
        for r in range(size):
            top, bottom = padded[y0 + r], padded[y0 + r + 1]
            for c in range(size):
                x = x0 + c
                upper = top[x] * (1 - fx) + top[x + 1] * fx
                lower = bottom[x] * (1 - fx) + bottom[x + 1] * fx
                assert got[i, r, c] == upper * (1 - fy) + lower * fy


@pytest.mark.parametrize("levels", [1, 3])
@pytest.mark.parametrize("window", [3, 21, 35])
def test_block_matches_each_corner_alone(window, levels):
    # every window's sums are its own, whatever block it is tracked in
    prev, nxt, corners = _oracle_case(seed=window + levels, window=window)
    cfg = VisionConfig(lk_window=window, lk_levels=levels)
    flow = lk_flow(prev, nxt, corners, cfg)
    assert flow.tracked.any()
    for i in range(len(corners)):
        alone = lk_flow(prev, nxt, CornerSet(corners.points[i:i + 1], np.ones(1)), cfg)
        assert alone.vectors.tobytes() == flow.vectors[i:i + 1].tobytes()
        assert alone.tracked.tobytes() == flow.tracked[i:i + 1].tobytes()


@pytest.mark.parametrize("img", filter_images())
def test_downsample_matches_reference(img):
    assert _downsample(img).tobytes() == reference_downsample(img).tobytes()
