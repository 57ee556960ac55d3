import numpy as np
import pytest

from cyclerisk.config import VisionConfig
from cyclerisk.errors import ConfigError
from cyclerisk.vision import GrayFrame, detect_corners
from cyclerisk.vision.corners import (_box_mean, _local_max, _subpixel_offsets,
                                     min_eigen_response)
from cyclerisk.vision.frames import sobel

from conftest import filter_images, smooth_texture
from vision_reference import (_subpixel_offset, reference_box_mean, reference_corners,
                              reference_local_max, reference_score)


def test_bright_square_yields_four_vertex_corners():
    # square spans columns [100, 200) and rows [80, 160): vertices at the
    # outer corner pixels (100, 80), (199, 80), (100, 159), (199, 159)
    img = np.zeros((240, 320), dtype=np.uint8)
    img[80:160, 100:200] = 230
    found = detect_corners(GrayFrame(img), VisionConfig(
        corner_max_per_cell=8, corner_grid=(4, 4), corner_quality=0.01))
    truth = np.array([[100, 80], [199, 80], [100, 159], [199, 159]], dtype=float)
    strongest = found.points[np.argsort(-found.response)][:4]
    for vertex in truth:
        d = np.linalg.norm(strongest - vertex, axis=1).min()
        assert d <= 2.0, f"vertex {vertex} missed by {d:.2f} px"


def test_constant_offset_leaves_corners_unchanged():
    base = smooth_texture(240, 320, seed=11, lo=10, hi=200)
    shifted = (base.astype(np.int16) + 30).astype(np.uint8)
    a = detect_corners(GrayFrame(base))
    b = detect_corners(GrayFrame(shifted))
    assert np.array_equal(a.points, b.points)
    assert np.allclose(a.response, b.response)


def test_rotation_180_preserves_count():
    img = np.random.default_rng(5).integers(0, 256, size=(240, 320), dtype=np.uint8)
    a = detect_corners(GrayFrame(img))
    b = detect_corners(GrayFrame(np.rot90(img, 2).copy()))
    assert len(a) == len(b)


def test_per_cell_cap_enforced():
    img = np.random.default_rng(9).integers(0, 256, size=(240, 320), dtype=np.uint8)
    cap = 3
    found = detect_corners(GrayFrame(img), VisionConfig(corner_max_per_cell=cap,
                                                       corner_grid=(4, 4)))
    assert len(found) > 0
    cell_h = -(-240 // 4)
    cell_w = -(-320 // 4)
    cells = (found.points[:, 1].astype(int) // cell_h) * 4 + (
        found.points[:, 0].astype(int) // cell_w)
    counts = np.bincount(cells, minlength=16)
    assert counts.max() <= cap


def test_untextured_frame_yields_empty_set():
    frame = GrayFrame(np.full((120, 160), 77, dtype=np.uint8))
    found = detect_corners(frame)
    assert len(found) == 0


def test_points_inside_frame(texture_frame):
    found = detect_corners(texture_frame)
    assert len(found) > 0
    assert (found.points[:, 0] > 0).all() and (found.points[:, 0] < 320 - 1).all()
    assert (found.points[:, 1] > 0).all() and (found.points[:, 1] < 240 - 1).all()


def test_quality_threshold_filters_weak_corners():
    img = smooth_texture(240, 320, seed=13)
    loose = detect_corners(GrayFrame(img), VisionConfig(corner_quality=0.001))
    strict = detect_corners(GrayFrame(img), VisionConfig(corner_quality=0.5))
    assert len(strict) <= len(loose)
    if len(strict):
        assert strict.response.min() >= 0.5 * loose.response.max() - 1e-9


@pytest.mark.parametrize("kwargs", [
    {"corner_max_per_cell": 0},
    {"corner_quality": 0.0},
    {"corner_quality": 1.5},
    {"corner_grid": (0, 4)},
])
def test_bad_parameters_rejected(texture_frame, kwargs):
    # the settings are the section's, which refuses them before the stage runs
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        detect_corners(texture_frame, VisionConfig(**kwargs))


def _oracle_images():
    rng = np.random.default_rng(17)
    tiles = np.zeros((150, 200), dtype=np.uint8)   # repeated squares: tied scores
    for y in range(10, 140, 30):
        for x in range(10, 190, 30):
            tiles[y:y + 15, x:x + 15] = 200
    return [rng.integers(0, 256, size=(150, 200), dtype=np.uint8),
            smooth_texture(180, 240, seed=19),
            smooth_texture(120, 160, seed=23, sigma=4.0),
            tiles]


@pytest.mark.parametrize("quality", [0.001, 0.01, 0.5])
@pytest.mark.parametrize("grid", [(1, 1), (3, 5), (4, 4)])
@pytest.mark.parametrize("max_per_cell", [1, 3, 8])
def test_matches_per_peak_reference(max_per_cell, grid, quality):
    for img in _oracle_images():
        found = detect_corners(GrayFrame(img), VisionConfig(
            corner_max_per_cell=max_per_cell, corner_grid=grid,
            corner_quality=quality))
        points, response = reference_corners(img, max_per_cell, grid, quality)
        assert len(found) > 0
        assert found.points.tobytes() == points.tobytes()
        assert found.response.tobytes() == response.tobytes()


def test_subpixel_offsets_match_reference():
    # small integer scores: many flat and zero-curvature neighbourhoods
    score = np.random.default_rng(29).integers(0, 4, size=(40, 50)).astype(float)
    ys, xs = (a.ravel() for a in np.mgrid[1:39, 1:49])
    dx, dy = _subpixel_offsets(score, ys, xs)
    ref = np.array([_subpixel_offset(score[y - 1:y + 2, x - 1:x + 2])
                    for y, x in zip(ys, xs)])
    assert (ref == 0.0).any() and (np.abs(ref) == 0.5).any()
    assert dx.tobytes() == np.ascontiguousarray(ref[:, 0]).tobytes()
    assert dy.tobytes() == np.ascontiguousarray(ref[:, 1]).tobytes()


@pytest.mark.parametrize("img", filter_images())
def test_score_map_matches_reference(img):
    gx, gy = sobel(img)
    assert min_eigen_response(gx, gy).tobytes() == reference_score(img).tobytes()
    for a in (img, gx * gx, gx * gy, gy * gy):
        # array_equal: a one-pixel-wide gx * gy can sum to -0.0 where the
        # reference gives 0.0; the score squares that term
        assert np.array_equal(_box_mean(a), reference_box_mean(a))
    assert np.array_equal(_local_max(img), reference_local_max(img))
