import numpy as np
import pytest

from cyclerisk.config import VisionConfig
from cyclerisk.errors import ConfigError, InvalidInputError
from cyclerisk.vision import GrayFrame, clahe

from conftest import smooth_texture
from vision_reference import reference_clahe


def test_constant_frame_stays_constant():
    frame = GrayFrame(np.full((120, 160), 128, dtype=np.uint8))
    out = clahe(frame, VisionConfig(clahe_grid=(4, 4), clahe_clip=0.03))
    assert np.unique(out.data).size == 1


def test_constant_frame_idempotent():
    frame = GrayFrame(np.full((120, 160), 128, dtype=np.uint8))
    once = clahe(frame)
    twice = clahe(once)
    assert np.array_equal(once.data, twice.data)
    # contrast-free input passes through untouched
    assert np.array_equal(once.data, frame.data)


def test_two_level_frame_partition_preserved():
    # alternating columns so every tile sees both levels equally
    img = np.zeros((120, 160), dtype=np.uint8)
    img[:, 1::2] = 255
    out = clahe(GrayFrame(img), VisionConfig(clahe_grid=(4, 4), clahe_clip=1.0)).data
    lo = out[img == 0]
    hi = out[img == 255]
    # rounding at blend seams may straddle two adjacent levels, no more
    assert np.unique(lo).size <= 2
    assert np.unique(hi).size <= 2
    assert lo.max() < hi.min()


def test_low_contrast_ramp_range_widens():
    # ramp spanning [100, 130]; clipping must stretch it well past 30 levels
    w, h = 480, 360
    col = np.linspace(100, 130, w)
    img = np.tile(col, (h, 1)).astype(np.uint8)
    in_range = int(img.max()) - int(img.min())
    out = clahe(GrayFrame(img), VisionConfig(clahe_grid=(4, 4), clahe_clip=0.03)).data
    counts = np.bincount(out.ravel(), minlength=256)
    occupied = np.nonzero(counts)[0]
    out_range = int(occupied.max()) - int(occupied.min())
    assert out_range > in_range


def test_output_shape_and_dtype(texture_frame):
    out = clahe(texture_frame)
    assert out.data.shape == texture_frame.data.shape
    assert out.data.dtype == np.uint8
    assert out.index == texture_frame.index


def test_uneven_grid_division_covers_frame():
    # 130 rows over 4 tiles leaves a remainder; output must still be complete
    img = np.random.default_rng(3).integers(0, 256, size=(130, 173), dtype=np.uint8)
    out = clahe(GrayFrame(img), VisionConfig(clahe_grid=(4, 4)))
    assert out.data.shape == (130, 173)


@pytest.mark.parametrize("clip", [0.0, -0.5, 1.5])
def test_bad_clip_limit_rejected(clip):
    # the clip is the section's, which refuses it before the stage runs
    frame = GrayFrame(np.zeros((32, 32), dtype=np.uint8))
    with pytest.raises(ConfigError, match="clahe_clip"):
        clahe(frame, VisionConfig(clahe_clip=clip))


def test_bad_grid_rejected():
    # the section bounds the grid; only the frame can make a valid grid
    # too fine
    frame = GrayFrame(np.zeros((32, 32), dtype=np.uint8))
    with pytest.raises(ConfigError, match="clahe_grid"):
        clahe(frame, VisionConfig(clahe_grid=(0, 4)))
    with pytest.raises(InvalidInputError):
        clahe(frame, VisionConfig(clahe_grid=(64, 64)))  # more tiles than pixels
    with pytest.raises(InvalidInputError):
        clahe(frame, VisionConfig(clahe_grid=(4, 33)))


def test_deterministic(texture_frame):
    a = clahe(texture_frame).data
    b = clahe(texture_frame).data
    assert np.array_equal(a, b)


def _clahe_cases():
    rng = np.random.default_rng(41)
    one_bin = rng.integers(0, 256, (40, 48), dtype=np.uint8)
    one_bin[:20, :24] = 77   # the top-left tile of a 2x2 grid holds one value
    cases = [
        ("random 180x240", rng.integers(0, 256, (180, 240), dtype=np.uint8), (4, 4), 0.03),
        ("uneven 130x173", rng.integers(0, 256, (130, 173), dtype=np.uint8), (4, 4), 0.03),
        ("uneven 47x33 grid 5x7", rng.integers(0, 256, (47, 33), dtype=np.uint8), (5, 7), 0.2),
        ("narrow band 61x59", rng.integers(90, 110, (61, 59), dtype=np.uint8), (3, 2), 0.01),
        ("texture 120x160", smooth_texture(120, 160, seed=5), (4, 4), 1.0),
        ("one-pixel tiles 6x9", rng.integers(0, 256, (6, 9), dtype=np.uint8), (6, 9), 0.5),
        ("grid = frame 1x7", rng.integers(0, 256, (1, 7), dtype=np.uint8), (1, 7), 0.03),
        ("one row of tiles 9x31", rng.integers(0, 256, (9, 31), dtype=np.uint8), (1, 4), 0.1),
        ("one occupied bin", one_bin, (2, 2), 0.03),
        ("flat 12x12", np.full((12, 12), 200, dtype=np.uint8), (3, 3), 0.03),
    ]
    for k in range(6):   # random frames, grids and clip limits
        h, w = rng.integers(1, 90, 2)
        grid = (int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1)))
        clip = float(rng.uniform(0.001, 1.0))
        cases.append((f"random {k}", rng.integers(0, 256, (h, w), dtype=np.uint8), grid, clip))
    return [pytest.param(img, grid, clip, id=name) for name, img, grid, clip in cases]


@pytest.mark.parametrize("img,grid,clip", _clahe_cases())
def test_matches_reference_bytes(img, grid, clip):
    out = clahe(GrayFrame(img, index=3), VisionConfig(clahe_grid=grid, clahe_clip=clip))
    assert out.data.tobytes() == reference_clahe(img, grid, clip).tobytes()
