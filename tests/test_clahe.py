import numpy as np
import pytest

from cyclerisk.errors import InvalidInputError
from cyclerisk.vision import GrayFrame, clahe


def test_constant_frame_stays_constant():
    frame = GrayFrame(np.full((120, 160), 128, dtype=np.uint8))
    out = clahe(frame, grid=(4, 4), clip_limit=0.03)
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
    out = clahe(GrayFrame(img), grid=(4, 4), clip_limit=1.0).data
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
    out = clahe(GrayFrame(img), grid=(4, 4), clip_limit=0.03).data
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
    out = clahe(GrayFrame(img), grid=(4, 4))
    assert out.data.shape == (130, 173)


@pytest.mark.parametrize("clip", [0.0, -0.5, 1.5])
def test_bad_clip_limit_rejected(clip):
    frame = GrayFrame(np.zeros((32, 32), dtype=np.uint8))
    with pytest.raises(InvalidInputError):
        clahe(frame, clip_limit=clip)


def test_bad_grid_rejected():
    frame = GrayFrame(np.zeros((32, 32), dtype=np.uint8))
    with pytest.raises(InvalidInputError):
        clahe(frame, grid=(0, 4))
    with pytest.raises(InvalidInputError):
        clahe(frame, grid=(64, 64))  # more tiles than pixels per side


def test_deterministic(texture_frame):
    a = clahe(texture_frame).data
    b = clahe(texture_frame).data
    assert np.array_equal(a, b)
