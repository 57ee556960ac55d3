import numpy as np
import pytest

from cyclerisk.vision import GrayFrame
from cyclerisk.vision.frames import sobel

from conftest import filter_images, smooth_texture
from vision_reference import reference_gradient


@pytest.mark.parametrize("img", filter_images())
def test_sobel_matches_reference(img):
    gx, gy = sobel(img)
    rx, ry = reference_gradient(img)
    assert gx.dtype == gy.dtype == np.float64
    assert np.array_equal(gx, rx) and np.array_equal(gy, ry)


def test_gradient_is_sobel_of_pixels_made_once():
    frame = GrayFrame(smooth_texture(60, 80, seed=9))
    assert frame.pixels.dtype == np.float64
    assert np.array_equal(frame.pixels, frame.data)
    gx, gy = frame.gradient
    assert frame.gradient[0] is gx and frame.gradient[1] is gy
    rx, ry = reference_gradient(frame.data)
    assert gx.tobytes() == rx.tobytes() and gy.tobytes() == ry.tobytes()


def test_flat_frame_has_zero_gradient():
    gx, gy = GrayFrame(np.full((12, 10), 200, dtype=np.uint8)).gradient
    assert not gx.any() and not gy.any()

