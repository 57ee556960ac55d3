"""Grayscale frame container used by the vision stages."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import InvalidInputError


def sobel(img: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
          ) -> tuple[np.ndarray, np.ndarray]:
    """(gx, gy): 3x3 Sobel derivatives of a float image / 8, edges repeated,
    written into out when it is given.

    The difference along the axis comes first, then the smoothing across it
    as 2*d[i] + (d[i-1] + d[i+1]): in that order any float image matches the
    oracle in tests/vision_reference.py bit for bit. Each result is first
    the neighbour sum, then takes the doubled centre row (a sum commutes
    exactly) and the / 8 in place."""
    p = np.pad(img, 1, mode="edge")
    gx, gy = (None, None) if out is None else out
    dx = p[:, 2:] - p[:, :-2]
    gx = np.add(dx[:-2], dx[2:], out=gx)
    dx[1:-1] *= 2.0
    gx += dx[1:-1]
    gx /= 8.0
    del dx
    dy = p[2:] - p[:-2]
    del p
    gy = np.add(dy[:, :-2], dy[:, 2:], out=gy)
    dy[:, 1:-1] *= 2.0
    gy += dy[:, 1:-1]
    gy /= 8.0
    return gx, gy


@dataclass
class GrayFrame:
    """A single grayscale video frame.

    data holds luminance as a (height, width) uint8 array; index is the
    position of the frame in its source sequence. Corner detection and the
    tracker share the float image and gradient, made once on first use, and
    the tracker reads both zero-padded: a frame that is the later one of a
    pair and the earlier one of the next is padded once.
    """

    data: np.ndarray
    index: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidInputError("frame data must be a nonempty 2-d array")
        if arr.dtype != np.uint8:
            if np.nanmin(arr) < 0 or np.nanmax(arr) > 255:
                raise InvalidInputError("luminance values must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        self.data = arr

    @cached_property
    def _planes(self) -> np.ndarray:
        """(3, h + 1, w + 1): the image and the two gradient planes, each
        with one zero row and column appended, in one array.

        One block a frame, freed whole with the frame, in place of three
        frame-sized arrays. With glibc, freeing that block lifts the
        allocator's mmap threshold above every temporary of the vision
        pass, so later frames reuse heap pages instead of faulting fresh
        ones in: a warm ride_quiet analyze took 87 to 1,733 minor faults,
        against 21,561 with three arrays."""
        h, w = self.data.shape
        planes = np.zeros((3, h + 1, w + 1))
        planes[0, :h, :w] = self.data
        return planes

    @cached_property
    def padded(self) -> np.ndarray:
        """data as float64 with one zero row and column appended: the image
        the tracker samples (see flow._blocks). pixels is a view of it."""
        return self._planes[0]

    @cached_property
    def pixels(self) -> np.ndarray:
        """data as float64."""
        return self.padded[:-1, :-1]

    @cached_property
    def padded_gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """gradient with one zero row and column appended; gradient is a
        view of it."""
        h, w = self.data.shape
        _, gx, gy = self._planes
        sobel(self.pixels, out=(gx[:h, :w], gy[:h, :w]))
        return gx, gy

    @cached_property
    def gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """sobel(pixels)."""
        gx, gy = self.padded_gradient
        return gx[:-1, :-1], gy[:-1, :-1]
