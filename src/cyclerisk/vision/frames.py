"""Grayscale frame container used by the vision stages."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import InvalidInputError


def sobel(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gx, gy): 3x3 Sobel derivatives of a float image / 8, edges repeated.

    The difference along the axis comes first, then the smoothing across it
    as 2*d[i] + (d[i-1] + d[i+1]): in that order any float image matches the
    oracle in tests/vision_reference.py bit for bit."""
    p = np.pad(img, 1, mode="edge")
    dx = p[:, 2:] - p[:, :-2]
    dy = p[2:] - p[:-2]
    return ((2.0 * dx[1:-1] + (dx[:-2] + dx[2:])) / 8.0,
            (2.0 * dy[:, 1:-1] + (dy[:, :-2] + dy[:, 2:])) / 8.0)


@dataclass
class GrayFrame:
    """A single grayscale video frame.

    data holds luminance as a (height, width) uint8 array; index is the
    position of the frame in its source sequence. Corner detection and the
    tracker share the float image and gradient, made once on first use.
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
    def pixels(self) -> np.ndarray:
        """data as float64."""
        return self.data.astype(np.float64)

    @cached_property
    def gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """sobel(pixels)."""
        return sobel(self.pixels)
