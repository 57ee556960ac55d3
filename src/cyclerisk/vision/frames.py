"""Grayscale frame container used by the vision stages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError


@dataclass
class GrayFrame:
    """A single grayscale video frame.

    data holds luminance as a (height, width) uint8 array; index is the
    position of the frame in its source sequence.
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

    def as_float(self) -> np.ndarray:
        return self.data.astype(np.float64)
