"""Container for the phone's motion log: inertial axes, speed, position."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import InvalidInputError


@dataclass
class SensorStream:
    """Time-aligned sensor samples at a nominal 10 Hz.

    t is seconds, acceleration m/s^2, rotation rate rad/s, speed m/s,
    position in degrees, gps accuracy in meters. gap_mask marks re-gridded
    slots that had to be filled by holding the previous sample.
    """

    t: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    az: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    gz: np.ndarray
    speed: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    acc: np.ndarray
    gap_mask: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=np.float64)
        if self.t.ndim != 1 or self.t.size == 0:
            raise InvalidInputError("timestamps must be a nonempty 1-D array")
        n = self.t.size
        for name in SENSOR_FIELDS[1:]:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (n,):
                raise InvalidInputError(f"channel {name} has shape {arr.shape}, want ({n},)")
            if not np.isfinite(arr).all():
                raise InvalidInputError(f"channel {name} contains non-finite values")
            setattr(self, name, arr)
        if not np.isfinite(self.t).all():
            raise InvalidInputError("timestamps contain non-finite values")
        if n > 1 and not (np.diff(self.t) > 0).all():
            raise InvalidInputError("timestamps must be strictly increasing")
        if self.gap_mask is not None:
            self.gap_mask = np.asarray(self.gap_mask, dtype=bool)
            if self.gap_mask.shape != (n,):
                raise InvalidInputError("gap_mask length must match the stream")

    def __len__(self) -> int:
        return int(self.t.size)

    def channel_matrix(self) -> np.ndarray:
        """Feature channels as one (n, 7) block: ax ay az gx gy gz speed."""
        return np.column_stack([getattr(self, c) for c in CHANNEL_NAMES])


# the columns of sensors.csv in file order: every field above but gap_mask
SENSOR_FIELDS = tuple(f.name for f in fields(SensorStream) if f.name != "gap_mask")
CHANNEL_NAMES = SENSOR_FIELDS[1:8]   # the feature channels: ax .. speed
