"""Seeded synthetic data: expansion scenes, scripted detections, sensor rides.

Everything here is deterministic given its seed so tests and benchmarks can
freeze expectations against generated data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior.preprocess import WINDOW_SIZE, make_windows, preprocess
from .behavior.stream import SensorStream
from .config import RiskConfig
from .errors import InvalidInputError
from .risk import SUBREGION_COLORS, Detection, proximity_region_map


@dataclass
class SyntheticScene:
    """Ground-truthed single-frame scene.

    points are the (n, 2) flow sources and vectors the (n, 2) displacements;
    inlier_mask marks the flows that follow the radial expansion.
    """

    dims: tuple[int, int]
    foe: np.ndarray
    points: np.ndarray
    vectors: np.ndarray
    inlier_mask: np.ndarray


DEPTH_RANGE = (0.05, 0.2)  # bounds of an expansion scene's per-flow rate lam


def gen_expansion_scene(
    foe: tuple[float, float],
    n: int = 100,
    noise: float = 0.0,
    outlier_frac: float = 0.0,
    seed: int = 0,
    dims: tuple[int, int] = (480, 360),
) -> SyntheticScene:
    """Radial expansion field around a known focus, with scripted outliers.

    Inlier flows are lam * (p - foe) plus isotropic Gaussian noise with the
    given pixel sigma, lam drawn uniformly from DEPTH_RANGE. Outliers keep an
    inlier-like magnitude but point in a uniformly random direction. Exactly
    round(outlier_frac * n) flows are outliers.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if not 0.0 <= outlier_frac <= 1.0:
        raise InvalidInputError(f"outlier_frac must be in [0, 1], got {outlier_frac}")
    if not 0.0 <= noise < math.inf:
        raise InvalidInputError(f"noise must be finite and >= 0, got {noise}")
    w, h = dims
    foe_pt = np.asarray(foe, dtype=np.float64)
    if not np.isfinite(foe_pt).all():
        raise InvalidInputError(f"focus must be finite, got {foe}")
    # points are drawn away from the focus; some pixel must lie beyond 2 px
    corners = np.array([(0.0, 0.0), (w, 0.0), (0.0, h), (w, h)])
    if np.linalg.norm(corners - foe_pt, axis=1).max() <= 2.0:
        raise InvalidInputError(f"frame {dims} lies within 2 px of the focus {foe}")
    rng = np.random.default_rng(seed)

    pts = np.empty((n, 2))
    filled = 0
    while filled < n:
        cand = rng.uniform((0.0, 0.0), (w, h), size=(n - filled, 2))
        # points sitting on the focus produce zero flow; keep clear of it
        ok = np.linalg.norm(cand - foe_pt, axis=1) > 2.0
        kept = cand[ok]
        pts[filled:filled + len(kept)] = kept
        filled += len(kept)

    lam = rng.uniform(*DEPTH_RANGE, size=n)
    radial = pts - foe_pt
    vecs = lam[:, None] * radial

    n_out = int(round(outlier_frac * n))
    inlier = np.ones(n, dtype=bool)
    if n_out:
        out_idx = rng.choice(n, size=n_out, replace=False)
        inlier[out_idx] = False
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n_out)
        mags = np.linalg.norm(vecs[out_idx], axis=1)
        vecs[out_idx] = mags[:, None] * np.column_stack((np.cos(theta), np.sin(theta)))

    if noise > 0:
        vecs = vecs + rng.normal(0.0, noise, size=(n, 2))

    return SyntheticScene(dims=dims, foe=foe_pt, points=pts, vectors=vecs,
                          inlier_mask=inlier)


def gen_risk_detections(region_map, level: int, seed: int = 0, frame: int = 0) -> list:
    """Scripted detections whose footprints realize a known risk level.

    Level 3 puts one or two strong objects in the red territory (plus maybe a
    bystander elsewhere), level 2 occupies yellow with green extras only, and
    level 1 stays entirely green. Footprints are placed by rejection sampling
    against the map's color assignment, so the label is true by construction.
    """
    if level not in (1, 2, 3):
        raise InvalidInputError(f"risk level must be 1, 2 or 3, got {level}")
    rng = np.random.default_rng(seed)
    if level == 3:
        plan = [("red", (0.7, 0.95))] * int(rng.integers(1, 3))
        if rng.random() < 0.5:
            plan.append((("yellow", "green")[int(rng.integers(0, 2))], (0.3, 0.8)))
    elif level == 2:
        plan = [("yellow", (0.6, 0.95))] * int(rng.integers(1, 3))
        if rng.random() < 0.5:
            plan.append(("green", (0.3, 0.8)))
    else:
        plan = [("green", (0.4, 0.9))] * int(rng.integers(1, 4))

    labels = ("car", "bus", "motorcycle", "bicycle", "person")
    dets = []
    for color, score_range in plan:
        box = _place_in_color(region_map, color, rng)
        if box is None:
            continue
        dets.append(Detection(frame=frame,
                              label=labels[int(rng.integers(0, len(labels)))],
                              score=float(rng.uniform(*score_range)),
                              bbox=box))
    if not dets:
        raise InvalidInputError(f"could not place any level-{level} object; "
                                "the map's color territory is too small")
    return dets


def _place_in_color(region_map, color: str, rng) -> tuple | None:
    """Random bbox whose footprint lies wholly inside one color's territory.

    The footprint is the default strip of `RiskConfig` (see
    `risk.object_footprint`), the one reference descriptors are built with.
    """
    w, h = region_map.dims
    assignment = region_map.assignment
    target = np.array([False] + [c == color for c in SUBREGION_COLORS])[assignment]
    ys, xs = np.nonzero(target)
    if len(xs) == 0:
        return None
    for attempt in range(300):
        lo, hi = ((20.0, 60.0), (10.0, 24.0))[attempt >= 150]
        bw = float(rng.uniform(lo, hi))
        bh = float(rng.uniform(1.5 * lo, 1.5 * hi))
        pick = int(rng.integers(0, len(xs)))
        cx, cy = float(xs[pick]), float(ys[pick])
        x = min(max(cx - bw / 2.0, 0.0), w - bw)
        y_bottom = min(max(cy, bh), float(h))
        fh = max(RiskConfig.footprint_frac * bh, RiskConfig.footprint_min_px)
        x0, x1 = int(np.floor(x)), int(np.ceil(x + bw))
        y0, y1 = int(np.floor(y_bottom - fh)), int(np.ceil(y_bottom))
        if x0 < 0 or y0 < 0 or x1 > w or y1 > h or x1 <= x0 or y1 <= y0:
            continue
        if target[y0:y1, x0:x1].all():
            return (x, y_bottom - bh, bw, bh)
    return None


# per-mode generator constants: speed process and oscillation signatures
_MODE_SPEC = {
    "walk": dict(speed_mean=1.4, speed_std=0.3, step_hz=2.0, step_amp=1.8,
                 accel_noise=0.35, sway_amp=0.0, gyro_noise=0.15),
    "bike": dict(speed_mean=4.5, speed_std=1.5, step_hz=3.3, step_amp=0.8,
                 accel_noise=0.30, sway_amp=0.55, gyro_noise=0.12),
    "motor": dict(speed_mean=10.0, speed_std=6.0, step_hz=0.0, step_amp=0.0,
                  accel_noise=0.12, sway_amp=0.0, gyro_noise=0.05),
}
_SWAY_HZ = 0.8
_EARTH_M_PER_DEG = 111320.0
MAX_SEGMENT_S = 86400.0  # one day: 864,000 samples, well inside memory


@dataclass
class SyntheticRide:
    """Scripted multi-mode recording with ground-truth labels.

    window_starts are the start samples make_windows(preprocess(stream))
    returns, and window_labels holds each window's majority mode.
    """

    stream: SensorStream
    sample_modes: np.ndarray
    window_labels: list[str]
    window_starts: np.ndarray


def gen_ride(schedule, seed: int = 0) -> SyntheticRide:
    """10 Hz sensor stream following a (mode, duration-seconds) schedule.

    Mode signatures: walking is slow with strong step oscillation, cycling
    adds mid-band pedaling vibration and a side-to-side rotation sway, and
    motorized travel is fast but smooth. Speed follows a mean-reverting walk
    around each mode's nominal value so windows see realistic variation.
    """
    schedule = tuple((str(m), float(d)) for m, d in schedule)
    if not schedule:
        raise InvalidInputError("schedule must contain at least one segment")
    for mode, dur in schedule:
        if mode not in _MODE_SPEC:
            raise InvalidInputError(f"unknown mode {mode!r}")
        if not 30.0 <= dur <= MAX_SEGMENT_S:
            raise InvalidInputError(
                f"each segment must last 30 to {MAX_SEGMENT_S:g} s, got {dur}")

    rng = np.random.default_rng(seed)
    dt = 0.1
    counts = [int(round(d / dt)) for _, d in schedule]
    n = sum(counts)
    t = np.arange(n) * dt
    sample_modes = np.concatenate([np.full(c, m) for (m, _), c in zip(schedule, counts)])

    ax = np.empty(n)
    ay = np.empty(n)
    az = np.empty(n)
    gx = np.empty(n)
    gy = np.empty(n)
    gz = np.empty(n)
    speed = np.empty(n)

    pos = 0
    prev_speed = None
    for (mode, _), c in zip(schedule, counts):
        spec = _MODE_SPEC[mode]
        sl = slice(pos, pos + c)
        tt = t[sl]

        # mean-reverting speed: stationary std matches the mode's spread
        theta = 0.3
        sigma_w = spec["speed_std"] * np.sqrt(2.0 * theta)
        cur = (spec["speed_mean"] + spec["speed_std"] * rng.standard_normal()
               if prev_speed is None else prev_speed)
        s = []
        for kick in (sigma_w * np.sqrt(dt) * rng.standard_normal(c)).tolist():
            cur += theta * (spec["speed_mean"] - cur) * dt + kick
            s.append(max(cur, 0.0))
        speed[sl] = s
        prev_speed = s[-1]

        phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
        osc = spec["step_amp"] * np.sin(2.0 * np.pi * spec["step_hz"] * tt + phase[0])
        ax[sl] = osc + rng.normal(0.0, spec["accel_noise"], c)
        ay[sl] = 0.4 * spec["step_amp"] * np.sin(
            2.0 * np.pi * spec["step_hz"] * tt + phase[1]) \
            + rng.normal(0.0, spec["accel_noise"], c)
        az[sl] = 9.81 + osc * 0.6 + rng.normal(0.0, spec["accel_noise"], c)
        gy[sl] = spec["sway_amp"] * np.sin(2.0 * np.pi * _SWAY_HZ * tt + phase[2]) \
            + rng.normal(0.0, spec["gyro_noise"], c)
        gx[sl] = rng.normal(0.0, spec["gyro_noise"], c)
        gz[sl] = rng.normal(0.0, spec["gyro_noise"], c)
        pos += c

    heading = np.cumsum(rng.normal(0.0, 0.02, n))
    lat = 41.15 + np.cumsum(speed * dt * np.cos(heading)) / _EARTH_M_PER_DEG
    lon = -8.61 + np.cumsum(speed * dt * np.sin(heading)) \
        / (_EARTH_M_PER_DEG * np.cos(np.deg2rad(41.15)))
    acc = rng.uniform(3.0, 8.0, n)

    stream = SensorStream(t=t, ax=ax, ay=ay, az=az, gx=gx, gy=gy, gz=gz,
                          speed=speed, lat=lat, lon=lon, acc=acc)

    gridded = preprocess(stream)
    starts, _ = make_windows(gridded)
    boundaries = np.cumsum([0.0] + [d for _, d in schedule])
    labels = []
    for s in starts:
        times = gridded.t[s:s + WINDOW_SIZE]
        seg = np.clip(np.searchsorted(boundaries, times, side="right") - 1,
                      0, len(schedule) - 1)
        modes, tally = np.unique(seg, return_counts=True)
        labels.append(schedule[int(modes[tally.argmax()])][0])

    return SyntheticRide(stream=stream, sample_modes=sample_modes, window_labels=labels,
                         window_starts=starts)


FRAME_ZOOM = 1.002  # per-frame radial magnification about the focus
MIN_RENDER_SIZE = 32  # smallest frame width and height render_ride_frames textures


def render_ride_frames(dims, n_frames: int, seed: int = 0,
                       zoom: float = FRAME_ZOOM, focus=None):
    """Deterministic expanding-texture frame sequence.

    Pixels sample a fixed analytic field of random plane waves, magnified
    about `focus` by zoom**k at frame k, so any two frames are related by
    exact radial expansion, the way a forward-moving camera sees the world.
    Sampling the analytic field (instead of resampling a base image) keeps
    brightness constancy exact at every zoom level. Yields (index, uint8).
    Wave m's phase at (x, y) is A_m(x) + B_m(y), so by cos(A + B) = cos A cos B
    - sin A sin B a frame is two rank-48 products; np.einsum, not `@`, keeps
    their speed and bytes free of the BLAS thread count.
    """
    w, h = dims
    if w < MIN_RENDER_SIZE or h < MIN_RENDER_SIZE:
        raise InvalidInputError(f"frame size too small to texture: {dims}")
    if n_frames < 1:
        raise InvalidInputError("n_frames must be >= 1")
    if zoom <= 1.0:
        raise InvalidInputError("zoom must exceed 1 for expansion")
    rng = np.random.default_rng(seed)
    n_waves = 48
    lam = np.exp(rng.uniform(np.log(6.0), np.log(40.0), n_waves))
    theta = rng.uniform(0.0, 2.0 * np.pi, n_waves)
    kx, ky = (2.0 * np.pi / lam) * np.stack([np.cos(theta), np.sin(theta)])
    phase = rng.uniform(0.0, 2.0 * np.pi, n_waves)
    amp = rng.uniform(0.5, 1.0, n_waves)
    if focus is None:
        focus = (w / 2.0 + rng.uniform(-0.08, 0.08) * w,
                 h / 2.0 + rng.uniform(-0.08, 0.08) * h)
    fx, fy = float(focus[0]), float(focus[1])

    x, y = np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64)
    # 3.5 sigma of the near-Gaussian wave sum maps to full 8-bit range
    denom = 3.5 * np.sqrt(0.5 * (amp ** 2).sum())
    for k in range(n_frames):
        s = zoom ** k
        a = kx[:, None] * (fx + (x - fx) / s) + phase[:, None]    # (48, w)
        b = ky[:, None] * (fy + (y - fy) / s)                     # (48, h)
        field = (np.einsum("mh,mw->hw", np.cos(b), amp[:, None] * np.cos(a))
                 - np.einsum("mh,mw->hw", np.sin(b), amp[:, None] * np.sin(a)))
        img = np.clip(127.5 + 127.5 * field / denom, 0.0, 255.0)
        yield k, img.astype(np.uint8)


def script_detections(dims, frame_indices, seed: int = 0) -> list:
    """Scripted per-frame object sets cycling target levels 1, 2, 3.

    Placement uses the distance-based partition (which ignores the focus),
    so the intended level holds under the proximity criterion regardless of
    camera heading.
    """
    region_map = proximity_region_map(dims)
    out = []
    for ordinal, idx in enumerate(frame_indices):
        level = 1 + ordinal % 3
        out.extend(gen_risk_detections(region_map, level,
                                       seed=seed + 7919 * idx, frame=idx))
    return out
