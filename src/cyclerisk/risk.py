"""Context-aware risk descriptor over detected road users.

A frame is partitioned into 25 sub-regions by one of two criteria. The lane
criterion fans wedges out of the focus of expansion: a red wedge onto the
central 40% of the bottom edge, yellow wedges widening it to 80%, green for
the rest (split left/right at the focus), each sliced into five row slabs
between the focus height and the bottom edge. The proximity criterion rings
five semicircular annuli around the bottom-center of the frame, each cut into
five angular sectors, annulus 1 red, 2-3 yellow, 4-5 green.

Detected objects contribute to the sub-regions their ground footprint
touches, scaled by object class, detection confidence, and a per-sub-region
risk coefficient. Sub-region ids run 1..25 region-major with the bottom row
first; docs/formats.md freezes the numbering.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import RiskConfig
from .errors import InvalidInputError

LANE = "lane"
PROXIMITY = "proximity"
CRITERIA = (LANE, PROXIMITY)

RED = "red"
YELLOW = "yellow"
GREEN = "green"

# The frozen 25-sub-region layout (docs/formats.md). Sub-region k sits in
# block (k - 1) // 5 and slot (k - 1) % 5: a lane block is a region (red,
# yellow left, yellow right, green left, green right) and its slot the row
# slab from the bottom; a proximity block is an annulus from the center and
# its slot the sector from the left. Each table is indexed by k - 1.
SUBREGION_COLORS = tuple(c for c in (RED, YELLOW, YELLOW, GREEN, GREEN) for _ in range(5))
# band counted from the highest-risk side: the slot (lane) or the block (proximity)
SUBREGION_BANDS = {LANE: tuple(range(1, 6)) * 5,
                   PROXIMITY: tuple(b for b in range(1, 6) for _ in range(5))}
# ground-distance groups: the color region (lane) or the annulus (proximity)
CROSS_GROUPS = {LANE: SUBREGION_COLORS, PROXIMITY: SUBREGION_BANDS[PROXIMITY]}

# Risk coefficient building blocks: color base times a falloff by row slab
# (lane, bottom row first) or by annulus (proximity, innermost first).
COLOR_BASE = {RED: 1.0, YELLOW: 0.6, GREEN: 0.3}
ROW_FALLOFF = (1.0, 0.85, 0.7, 0.55, 0.4)

DEFAULT_CLASS_COEFFS = {
    "car": 1.0,
    "bus": 1.0,
    "motorcycle": 1.0,
    "bicycle": 0.8,
    "person": 0.6,
}

DEFAULT_PROXIMITY_RADII = (0.25, 0.45, 0.65, 0.85)


@dataclass
class Detection:
    """One detected object: class label, confidence, and (x, y, w, h) box."""

    frame: int
    label: str
    score: float
    bbox: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise InvalidInputError(f"score must be in [0, 1], got {self.score}")
        x, y, w, h = self.bbox
        if w < 0 or h < 0:
            raise InvalidInputError(f"box size must be nonnegative, got {self.bbox}")
        self.bbox = (float(x), float(y), float(w), float(h))


def _pixel_centers(w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center x as a (w,) row and y as an (h, 1) column, to broadcast."""
    return np.arange(w) + 0.5, (np.arange(h) + 0.5)[:, None]


@dataclass
class RegionMap:
    """Pixel-to-sub-region assignment for one criterion and frame size.

    assignment maps each pixel to a sub-region id 1..25, whose color, band
    and cross-factor group the module's layout tables give. areas[k] is the
    pixel count of sub-region k.
    """

    criterion: str
    dims: tuple[int, int]
    assignment: np.ndarray
    areas: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.criterion not in CRITERIA:
            raise InvalidInputError(f"unknown criterion {self.criterion!r}")
        a = np.asarray(self.assignment)
        w, h = self.dims
        if a.shape != (h, w):
            raise InvalidInputError(
                f"assignment shape {a.shape} does not match dims {self.dims}")
        if a.min() < 1 or a.max() > 25:
            raise InvalidInputError("sub-region ids must lie in 1..25")
        self.assignment = a.astype(np.int16)
        self.areas = np.bincount(a.ravel(), minlength=26).astype(np.int64)

    def centroids(self) -> np.ndarray:
        """(26, 2) mean pixel-center position per sub-region; NaN if empty."""
        w, h = self.dims
        xs, ys = _pixel_centers(w, h)
        # each pixel's (sub-region, column) and (sub-region, row) cell, in place;
        # sums over cells are of half-integers below 2**53, so exact in any order
        by_col = self.assignment.astype(np.intp)
        by_row = by_col * h
        by_row += np.arange(h)[:, None]
        by_col *= w
        by_col += np.arange(w)
        sx = np.bincount(by_col.ravel(), minlength=26 * w).reshape(26, w) @ xs
        sy = np.bincount(by_row.ravel(), minlength=26 * h).reshape(26, h) @ ys.ravel()
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.column_stack((sx, sy)) / self.areas[:, None]


def lane_region_map(foe, dims: tuple[int, int]) -> RegionMap:
    """Wedge partition around the focus of expansion.

    The focus is clamped into the frame. The central 40% of the bottom edge
    anchors the red wedge and the central 80% the yellow ones; four evenly
    spaced horizontal cuts between the focus height and the bottom edge make
    the row slabs, with everything above the focus joining each region's top
    slab.
    """
    w, h = dims
    if w < 5 or h < 5:
        raise InvalidInputError(f"frame too small for a 25-way partition: {dims}")
    fx = float(np.clip(np.asarray(foe, dtype=np.float64)[0], 0.0, w - 1.0))
    fy = float(np.clip(np.asarray(foe, dtype=np.float64)[1], 0.0, h - 1.0))
    xs, ys = _pixel_centers(w, h)

    # height fraction from the focus toward the bottom edge, per row; <= 0 above
    s = (ys - fy) / (h - fy)
    below = s > 0.0

    def edge(bottom_x: float) -> np.ndarray:
        # wedge edge from the focus to a bottom-edge anchor, per pixel row
        return fx + s * (bottom_x - fx)

    red_l, red_r = edge(0.30 * w), edge(0.70 * w)
    yel_l, yel_r = edge(0.10 * w), edge(0.90 * w)

    in_red = below & (xs >= red_l) & (xs <= red_r)
    in_yl = below & ~in_red & (xs >= yel_l) & (xs < red_l)
    in_yr = below & ~in_red & (xs > red_r) & (xs <= yel_r)
    left = xs < fx
    region_idx = np.where(
        in_red, 0, np.where(in_yl, 1, np.where(in_yr, 2, np.where(left, 3, 4))))

    # row slab from the bottom: 1 nearest the bottom edge, 5 at and above the
    # focus height
    band = np.ceil(np.clip(s, 0.0, 1.0) * 5.0).astype(np.int64)
    row_from_bottom = np.where(below, 6 - np.clip(band, 1, 5), 5)

    assignment = region_idx * 5 + row_from_bottom
    return RegionMap(criterion=LANE, dims=dims, assignment=assignment)


def proximity_region_map(dims: tuple[int, int]) -> RegionMap:
    """Semicircular annuli around the bottom-center of the frame.

    DEFAULT_PROXIMITY_RADII are the annulus boundaries as fractions of the
    frame height; the fifth annulus is unbounded. Sectors split each annulus
    into five equal angles numbered left to right.
    """
    w, h = dims
    if w < 5 or h < 5:
        raise InvalidInputError(f"frame too small for a 25-way partition: {dims}")

    xs, ys = _pixel_centers(w, h)
    dx = xs - w / 2.0
    dy = h - ys  # height above the bottom edge, always > 0 at pixel centers
    dist = np.hypot(dx, dy)
    bounds = np.asarray(DEFAULT_PROXIMITY_RADII, dtype=np.float64) * h
    annulus = np.searchsorted(bounds, dist, side="left") + 1  # 1..5, bound inclusive

    theta = np.arctan2(dy, dx)  # (0, pi), 0 at the right edge
    sector = 5 - np.clip(np.floor(theta / (np.pi / 5.0)).astype(np.int64), 0, 4)

    assignment = (annulus - 1) * 5 + sector
    return RegionMap(criterion=PROXIMITY, dims=dims, assignment=assignment)


def region_map_for(criterion: str, foe, dims: tuple[int, int]) -> RegionMap:
    if criterion == LANE:
        return lane_region_map(foe, dims)
    if criterion == PROXIMITY:
        return proximity_region_map(dims)
    raise InvalidInputError(f"unknown criterion {criterion!r}")


@functools.cache
def default_cell_coeffs(criterion: str) -> np.ndarray:
    """Per-sub-region risk coefficient: color base times band falloff.

    26 read-only entries, index 0 unused. Falls off strictly from the bottom
    row to the top row within each lane region, and from the innermost
    annulus outward for proximity.
    """
    coeffs = np.array([0.0] + [COLOR_BASE[c] * ROW_FALLOFF[b - 1] for c, b in
                               zip(SUBREGION_COLORS, SUBREGION_BANDS[criterion])])
    coeffs.flags.writeable = False
    return coeffs


@dataclass
class RiskParams:
    """Descriptor coefficients, the two a `--gamma-profile` file may set.

    class_coeffs scales by object class; cell_coeffs (26 entries, index 0
    unused) scales by sub-region and defaults to color-base times band
    falloff for the map in use.
    """

    class_coeffs: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_COEFFS))
    cell_coeffs: np.ndarray | None = None

    def __post_init__(self) -> None:
        for label, c in self.class_coeffs.items():
            if not 0.0 < c <= 1.0:
                raise InvalidInputError(
                    f"class coefficient for {label!r} must be in (0, 1], got {c}")
        if self.cell_coeffs is not None:
            cc = np.asarray(self.cell_coeffs, dtype=np.float64)
            if cc.shape != (26,):
                raise InvalidInputError("cell_coeffs must have 26 entries")
            if not ((cc[1:] >= 0) & (cc[1:] < np.inf)).all():
                raise InvalidInputError("cell coefficients must be finite and nonnegative")
            self.cell_coeffs = cc


def object_footprint(det: Detection, dims: tuple[int, int],
                     cfg: RiskConfig = RiskConfig()) -> tuple[float, float, float, float]:
    """Ground-contact strip of a detection, clamped to the frame.

    The strip keeps the box width and hugs the box bottom with height
    max(cfg.footprint_frac * box_height, cfg.footprint_min_px).
    """
    w, h = dims
    x, y, bw, bh = det.bbox
    fh = max(cfg.footprint_frac * bh, cfg.footprint_min_px)
    fy = y + bh - fh
    x0 = float(np.clip(x, 0.0, w))
    x1 = float(np.clip(x + bw, 0.0, w))
    y0 = float(np.clip(fy, 0.0, h))
    y1 = float(np.clip(fy + fh, 0.0, h))
    return (x0, y0, max(x1 - x0, 0.0), max(y1 - y0, 0.0))


def descriptor_bins(values) -> np.ndarray:
    """The 25 bins as float64, rejecting another count or negative or
    non-finite mass.

    The total must be finite too, since retrieval divides by it; a finite
    total also rules out any non-finite bin.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size != 25:
        raise InvalidInputError(f"a descriptor has 25 bins, got {v.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        total = v.sum()
    if not (np.isfinite(total) and (v >= 0).all()):
        raise InvalidInputError(
            "descriptor bins must be nonnegative with a finite total")
    return v


@dataclass
class RiskDescriptor:
    """25-bin occupancy-risk histogram for one frame."""

    values: np.ndarray
    criterion: str
    frame: int = 0
    skipped_unknown: int = 0

    def __post_init__(self) -> None:
        self.values = descriptor_bins(self.values)

    @property
    def total(self) -> float:
        return float(self.values.sum())


def risk_descriptor(
    detections,
    region_map: RegionMap,
    params: RiskParams | None = None,
    frame: int = 0,
    cfg: RiskConfig = RiskConfig(),
) -> RiskDescriptor:
    """Accumulate footprint occupancy into the 25 sub-region bins.

    Each known-class detection adds class_coeff * score * cell_coeff *
    (footprint pixels inside the sub-region / sub-region pixels) to every
    sub-region its footprint touches; cfg sets the footprint strip. Unknown
    classes are skipped and counted. No detections means a legitimately
    all-zero descriptor.
    """
    params = params or RiskParams()
    cell = params.cell_coeffs
    if cell is None:
        cell = default_cell_coeffs(region_map.criterion)

    w, h = region_map.dims
    values = np.zeros(25, dtype=np.float64)
    skipped = 0
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_area = np.where(region_map.areas > 0, 1.0 / region_map.areas, 0.0)

    for det in detections:
        coeff = params.class_coeffs.get(det.label)
        if coeff is None:
            skipped += 1
            continue
        fx, fy, fw, fh = object_footprint(det, region_map.dims, cfg)
        x0 = int(np.floor(fx))
        x1 = int(np.ceil(fx + fw))
        y0 = int(np.floor(fy))
        y1 = int(np.ceil(fy + fh))
        x0, x1 = max(x0, 0), min(x1, w)
        y0, y1 = max(y0, 0), min(y1, h)
        if x0 >= x1 or y0 >= y1:
            continue
        counts = np.bincount(region_map.assignment[y0:y1, x0:x1].ravel(),
                             minlength=26).astype(np.float64)
        values += coeff * det.score * (cell * counts * inv_area)[1:]

    return RiskDescriptor(values=values, criterion=region_map.criterion,
                          frame=frame, skipped_unknown=skipped)
