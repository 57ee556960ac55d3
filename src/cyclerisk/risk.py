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


@dataclass
class RegionMap:
    """The partition of a frame into sub-regions 1..25, one criterion and
    frame size, row by row.

    Pixel row y is cut into runs: columns cuts[y, j] to cuts[y, j + 1] - 1
    belong to sub-region ids[y, j]. Each row's cuts rise from 0 to the frame
    width and may repeat, so a run may be empty. The module's layout tables
    give each id's color, band and cross-factor group; areas[k] is the pixel
    count of sub-region k.
    """

    criterion: str
    dims: tuple[int, int]
    cuts: np.ndarray   # (h, m + 1)
    ids: np.ndarray    # (h, m)
    runs: np.ndarray = field(init=False)    # (h, m) run lengths
    areas: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.criterion not in CRITERIA:
            raise InvalidInputError(f"unknown criterion {self.criterion!r}")
        w, h = self.dims
        self.cuts = np.asarray(self.cuts, dtype=np.intp)
        self.ids = np.asarray(self.ids, dtype=np.intp)
        if self.cuts.ndim != 2 or self.ids.shape != (h, self.cuts.shape[1] - 1):
            raise InvalidInputError(f"{self.ids.shape} runs do not match dims {self.dims}")
        self.runs = np.diff(self.cuts)
        if self.cuts[:, 0].any() or self.runs.min(initial=0) < 0 or (
                self.cuts[:, -1] != w).any():
            raise InvalidInputError("each row's cuts must rise from 0 to the frame width")
        if self.ids.min() < 1 or self.ids.max() > 25:
            raise InvalidInputError("sub-region ids must lie in 1..25")
        self.areas = np.bincount(self.ids.ravel(), self.runs.ravel(),
                                 minlength=26).astype(np.int64)

    @classmethod
    def from_assignment(cls, criterion: str, assignment) -> "RegionMap":
        """The map of an (h, w) raster of sub-region ids: one run per stretch
        of equal ids in a row."""
        a = np.asarray(assignment)
        if a.ndim != 2 or 0 in a.shape:
            raise InvalidInputError(f"an assignment is a 2-D raster, got shape {a.shape}")
        h, w = a.shape
        starts = np.ones(a.shape, dtype=bool)
        starts[:, 1:] = a[:, 1:] != a[:, :-1]
        rows, cols = np.nonzero(starts)
        count = starts.sum(axis=1)
        slot = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
        # rows with fewer runs end in empty ones
        cuts = np.full((h, count.max() + 1), w, dtype=np.intp)
        ids = np.ones((h, count.max()), dtype=np.intp)
        cuts[rows, slot] = cols
        ids[rows, slot] = a[rows, cols]
        return cls(criterion=criterion, dims=(w, h), cuts=cuts, ids=ids)

    @functools.cached_property
    def assignment(self) -> np.ndarray:
        """(h, w) int16 sub-region id of each pixel, built on first use."""
        w, h = self.dims
        return np.repeat(self.ids.astype(np.int16).ravel(), self.runs.ravel()).reshape(h, w)

    def counts_in(self, x0: int, x1: int, y0: int, y1: int) -> np.ndarray:
        """(26,) float pixel count of each sub-region in columns x0..x1-1 of
        rows y0..y1-1 (0 <= x0 <= x1 <= w, 0 <= y0 <= y1 <= h)."""
        inside = np.diff(np.clip(self.cuts[y0:y1], x0, x1))
        return np.bincount(self.ids[y0:y1].ravel(), inside.ravel(), minlength=26)

    def centroids(self) -> np.ndarray:
        """(26, 2) mean pixel-center position per sub-region; NaN if empty.

        The run over columns a..b-1 of row y sums its pixel-center x to
        (b^2 - a^2) / 2 and its y to (b - a)(y + 1/2). These are
        half-integers, and so are their sums below 2**53: exact in any order.
        """
        a, b = self.cuts[:, :-1], self.cuts[:, 1:]
        ids = self.ids.ravel()
        sx = np.bincount(ids, ((b * b - a * a) / 2.0).ravel(), minlength=26)
        ys = np.arange(len(self.cuts)) + 0.5
        sy = np.bincount(ids, (self.runs * ys[:, None]).ravel(), minlength=26)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.column_stack((sx, sy)) / self.areas[:, None]


# the runs of a lane row, left to right: green left, green right (right of a
# focus that lies left of the yellow wedge), yellow left, red, yellow right,
# green left (left of a focus right of the yellow wedge), green right; as the
# first id of each block
_LANE_RUN_BLOCKS = np.array((15, 20, 5, 0, 10, 15, 20))


def lane_region_map(foe, dims: tuple[int, int]) -> RegionMap:
    """Wedge partition around the focus of expansion.

    The focus is clamped into the frame. The central 40% of the bottom edge
    anchors the red wedge and the central 80% the yellow ones; four evenly
    spaced horizontal cuts between the focus height and the bottom edge make
    the row slabs, with everything above the focus joining each region's top
    slab. Green is split left/right at the focus.

    Each pixel row below the focus is cut where its pixel centers cross the
    four wedge edges: a center on a red edge is red, one on a yellow edge
    yellow. A center on the focus column is green right. Rows at and above
    the focus are green, cut at the focus column only.
    """
    w, h = dims
    if w < 5 or h < 5:
        raise InvalidInputError(f"frame too small for a 25-way partition: {dims}")
    fx, fy = np.clip(np.asarray(foe, dtype=np.float64)[:2], 0.0, (w - 1.0, h - 1.0)).tolist()
    xs = np.arange(w) + 0.5

    # height fraction from the focus toward the bottom edge, per pixel row;
    # <= 0 above
    s = (np.arange(h) + 0.5 - fy) / (h - fy)
    below = s > 0.0

    # per row, the wedge edges from the focus to their bottom-edge anchors
    # (yellow left, red left, red right, yellow right); each cut counts the
    # pixel centers strictly left of a left edge, or at or left of a right
    # edge. A row at or above the focus has no wedge: its cuts sit at the focus
    edges = fx + s[:, None] * (np.array((0.10, 0.30, 0.70, 0.90)) * w - fx)
    focus = np.searchsorted(xs, fx, side="left")
    cuts = np.empty((h, 8), dtype=np.intp)
    cuts[:, 0], cuts[:, 7] = 0, w
    cuts[:, 2:4] = np.searchsorted(xs, edges[:, :2], side="left")
    cuts[:, 4:6] = np.searchsorted(xs, edges[:, 2:], side="right")
    cuts[~below, 2:6] = focus
    np.minimum(cuts[:, 2], focus, out=cuts[:, 1])
    np.maximum(cuts[:, 5], focus, out=cuts[:, 6])

    # row slab from the bottom: 1 nearest the bottom edge, 5 at and above the
    # focus height
    band = np.ceil(np.clip(s, 0.0, 1.0) * 5.0).astype(np.int64)
    slab = np.where(below, 6 - np.clip(band, 1, 5), 5)
    return RegionMap(criterion=LANE, dims=dims, cuts=cuts,
                     ids=slab[:, None] + _LANE_RUN_BLOCKS)


def proximity_region_map(dims: tuple[int, int]) -> RegionMap:
    """Semicircular annuli around the bottom-center of the frame.

    DEFAULT_PROXIMITY_RADII are the annulus boundaries as fractions of the
    frame height; the fifth annulus is unbounded. Sectors split each annulus
    into five equal angles numbered left to right.
    """
    w, h = dims
    if w < 5 or h < 5:
        raise InvalidInputError(f"frame too small for a 25-way partition: {dims}")

    # pixel-center x as a (w,) row and y as an (h, 1) column, to broadcast
    xs, ys = np.arange(w) + 0.5, (np.arange(h) + 0.5)[:, None]
    dx = xs - w / 2.0
    dy = h - ys  # height above the bottom edge, always > 0 at pixel centers
    dist = np.hypot(dx, dy)
    bounds = np.asarray(DEFAULT_PROXIMITY_RADII, dtype=np.float64) * h
    annulus = np.searchsorted(bounds, dist, side="left") + 1  # 1..5, bound inclusive

    theta = np.arctan2(dy, dx)  # (0, pi), 0 at the right edge
    sector = 5 - np.clip(np.floor(theta / (np.pi / 5.0)).astype(np.int64), 0, 4)

    return RegionMap.from_assignment(PROXIMITY, (annulus - 1) * 5 + sector)


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
        counts = region_map.counts_in(x0, x1, y0, y1)
        values += coeff * det.score * (cell * counts * inv_area)[1:]

    return RiskDescriptor(values=values, criterion=region_map.criterion,
                          frame=frame, skipped_unknown=skipped)
