import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import risk_reference as ref
from cyclerisk.config import RiskConfig
from cyclerisk.errors import ConfigError, InvalidInputError
from cyclerisk.risk import (
    CROSS_GROUPS,
    SUBREGION_BANDS,
    SUBREGION_COLORS,
    Detection,
    RegionMap,
    RiskParams,
    default_cell_coeffs,
    lane_region_map,
    object_footprint,
    proximity_region_map,
    risk_descriptor,
)

DIMS = (480, 360)

# docs/formats.md: under both criteria ids 1-5 are red, 6-15 yellow, 16-25 green
DOC_COLORS = ("red",) * 5 + ("yellow",) * 10 + ("green",) * 10


def centered_lane_map():
    return lane_region_map((240.0, 180.0), DIMS)


class TestLaneMap:
    def test_partition_complete(self):
        m = centered_lane_map()
        assert m.assignment.min() >= 1 and m.assignment.max() <= 25
        assert m.areas[1:].sum() == 480 * 360

    def test_known_pixels(self):
        # hand-derived from the wedge geometry with the focus at (240, 180):
        # at the bottom row the red wedge spans x in [144.3, 335.7] and the
        # yellow wedges reach 48.5 and 431.5
        m = centered_lane_map().assignment
        assert m[359, 150] == 1    # red, bottom row
        assert m[359, 120] == 6    # yellow left, bottom row
        assert m[359, 400] == 11   # yellow right, bottom row
        assert m[359, 30] == 16    # green left, bottom row
        assert m[359, 460] == 21   # green right, bottom row
        assert m[10, 239] == 20    # above the focus: green left, top slab
        assert m[10, 240] == 25    # above the focus: green right, top slab

    def test_row_slab_boundary(self):
        # slab cuts at y = 216, 252, 288, 324 for focus height 180
        m = centered_lane_map().assignment
        assert m[215, 240] == 5  # above the first cut: top slab of red
        assert m[216, 240] == 4

    def test_focus_shift_moves_wedge(self):
        a = lane_region_map((140.0, 180.0), DIMS).assignment
        b = lane_region_map((340.0, 180.0), DIMS).assignment
        assert (a != b).any()

    def test_focus_clamped(self):
        m = lane_region_map((-50.0, 1000.0), DIMS)
        assert m.areas[1:].sum() == 480 * 360

    def test_metadata_tables(self):
        # the band is the row slab, bottom first; groups are the color regions
        assert SUBREGION_COLORS == DOC_COLORS
        assert SUBREGION_BANDS["lane"] == (1, 2, 3, 4, 5) * 5
        assert CROSS_GROUPS["lane"] == DOC_COLORS


class TestProximityMap:
    def test_partition_complete(self):
        m = proximity_region_map(DIMS)
        assert m.assignment.min() >= 1 and m.assignment.max() <= 25
        assert m.areas[1:].sum() == 480 * 360

    def test_known_pixels(self):
        # annulus bounds at 90/162/234/306 px from the bottom-center (240, 360)
        m = proximity_region_map(DIMS).assignment
        assert m[355, 240] == 3    # nearly straight down the middle: annulus 1
        assert m[252, 240] == 8    # 107.5 px up: annulus 2, middle sector
        assert m[359, 5] == 16     # far left on the bottom row: annulus 4, sector 1

    def test_annulus_colors(self):
        # the band and the group are the annulus, innermost first
        annuli = (1,) * 5 + (2,) * 5 + (3,) * 5 + (4,) * 5 + (5,) * 5
        assert SUBREGION_COLORS == DOC_COLORS
        assert SUBREGION_BANDS["proximity"] == annuli
        assert CROSS_GROUPS["proximity"] == annuli

    def test_mirror_symmetry(self):
        m = proximity_region_map(DIMS).assignment
        relabel = np.zeros(26, dtype=np.int16)
        for ann in range(1, 6):
            for sec in range(1, 6):
                relabel[(ann - 1) * 5 + sec] = (ann - 1) * 5 + (6 - sec)
        assert np.array_equal(relabel[m], m[:, ::-1])


class TestAgainstTiledReference:
    """The maps broadcast a pixel row against a pixel column; the tiled
    full-frame reference must give the same assignment and centroid bytes."""

    @settings(max_examples=150, deadline=None)
    @given(w=st.integers(5, 400), h=st.integers(5, 400),
           fx=st.floats(-1.0, 2.0), fy=st.floats(-1.0, 2.0))
    @example(w=5, h=5, fx=0.5, fy=0.5)
    @example(w=641, h=17, fx=0.3, fy=0.9)
    @example(w=17, h=641, fx=1.5, fy=-0.5)
    def test_lane_map_and_centroids(self, w, h, fx, fy):
        # the focus as a fraction of the frame: inside it, or up to a frame
        # beyond either edge
        foe = (fx * w, fy * h)
        rmap = lane_region_map(foe, (w, h))
        expected = ref.lane_assignment(foe, (w, h))
        assert rmap.assignment.tobytes() == expected.tobytes()
        assert rmap.centroids().tobytes() == ref.centroids(expected).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(w=st.integers(5, 400), h=st.integers(5, 400))
    @example(w=641, h=17)
    @example(w=17, h=641)
    def test_proximity_map_and_centroids(self, w, h):
        rmap = proximity_region_map((w, h))
        expected = ref.proximity_assignment((w, h))
        assert rmap.assignment.tobytes() == expected.tobytes()
        assert rmap.centroids().tobytes() == ref.centroids(expected).tobytes()


class TestFootprint:
    def test_fraction_dominates_tall_boxes(self):
        det = Detection(0, "car", 0.9, (100, 100, 40, 100))
        assert object_footprint(det, DIMS) == (100.0, 180.0, 40.0, 20.0)

    def test_floor_dominates_short_boxes(self):
        det = Detection(0, "car", 0.9, (100, 100, 40, 30))
        # 0.2 * 30 = 6 < 10, so the 10 px floor wins
        assert object_footprint(det, DIMS) == (100.0, 120.0, 40.0, 10.0)

    def test_config_sets_the_strip(self):
        det = Detection(0, "car", 0.9, (100, 100, 40, 100))
        cfg = RiskConfig(footprint_frac=0.5, footprint_min_px=60.0)
        assert object_footprint(det, DIMS, cfg) == (100.0, 140.0, 40.0, 60.0)
        rmap = centered_lane_map()
        assert not np.array_equal(risk_descriptor([det], rmap).values,
                                  risk_descriptor([det], rmap, cfg=cfg).values)

    def test_clamped_to_frame(self):
        det = Detection(0, "car", 0.9, (-20, 340, 60, 100))
        x, y, w, h = object_footprint(det, DIMS)
        assert x == 0.0 and w == 40.0
        assert h == 0.0  # strip lies entirely below the frame


def one_rect_map(dims=(100, 100), rect=(40, 70, 20, 10)):
    """Sub-region 1 is exactly the given rect; 2 is everything else."""
    w, h = dims
    rx, ry, rw, rh = rect
    assignment = np.full((h, w), 2, dtype=np.int16)
    assignment[ry:ry + rh, rx:rx + rw] = 1
    return RegionMap(criterion="lane", dims=dims, assignment=assignment)


class TestDescriptor:
    def test_exact_fill_single_cell(self):
        m = one_rect_map()
        cells = np.zeros(26)
        cells[1] = 1.0
        cells[2] = 0.3
        params = RiskParams(cell_coeffs=cells)
        # box bottom strip is max(0.2*50, 10) = 10 px: exactly the rect
        det = Detection(0, "car", 0.9, (40, 30, 20, 50))
        d = risk_descriptor([det], m, params)
        assert d.values[0] == pytest.approx(0.9)
        assert np.all(d.values[1:] == 0.0)

    def test_partial_overlap_scales_with_area_ratio(self):
        m = one_rect_map(rect=(40, 70, 20, 10))
        cells = np.zeros(26)
        cells[1] = 1.0
        params = RiskParams(cell_coeffs=cells)
        det = Detection(0, "car", 1.0, (40, 30, 10, 50))  # covers half the rect
        d = risk_descriptor([det], m, params)
        assert d.values[0] == pytest.approx(0.5)

    def test_additive_over_detections(self):
        m = centered_lane_map()
        a = Detection(0, "car", 0.8, (150, 250, 60, 80))
        b = Detection(0, "person", 0.6, (300, 200, 30, 60))
        da = risk_descriptor([a], m).values
        db = risk_descriptor([b], m).values
        dab = risk_descriptor([a, b], m).values
        assert np.allclose(dab, da + db, atol=1e-12)

    def test_score_monotone(self):
        m = centered_lane_map()
        lo = risk_descriptor([Detection(0, "car", 0.3, (150, 250, 60, 80))], m).values
        hi = risk_descriptor([Detection(0, "car", 0.9, (150, 250, 60, 80))], m).values
        assert np.allclose(hi, 3.0 * lo, atol=1e-12)
        assert hi.sum() > lo.sum() > 0

    def test_class_coefficients_scale(self):
        m = centered_lane_map()
        box = (150, 250, 60, 80)
        car = risk_descriptor([Detection(0, "car", 0.9, box)], m).values
        bike = risk_descriptor([Detection(0, "bicycle", 0.9, box)], m).values
        person = risk_descriptor([Detection(0, "person", 0.9, box)], m).values
        assert np.allclose(bike, 0.8 * car, atol=1e-12)
        assert np.allclose(person, 0.6 * car, atol=1e-12)

    def test_empty_scene_is_zero(self):
        d = risk_descriptor([], centered_lane_map())
        assert d.total == 0.0
        assert d.skipped_unknown == 0

    def test_unknown_class_skipped_and_counted(self):
        d = risk_descriptor([Detection(0, "truck", 0.9, (150, 250, 60, 80))],
                            centered_lane_map())
        assert d.total == 0.0
        assert d.skipped_unknown == 1

    def test_criterion_tag_carried(self):
        d = risk_descriptor([], proximity_region_map(DIMS), frame=17)
        assert d.criterion == "proximity"
        assert d.frame == 17


class TestCellCoeffs:
    def test_lane_values(self):
        coeffs = default_cell_coeffs("lane")
        assert not coeffs.flags.writeable  # shared by every descriptor
        assert np.allclose(coeffs[1:6], [1.0, 0.85, 0.7, 0.55, 0.4])
        assert np.allclose(coeffs[6:11], [0.6, 0.51, 0.42, 0.33, 0.24])
        assert np.allclose(coeffs[6:11], coeffs[11:16])
        assert np.allclose(coeffs[16:21], [0.3, 0.255, 0.21, 0.165, 0.12])
        assert np.allclose(coeffs[16:21], coeffs[21:26])

    def test_lane_orderings(self):
        c = default_cell_coeffs("lane")
        for base in (1, 6, 11, 16, 21):
            block = c[base:base + 5]
            assert (np.diff(block) < 0).all()  # strictly falls toward the top
        for row in range(5):
            assert c[1 + row] > c[6 + row] > c[16 + row]  # red > yellow > green

    def test_proximity_values(self):
        coeffs = default_cell_coeffs("proximity")
        assert np.allclose(coeffs[1:6], 1.0)
        assert np.allclose(coeffs[6:11], 0.51)
        assert np.allclose(coeffs[11:16], 0.42)
        assert np.allclose(coeffs[16:21], 0.165)
        assert np.allclose(coeffs[21:26], 0.12)
        # strictly falls with the annulus
        ann_values = [coeffs[1 + 5 * a] for a in range(5)]
        assert (np.diff(ann_values) < 0).all()


class TestValidation:
    def test_bad_score_rejected(self):
        with pytest.raises(InvalidInputError):
            Detection(0, "car", 1.5, (0, 0, 10, 10))

    def test_negative_box_rejected(self):
        with pytest.raises(InvalidInputError):
            Detection(0, "car", 0.5, (0, 0, -10, 10))

    def test_bad_cell_coeffs_rejected(self):
        with pytest.raises(InvalidInputError):
            RiskParams(cell_coeffs=np.zeros(25))
        for bad in (-1.0, np.nan, np.inf):
            cells = np.ones(26)
            cells[7] = bad
            with pytest.raises(InvalidInputError):
                RiskParams(cell_coeffs=cells)

    # the footprint is a RiskConfig setting, bounded where the section is built
    @pytest.mark.parametrize("kwargs", [
        {"footprint_min_px": -1.0}, {"footprint_min_px": float("nan")},
        {"footprint_frac": float("nan")}, {"footprint_frac": 0.0},
        {"footprint_frac": 1.5}, {"footprint_min_px": float("inf")},
    ])
    def test_bad_footprint_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RiskConfig(**kwargs)

    def test_bad_class_coeff_rejected(self):
        for bad in (1.7, float("nan")):
            with pytest.raises(InvalidInputError):
                RiskParams(class_coeffs={"car": bad})

    def test_bad_assignment_rejected(self):
        with pytest.raises(InvalidInputError):
            RegionMap(criterion="lane", dims=(10, 10),
                      assignment=np.zeros((10, 10), dtype=np.int16))

    def test_tiny_frame_rejected(self):
        with pytest.raises(InvalidInputError):
            lane_region_map((2.0, 2.0), (4, 4))


def test_descriptor_additivity_random_sets():
    rng = np.random.default_rng(42)
    m = centered_lane_map()
    labels = ["car", "bus", "motorcycle", "bicycle", "person"]
    for _ in range(25):
        n = int(rng.integers(2, 8))
        dets = [Detection(0, labels[int(rng.integers(0, 5))],
                          float(rng.uniform(0.1, 1.0)),
                          (float(rng.uniform(0, 440)), float(rng.uniform(0, 330)),
                           float(rng.uniform(5, 80)), float(rng.uniform(5, 90))))
                for _ in range(n)]
        split = n // 2
        da = risk_descriptor(dets[:split], m).values
        db = risk_descriptor(dets[split:], m).values
        dall = risk_descriptor(dets, m).values
        assert np.allclose(dall, da + db, atol=1e-9)
