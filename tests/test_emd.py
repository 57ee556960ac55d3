import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclerisk.emd
from cyclerisk.emd import (
    RiskLevel,
    RiskTrainingSet,
    TrainingItem,
    build_distance_matrix,
    classify_risk,
    emd,
    transfer_lower_bounds,
)
from cyclerisk import fileio
from cyclerisk.config import EmdConfig
from cyclerisk.errors import InvalidInputError, ZeroMassError
from cyclerisk.risk import (
    RegionMap,
    RiskDescriptor,
    lane_region_map,
    proximity_region_map,
    risk_descriptor,
)
from cyclerisk.synth import gen_risk_detections
from emd_reference import lp_transport, relaxed_lower_bounds

DIMS = (480, 360)


def support_plan(a, b, dist):
    """The exact plan between unit-normalized a and b, on their supports.

    Returns the plan and the support indices of a and of b.
    """
    a, b = a / a.sum(), b / b.sum()
    ia, ib = np.flatnonzero(a), np.flatnonzero(b)
    plan = cyclerisk.emd._min_cost_transport(a[ia].tolist(), b[ib].tolist(),
                                             dist[np.ix_(ia, ib)])
    return np.array(plan), ia, ib


def brute_force_neighbors(values, train, dist, k):
    """All-pairs k nearest: one exact solve per usable training item.

    Returns the usable items and the k nearest as (distance, index into
    them) pairs, in (distance, index) order.
    """
    usable = [it for it in train.items if it.values.sum() > 0.0]
    dists = np.array([emd(values, it.values, dist) for it in usable])
    order = np.lexsort((np.arange(len(usable)), dists))
    return usable, [(float(dists[i]), int(i)) for i in order[:min(k, len(usable))]]


def brute_force_classify(values, train, dist, k):
    """All-pairs retrieval: one exact solve per usable training item."""
    values = np.asarray(values, dtype=np.float64).reshape(25)
    if values.sum() <= 0.0:
        return RiskLevel(level=1, neighbor_distances=(), votes={})
    usable, nearest = brute_force_neighbors(values, train, dist, k)
    votes, sums = {}, {}
    for d, idx in nearest:
        lv = usable[idx].level
        votes[lv] = votes.get(lv, 0) + 1
        sums[lv] = sums.get(lv, 0.0) + d
    top = max(votes.values())
    tied = sorted(lv for lv, c in votes.items() if c == top)
    winner = min(tied, key=lambda lv: (sums[lv], lv))
    return RiskLevel(level=winner,
                     neighbor_distances=tuple(d for d, _ in nearest),
                     votes=votes)


def sparse_signature(rng, keep):
    """g04-style random signature: uniform bins, each kept with prob keep."""
    while True:
        v = rng.uniform(0, 1, 25) * (rng.uniform(0, 1, 25) < keep)
        if v.sum() > 0.0:
            return v


@pytest.fixture(scope="module")
def lane_D():
    return build_distance_matrix(lane_region_map((240.0, 180.0), DIMS))


@pytest.fixture(scope="module")
def prox_D():
    return build_distance_matrix(proximity_region_map(DIMS))


class TestDistanceMatrix:
    def test_shape_and_basic_invariants(self, lane_D, prox_D):
        for D in (lane_D, prox_D):
            assert D.shape == (25, 25)
            assert np.allclose(D, D.T)
            assert np.all(np.diag(D) == 0.0)
            assert np.all(D >= 0.0)

    def test_mirror_pairs_are_zero(self, lane_D, prox_D):
        # even frame width: left/right centroids reflect exactly onto each other
        assert lane_D[5, 10] == 0.0    # yellow_left row 1 vs yellow_right row 1
        assert lane_D[9, 14] == 0.0
        assert lane_D[15, 20] == 0.0   # green_left row 1 vs green_right row 1
        assert prox_D[0, 4] == 0.0     # annulus 1, sector 1 vs sector 5
        assert prox_D[1, 3] == 0.0
        assert prox_D[6, 8] == 0.0

    def test_cross_penalty_doubles_distance(self):
        # uniform 5x5 grid of 10x10 cells numbered row by row: under the lane
        # layout the top row (ids 1-5) is red and the next (6-10) yellow, so a
        # horizontal and a vertical neighbor share geometry but not the group
        assignment = np.repeat(np.repeat(
            np.arange(1, 26, dtype=np.int16).reshape(5, 5), 10, axis=0), 10, axis=1)
        m = RegionMap.from_assignment("lane", assignment)
        D = build_distance_matrix(m, cross_factor=2.0)
        same = D[0, 1]   # cells 1 and 2: red-red, 10 px apart
        cross = D[0, 5]  # cells 1 and 6: red-yellow, 10 px apart
        assert same == pytest.approx(10.0 / np.hypot(50, 50))
        assert cross == pytest.approx(2.0 * same)

    @pytest.mark.parametrize("factor", [1.0, 2.0, 3.7])
    def test_cross_factor_applies_per_group_pair(self, factor):
        # docs/formats.md: lane groups are ids 1-5, 6-15 and 16-25 (the
        # colors); proximity groups are the five annuli of five ids each
        groups = {"lane": (1,) * 5 + (2,) * 10 + (3,) * 10,
                  "proximity": tuple(k // 5 for k in range(25))}
        maps = [proximity_region_map(DIMS)] + [
            lane_region_map(foe, DIMS) for foe in
            ((240.0, 180.0), (100.5, 60.25), (430.0, 300.0))]
        for m in maps:
            g = groups[m.criterion]
            cross = np.array([[1.0 if gi == gj else factor for gj in g]
                              for gi in g])
            plain = build_distance_matrix(m, cross_factor=1.0)
            D = build_distance_matrix(m, cross_factor=factor)
            assert D.tobytes() == (plain * cross).tobytes()

    def test_empty_subregions_stay_finite(self, prox_D):
        # a 4:3 frame leaves the outermost annulus corner sectors without any
        # pixels; those bins can never carry mass, but entries must stay finite
        areas = proximity_region_map(DIMS).areas
        assert areas[21] == 0 and areas[25] == 0
        assert np.isfinite(prox_D).all()
        assert prox_D[20, 24] == 0.0  # the two placeholders mirror onto each other

    def test_bad_cross_factor(self):
        m = lane_region_map((240.0, 180.0), DIMS)
        for factor in (0.5, float("nan"), float("inf")):
            with pytest.raises(InvalidInputError):
                build_distance_matrix(m, cross_factor=factor)
            with pytest.raises(InvalidInputError):
                RiskTrainingSet(criterion="lane", items=[], cross_factor=factor)


class TestTransportValue:
    def test_singleton_signatures_equal_ground_distance(self, lane_D):
        for i, j in [(0, 7), (3, 21), (12, 24), (5, 10), (9, 9)]:
            a = np.zeros(25)
            b = np.zeros(25)
            a[i] = 1.0
            b[j] = 1.0
            assert emd(a, b, lane_D) == pytest.approx(lane_D[i, j], abs=1e-12)

    def test_matches_dense_lp(self, lane_D, prox_D):
        rng = np.random.default_rng(314)
        for trial in range(30):
            D = lane_D if trial % 2 == 0 else prox_D
            a = rng.uniform(0, 1, 25) * (rng.uniform(0, 1, 25) < 0.5)
            b = rng.uniform(0, 1, 25) * (rng.uniform(0, 1, 25) < 0.5)
            if a.sum() == 0:
                a[int(rng.integers(0, 25))] = 1.0
            if b.sum() == 0:
                b[int(rng.integers(0, 25))] = 1.0
            ours = emd(a, b, D)
            ref = lp_transport(a, b, D)
            assert ours == pytest.approx(ref, abs=1e-6)

    def test_symmetry_and_self_distance(self, lane_D):
        rng = np.random.default_rng(99)
        for _ in range(10):
            a = rng.uniform(0, 1, 25)
            b = rng.uniform(0, 1, 25)
            assert emd(a, b, lane_D) == pytest.approx(emd(b, a, lane_D), abs=1e-10)
            assert emd(a, a, lane_D) == pytest.approx(0.0, abs=1e-12)

    def test_mass_scale_invariance(self, lane_D):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 1, 25)
        b = rng.uniform(0, 1, 25)
        base = emd(a, b, lane_D)
        assert emd(5.0 * a, b, lane_D) == pytest.approx(base, abs=1e-12)
        assert emd(a, 0.01 * b, lane_D) == pytest.approx(base, abs=1e-12)

    def test_flow_is_a_valid_plan(self, lane_D):
        rng = np.random.default_rng(55)
        a = rng.uniform(0, 1, 25)
        b = rng.uniform(0, 1, 25)
        plan, ia, ib = support_plan(a, b, lane_D)
        assert plan.shape == (25, 25)
        assert np.all(plan >= -1e-15)
        assert np.allclose(plan.sum(axis=1), a / a.sum(), atol=1e-9)
        assert np.allclose(plan.sum(axis=0), b / b.sum(), atol=1e-9)
        assert emd(a, b, lane_D) == pytest.approx(
            float((plan * lane_D[np.ix_(ia, ib)]).sum()), abs=1e-10)

    def test_zero_mass_rejected(self, lane_D):
        with pytest.raises(ZeroMassError):
            emd(np.zeros(25), np.ones(25), lane_D)

    def test_negative_mass_rejected(self, lane_D):
        bad = np.ones(25)
        bad[3] = -0.5
        with pytest.raises(InvalidInputError):
            emd(bad, np.ones(25), lane_D)

    def test_shape_mismatch_rejected(self, lane_D):
        with pytest.raises(InvalidInputError):
            emd(np.ones(10), np.ones(25), lane_D)

    @pytest.mark.parametrize("bins", [{7: np.nan}, {7: np.inf},
                                      {3: 1e308, 9: 1e308}],
                             ids=["nan", "inf", "overflowing-total"])
    def test_non_finite_mass_rejected(self, lane_D, bins):
        bad = np.ones(25)
        for i, v in bins.items():
            bad[i] = v
        for a, b in ((bad, np.ones(25)), (np.ones(25), bad)):
            with pytest.raises(InvalidInputError):
                emd(a, b, lane_D)


def singleton(i, mass=1.0):
    v = np.zeros(25)
    v[i] = mass
    return v


def chain_matrix():
    """Metric line: D[i, j] = |i - j| / 25."""
    idx = np.arange(25, dtype=float)
    return np.abs(idx[:, None] - idx[None, :]) / 25.0


class TestClassify:
    def test_majority_vote(self):
        D = chain_matrix()
        train = RiskTrainingSet(criterion="lane", items=[
            TrainingItem(singleton(1), 2),
            TrainingItem(singleton(2), 2),
            TrainingItem(singleton(3), 1),
            TrainingItem(singleton(20), 3),
            TrainingItem(singleton(21), 3),
        ])
        out = classify_risk(singleton(0), train, D, EmdConfig(k=3))
        assert out.level == 2
        assert out.votes == {1: 1, 2: 2}
        assert len(out.neighbor_distances) == 3

    def test_tie_broken_by_summed_distance(self):
        D = chain_matrix()
        train = RiskTrainingSet(criterion="lane", items=[
            TrainingItem(singleton(1), 1),   # distance 1/25
            TrainingItem(singleton(2), 3),   # distance 2/25
        ])
        out = classify_risk(singleton(0), train, D, EmdConfig(k=2))
        assert out.level == 1

    def test_tie_broken_by_lower_level(self):
        D = chain_matrix()
        # both neighbors sit at the same distance from the query
        train = RiskTrainingSet(criterion="lane", items=[
            TrainingItem(singleton(4), 3),
            TrainingItem(singleton(8), 2),
        ])
        out = classify_risk(singleton(6), train, D, EmdConfig(k=2))
        assert out.level == 2

    def test_zero_mass_query_defaults_low(self):
        D = chain_matrix()
        train = RiskTrainingSet(criterion="lane", items=[
            TrainingItem(singleton(4), 3),
        ])
        out = classify_risk(np.zeros(25), train, D, EmdConfig(k=5))
        assert out.level == 1
        assert out.neighbor_distances == ()

    def test_zero_mass_training_items_skipped(self):
        D = chain_matrix()
        train = RiskTrainingSet(criterion="lane", items=[
            TrainingItem(np.zeros(25), 3),
            TrainingItem(singleton(1), 2),
        ])
        out = classify_risk(singleton(0), train, D, EmdConfig(k=5))
        assert out.level == 2

    def test_all_training_mass_zero_rejected(self):
        D = chain_matrix()
        train = RiskTrainingSet(criterion="lane", items=[
            TrainingItem(np.zeros(25), 1),
        ])
        with pytest.raises(ZeroMassError):
            classify_risk(singleton(0), train, D, EmdConfig(k=5))

    def test_accepts_descriptor_object(self):
        D = chain_matrix()
        train = RiskTrainingSet(criterion="lane", items=[
            TrainingItem(singleton(2), 3),
        ])
        desc = RiskDescriptor(values=singleton(1), criterion="lane")
        out = classify_risk(desc, train, D, EmdConfig(k=1))
        assert out.level == 3

    def test_k_clipped_to_training_size(self):
        D = chain_matrix()
        train = RiskTrainingSet(criterion="lane", items=[
            TrainingItem(singleton(1), 2),
            TrainingItem(singleton(2), 2),
        ])
        out = classify_risk(singleton(0), train, D, EmdConfig(k=50))
        assert out.level == 2
        assert len(out.neighbor_distances) == 2

    def test_bad_level_rejected(self):
        with pytest.raises(InvalidInputError):
            TrainingItem(singleton(1), 4)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_bad_bins_rejected(self, bad):
        v = singleton(1)
        v[7] = bad
        with pytest.raises(InvalidInputError):
            TrainingItem(v, 2)
        with pytest.raises(InvalidInputError):
            RiskDescriptor(values=v, criterion="lane")
        train = RiskTrainingSet(criterion="lane", items=[TrainingItem(singleton(2), 3)])
        with pytest.raises(InvalidInputError):
            classify_risk(v, train, chain_matrix(), EmdConfig(k=1))

    def test_overflowing_total_rejected(self):
        # every bin is finite, but their sum is not: the bound and the
        # solver both divide by it
        v = singleton(1, 1e308) + singleton(2, 1e308)
        with pytest.raises(InvalidInputError, match="finite total"):
            TrainingItem(v, 2)
        with pytest.raises(InvalidInputError, match="finite total"):
            RiskDescriptor(values=v, criterion="lane")
        train = RiskTrainingSet(criterion="lane", items=[TrainingItem(singleton(2), 3)])
        with pytest.raises(InvalidInputError, match="finite total"):
            classify_risk(v, train, chain_matrix(), EmdConfig(k=1))


class TestPrunedRetrieval:
    def test_matches_brute_force(self, lane_D, prox_D):
        rng = np.random.default_rng(808)
        for D in (lane_D, prox_D):
            for _ in range(2):
                base = [sparse_signature(rng, rng.choice([0.1, 0.3, 0.7]))
                        for _ in range(20)]
                # duplicates of earlier items, in both scales, plus an empty one
                values = base + [base[2], 3.0 * base[5], base[5], np.zeros(25)]
                train = RiskTrainingSet(criterion="lane", items=[
                    TrainingItem(v, int(rng.integers(1, 4))) for v in values])
                # queries equal to training items tie exactly at distance 0
                queries = [base[2], base[5], sparse_signature(rng, 0.3),
                           sparse_signature(rng, 0.1)]
                for q in queries:
                    for k in (1, 3, 5, 50):
                        got = classify_risk(q, train, D, EmdConfig(k=k))
                        want = brute_force_classify(q, train, D, k)
                        assert got.level == want.level
                        assert got.votes == want.votes
                        assert got.neighbor_distances == want.neighbor_distances

    def test_tie_at_kth_distance_is_solved(self):
        # the lower-index item ties the k-th exact distance and its bound
        # equals it, so it must still be solved and win the index tie-break
        D = chain_matrix()
        late = singleton(2, 0.5) + singleton(7, 0.5)    # bound 0.10 = EMD 0.10
        early = singleton(3, 0.5) + singleton(6, 0.5)   # bound 0.08 < EMD 0.10
        train = RiskTrainingSet(criterion="lane", items=[
            TrainingItem(late, 3), TrainingItem(early, 1)])
        query = singleton(0, 0.5) + singleton(4, 0.5)
        bounds = transfer_lower_bounds(query, [late, early], D)
        assert bounds[1] < bounds[0] == emd(query, late, D) == emd(query, early, D)
        got = classify_risk(query, train, D, EmdConfig(k=1))
        assert got == brute_force_classify(query, train, D, 1)
        assert got.level == 3

    def test_bound_below_dense_lp(self, lane_D, prox_D):
        rng = np.random.default_rng(404)
        ratios = []
        for D in (lane_D, prox_D):
            for trial in range(60):
                keep = 0.7 if trial % 2 else 0.3
                a = sparse_signature(rng, keep)
                b = sparse_signature(rng, keep)
                bound = transfer_lower_bounds(a, b[None, :], D)[0]
                ref = lp_transport(a, b, D)
                assert bound <= ref + 1e-9
                ratios.append(bound / ref)
        assert np.median(ratios) > 0.5   # the bound is far from vacuous

    def test_prunes_solves_on_retrieval_set(self, monkeypatch):
        rmap = proximity_region_map(DIMS)
        D = build_distance_matrix(rmap)
        by_level = {lv: [risk_descriptor(
            gen_risk_detections(rmap, lv, seed=50_000 + 1000 * lv + i, frame=i),
            rmap, frame=i).values for i in range(100)] for lv in (1, 2, 3)}
        train = RiskTrainingSet(criterion="proximity", items=[
            TrainingItem(values=v, level=lv)
            for lv in (1, 2, 3) for v in by_level[lv][:75]])
        queries = [v for lv in (1, 2, 3) for v in by_level[lv][75:]]
        calls = []

        def counted(a, b, dist):
            calls.append(1)
            return emd(a, b, dist)

        monkeypatch.setattr(cyclerisk.emd, "emd", counted)
        k = 5
        got = []
        for q in queries:
            before = len(calls)
            got.append(classify_risk(q, train, D, EmdConfig(k=k)))
            assert len(calls) - before >= k
        assert len(calls) < len(queries) * len(train.items)

        # the ICT bound is never below RWMD, and here it prunes at least as
        # much, with the same answers
        ict_solves = len(calls)
        monkeypatch.setattr(cyclerisk.emd, "transfer_lower_bounds",
                            relaxed_lower_bounds)
        calls.clear()
        assert [classify_risk(q, train, D, EmdConfig(k=k)) for q in queries] == got
        assert ict_solves <= len(calls)


class TestRideRetrieval:
    @pytest.mark.parametrize("criterion", ["lane", "proximity"])
    def test_pruned_matches_brute_force_on_ride(self, e2e_workspace, monkeypatch,
                                                criterion):
        # the e2e bike ride has road users on every bike frame pair; the
        # retrieval must find the very items brute force finds, not only
        # equal distances
        dims = (240, 180)
        rmap = (lane_region_map((120.0, 90.0), dims) if criterion == "lane"
                else proximity_region_map(dims))
        D = build_distance_matrix(rmap)
        train = RiskTrainingSet(criterion=criterion, items=[
            TrainingItem(risk_descriptor(gen_risk_detections(
                rmap, lv, seed=1000 * lv + s, frame=s), rmap, frame=s).values, lv)
            for lv in (1, 2, 3) for s in range(30)])
        index = {id(it.values): i for i, it in
                 enumerate(it for it in train.items if it.values.sum() > 0.0)}
        by_frame = {}
        for det in fileio.read_detections(e2e_workspace["ride_bike"] / "detections.ndjson"):
            by_frame.setdefault(det.frame, []).append(det)
        assert sorted(by_frame) == list(range(0, 200, 5))

        solved = []

        def recorded(a, b, dist):
            value = emd(a, b, dist)
            solved.append((value, index[id(b)]))
            return value

        monkeypatch.setattr(cyclerisk.emd, "emd", recorded)
        k = EmdConfig().k
        for frame, dets in sorted(by_frame.items()):
            query = risk_descriptor(dets, rmap, frame=frame).values
            assert query.sum() > 0.0
            solved.clear()
            got = classify_risk(query, train, D, EmdConfig(k=k))
            _, nearest = brute_force_neighbors(query, train, D, k)
            want = brute_force_classify(query, train, D, k)
            assert sorted(solved)[:k] == nearest
            assert got.neighbor_distances == tuple(d for d, _ in nearest)
            assert (got.level, got.votes) == (want.level, want.votes)


@st.composite
def signatures(draw, allow_empty=False):
    """25 bins, each empty or a positive mass; nonempty unless allowed."""
    bins = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                         min_size=25, max_size=25))
    v = np.array(bins)
    if not allow_empty and v.sum() == 0.0:
        v[draw(st.integers(0, 24))] = 1.0
    return v


@st.composite
def retrieval_cases(draw):
    """A training set with duplicates, scaled copies and zero-mass items,
    a query (fresh, empty, or a scaled copy of an item) and a k from 1 to
    beyond the set's size."""
    values = [draw(signatures())]
    for _ in range(draw(st.integers(0, 11))):
        kind = draw(st.sampled_from(["fresh", "duplicate", "scaled", "empty"]))
        if kind == "fresh":
            values.append(draw(signatures()))
        elif kind == "empty":
            values.append(np.zeros(25))
        else:
            src = values[draw(st.integers(0, len(values) - 1))]
            scale = 1.0 if kind == "duplicate" else draw(
                st.sampled_from([1e-3, 0.5, 3.0, 1e4]))
            values.append(scale * src)
    levels = draw(st.lists(st.integers(1, 3), min_size=len(values),
                           max_size=len(values)))
    query = draw(st.one_of(
        signatures(allow_empty=True),
        st.tuples(st.sampled_from(values), st.sampled_from([1.0, 0.25, 8.0]))
        .map(lambda vs: vs[0] * vs[1])))
    k = draw(st.integers(1, len(values) + 2))
    return values, levels, query, k


GROUNDS = [(c, f) for c in ("lane", "proximity") for f in (1.0, 2.0, 7.5)]


@functools.cache
def ground(criterion, factor):
    rmap = (lane_region_map((240.0, 180.0), DIMS) if criterion == "lane"
            else proximity_region_map(DIMS))
    return build_distance_matrix(rmap, cross_factor=factor)


class TestTransferBound:
    @pytest.mark.parametrize("factor", [1.0, 2.0, 7.5])
    def test_below_dense_lp(self, factor):
        rng = np.random.default_rng(int(factor * 10))
        for criterion in ("lane", "proximity"):
            D = ground(criterion, factor)
            for keep in (0.1, 0.3, 0.7, 1.0):   # 1.0: full support
                for _ in range(6):
                    a = sparse_signature(rng, keep)
                    b = sparse_signature(rng, keep)
                    bound = transfer_lower_bounds(a, b[None, :], D)[0]
                    assert bound <= lp_transport(a, b, D) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(query=signatures(), items=st.lists(signatures(), min_size=1, max_size=8),
           key=st.sampled_from(GROUNDS))
    def test_between_rwmd_and_emd(self, query, items, key):
        D = ground(*key)
        ict = transfer_lower_bounds(query, items, D)
        assert ict.shape == (len(items),)
        assert (ict >= relaxed_lower_bounds(query, items, D) - 1e-12).all()
        exact = np.array([emd(query, t, D) for t in items])
        assert (ict <= exact + 1e-12).all()

    def test_edge_caps_tighten_the_bound(self):
        # each side's nearest bin is too small to take all the mass: RWMD
        # ships it there anyway, ICT sends the rest on to the far bin
        D = chain_matrix()
        query = singleton(0, 0.5) + singleton(20, 0.5)
        item = singleton(1, 0.1) + singleton(19, 0.9)
        assert relaxed_lower_bounds(query, [item], D)[0] == pytest.approx(1 / 25)
        ict = transfer_lower_bounds(query, [item], D)[0]
        assert ict == pytest.approx(8.2 / 25)
        assert ict == pytest.approx(emd(query, item, D))

    def test_max_of_both_directions(self):
        # query bins 0 and 1 both fill item bin 0 in the forward direction
        # (0.5/25); item bin 10 must come back to query bin 1 (4.5/25). The
        # bound takes the larger, whichever argument is the query.
        D = chain_matrix()
        query = singleton(0, 0.5) + singleton(1, 0.5)
        item = singleton(0, 0.5) + singleton(10, 0.5)
        assert emd(query, item, D) == pytest.approx(4.5 / 25)
        for a, b in ((query, item), (item, query)):
            assert transfer_lower_bounds(a, [b], D)[0] == pytest.approx(4.5 / 25)


@settings(max_examples=80, deadline=None)
@given(case=retrieval_cases(), key=st.sampled_from(GROUNDS))
def test_drawn_retrieval_matches_brute_force(case, key):
    values, levels, query, k = case
    D = ground(*key)
    train = RiskTrainingSet(criterion="lane", items=[
        TrainingItem(v, lv) for v, lv in zip(values, levels)])
    got = classify_risk(query, train, D, EmdConfig(k=k))
    want = brute_force_classify(query, train, D, k)
    assert got.level == want.level
    assert got.votes == want.votes
    assert got.neighbor_distances == want.neighbor_distances


@st.composite
def ride_supports(draw):
    """A ground matrix and two signatures shaped like ride descriptors: 1-9
    occupied bins a side; b takes some of a's bins, some of their mirror
    partners (ground distance 0) and some others."""
    D = ground(draw(st.sampled_from(["lane", "proximity"])), 2.0)
    bins_a = draw(st.lists(st.integers(0, 24), min_size=1, max_size=9, unique=True))
    mirrors = [int(j) for i in bins_a for j in np.flatnonzero(D[i] == 0.0) if j != i]
    near = st.sampled_from(bins_a + mirrors)
    bins_b = draw(st.lists(near | st.integers(0, 24), min_size=1, max_size=9,
                           unique=True))
    mass = st.floats(1e-3, 10.0)
    a, b = np.zeros(25), np.zeros(25)
    a[bins_a] = draw(st.lists(mass, min_size=len(bins_a), max_size=len(bins_a)))
    b[bins_b] = draw(st.lists(mass, min_size=len(bins_b), max_size=len(bins_b)))
    return D, a, b


@settings(max_examples=150, deadline=None)
@given(case=ride_supports())
def test_transport_matches_dense_lp_on_ride_supports(case):
    D, a, b = case
    value = emd(a, b, D)
    assert abs(value - lp_transport(a, b, D)) <= 1e-9
    assert emd(b, a, D) == value
    assert emd(a, a, D) == 0.0
    plan, ia, ib = support_plan(a, b, D)
    assert (plan >= 0.0).all()
    np.testing.assert_allclose(plan.sum(axis=1), a[ia] / a.sum(), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(plan.sum(axis=0), b[ib] / b.sum(), rtol=0.0, atol=1e-12)


def test_transport_speed(lane_D):
    rng = np.random.default_rng(2024)
    pairs = [(rng.uniform(0, 1, 25), rng.uniform(0, 1, 25)) for _ in range(50)]
    import time
    start = time.perf_counter()
    for a, b in pairs:
        emd(a, b, lane_D)
    per_pair = (time.perf_counter() - start) / len(pairs)
    assert per_pair < 0.01
