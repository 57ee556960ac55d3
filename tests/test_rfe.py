import numpy as np
import pytest

from cyclerisk import fileio
from cyclerisk.behavior import (
    consensus_select,
    features_matrix,
    make_windows,
    ova_rankings,
    preprocess,
    rfe_rank,
)
from cyclerisk.errors import DegenerateTrainingError, InvalidInputError
from cyclerisk.synth import gen_ride

from behavior_reference import reference_rfe_rank

LONG_SCHEDULE = [("walk", 360), ("bike", 300), ("motor", 240), ("bike", 240),
                 ("walk", 180), ("motor", 240), ("bike", 240)]


def labeled_by_first_feature(rng, n=60, d=10):
    X = rng.normal(size=(n, d))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    X[:, 0] += y * 2.0  # widen the margin so the signal dominates
    return X, y


class TestRanking:
    def test_informative_feature_ranked_first(self):
        rng = np.random.default_rng(1)
        X, y = labeled_by_first_feature(rng)
        rank = rfe_rank(X, y)
        assert rank[0] == 1

    def test_duplicated_informative_pair_on_top(self):
        rng = np.random.default_rng(2)
        X, y = labeled_by_first_feature(rng, d=8)
        X = np.column_stack([X, X[:, 0]])  # column 8 duplicates column 0
        rank = rfe_rank(X, y)
        assert {int(rank[0]), int(rank[8])} == {1, 2}

    def test_ranking_is_a_permutation(self):
        # pure-noise features: elimination must still terminate cleanly
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 54))
        y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        rank = rfe_rank(X, y)
        assert sorted(rank.tolist()) == list(range(1, 55))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X, y = labeled_by_first_feature(rng, d=12)
        assert np.array_equal(rfe_rank(X, y), rfe_rank(X, y))

    def test_string_labels_accepted(self):
        rng = np.random.default_rng(5)
        X, y = labeled_by_first_feature(rng, d=6)
        names = np.where(y > 0, "bike", "walk")
        assert np.array_equal(rfe_rank(X, y), rfe_rank(X, names))

    def test_three_classes_rejected_for_binary_rank(self):
        X = np.zeros((6, 3))
        with pytest.raises(DegenerateTrainingError):
            rfe_rank(X, ["a", "b", "c", "a", "b", "c"])


class TestMatchesColdReference:
    """Warm-started rounds drop the same feature as cold-started ones."""

    @staticmethod
    def assert_rankings_match(X, y):
        labels = np.array([str(v) for v in y])
        want = [reference_rfe_rank(X, np.where(labels == c, 1.0, -1.0))
                for c in sorted(set(labels.tolist()))]
        got = ova_rankings(X, y)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tolist() == w.tolist()

    @pytest.mark.parametrize("seed", [1, 2024, 7])
    def test_long_rides(self, seed):
        ride = gen_ride(LONG_SCHEDULE, seed=seed)
        _, windows = make_windows(preprocess(ride.stream))
        X = features_matrix(windows)
        self.assert_rankings_match(X, ride.window_labels)

    @pytest.mark.parametrize("ride", ["train_ride", "ride_mixed"])
    def test_fixture_rides(self, e2e_workspace, ride):
        d = e2e_workspace[ride]
        starts, windows = make_windows(
            preprocess(fileio.read_sensor_csv(d / "sensors.csv")))
        labels = dict(fileio.read_window_labels(d / "labels.ndjson"))
        self.assert_rankings_match(features_matrix(windows),
                                   [labels[s] for s in starts.tolist()])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_binary_tasks(self, seed):
        rng = np.random.default_rng(300 + seed)
        n, d = int(rng.integers(20, 90)), int(rng.integers(2, 15))
        X = rng.normal(size=(n, d))
        y = np.where(X[:, 0] + X[:, 1] + rng.normal(0, 1.0, n) > 0, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        assert rfe_rank(X, y).tolist() == reference_rfe_rank(X, y).tolist()


class TestOvaRankings:
    def test_one_ranking_per_class(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(45, 6))
        y = ["a"] * 15 + ["b"] * 15 + ["c"] * 15
        X[:15, 1] += 4.0
        X[15:30, 2] += 4.0
        X[30:, 3] += 4.0
        ranks = ova_rankings(X, y)
        assert len(ranks) == 3
        # each class's own indicator feature tops its class-vs-rest ranking
        assert ranks[0][1] == 1
        assert ranks[1][2] == 1
        assert ranks[2][3] == 1

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateTrainingError):
            ova_rankings(np.zeros((4, 2)), ["a"] * 4)


class TestConsensus:
    def test_identical_rankings_give_top_m(self):
        rank = np.array([3, 1, 2, 5, 4])
        mask = consensus_select([rank, rank, rank], 2)
        assert mask.tolist() == [False, True, True, False, False]

    def test_full_mask(self):
        rank = np.arange(1, 55)
        mask = consensus_select([rank], 54)
        assert mask.all()

    def test_unanimous_top_feature_always_kept(self):
        rng = np.random.default_rng(7)
        base = np.arange(2, 55)
        rankings = []
        for _ in range(3):
            rest = rng.permutation(base)
            rankings.append(np.concatenate([[1], rest]))
        for m in (1, 4, 20):
            assert consensus_select(rankings, m)[0]

    def test_tie_falls_to_lower_index(self):
        r1 = np.array([1, 2, 3])
        r2 = np.array([2, 1, 3])
        mask = consensus_select([r1, r2], 1)  # features 0 and 1 tie at 3
        assert mask.tolist() == [True, False, False]

    def test_bad_m_rejected(self):
        with pytest.raises(InvalidInputError):
            consensus_select([np.arange(1, 55)], 0)
        with pytest.raises(InvalidInputError):
            consensus_select([np.arange(1, 55)], 55)
        with pytest.raises(InvalidInputError):
            consensus_select([], 3)
