import numpy as np
import pytest

from cyclerisk.behavior import smooth_sequence, softmax
from cyclerisk.config import BehaviorConfig
from cyclerisk.errors import InvalidInputError


class TestSoftmax:
    def test_sums_to_one(self):
        p = softmax(np.array([1.0, 2.0, 3.0]))
        assert p.sum() == pytest.approx(1.0)
        assert (p > 0).all()
        assert p.argmax() == 2

    def test_shift_invariant_and_stable(self):
        z = np.array([1000.0, 1001.0, 999.0])
        p = softmax(z)
        assert np.allclose(p, softmax(z - 1000.0))
        assert np.isfinite(p).all()

    def test_batched_rows(self):
        z = np.array([[0.0, 1.0], [3.0, -1.0]])
        p = softmax(z)
        assert np.allclose(p.sum(axis=1), 1.0)


def smooth(features, probs, window=10, decay=0.5, bandwidth=1.0):
    cfg = BehaviorConfig(smooth_window=window, smooth_decay=decay)
    return smooth_sequence(np.asarray(features, dtype=float),
                           np.asarray(probs, dtype=float), bandwidth, cfg).tolist()


class TestSmoother:
    def test_first_frame_is_plain_argmax(self):
        # the first window has no history: its label is its own argmax
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            assert smooth([rng.normal(size=3)], [p]) == [int(p.argmax())]

    def test_steady_stream_keeps_class(self):
        assert smooth(np.ones((15, 4)), [[0.6, 0.3, 0.1]] * 15) == [0] * 15

    def test_single_flip_restored_by_history(self):
        # 20 steady windows, one contradicting window in the middle; identical
        # features mean the affinity term is 1 and only decay weights matter
        probs = [[0.2, 0.8] if t == 12 else [0.8, 0.2] for t in range(20)]
        assert smooth(np.zeros((20, 3)), probs) == [0] * 20

    def test_distant_features_mute_history(self):
        # near-zero bandwidth: history contributes nothing when features
        # move; with a wide one the first window outweighs the second
        feats = [[0.0, 0.0], [5.0, 5.0]]
        probs = [[0.9, 0.1], [0.2, 0.8]]
        assert smooth(feats, probs, decay=0.0, bandwidth=1e-3) == [0, 1]
        assert smooth(feats, probs, decay=0.0, bandwidth=1e3) == [0, 0]

    def test_infinite_decay_matches_unsmoothed(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(3), size=30)
        feats = rng.normal(size=(30, 5))
        got = smooth(feats, probs, window=1, decay=1e9)
        assert got == probs.argmax(axis=1).tolist()

    def test_history_bounded_by_window(self):
        # five windows of class 0, then class 1, decay 0, affinity 1: window
        # 6 sums windows 4..6 (at most window + 1 = 3 terms) and flips to
        # class 1, where an unbounded history (5 against 2) would not
        probs = [[1.0, 0.0]] * 5 + [[0.0, 1.0]] * 3
        feats = np.zeros((8, 2))
        assert smooth(feats, probs, window=2, decay=0.0) == [0] * 6 + [1, 1]
        assert smooth(feats, probs, window=7, decay=0.0) == [0] * 8

    def test_validation(self):
        # the settings' bounds are the section's (tests/test_config.py);
        # the probabilities are data and checked here
        with pytest.raises(InvalidInputError):
            smooth(np.zeros((2, 2)), [[0.5, 0.5], [-0.1, 1.1]])
        with pytest.raises(InvalidInputError):
            smooth(np.zeros((2, 2)), [0.5, 0.5])


class TestSequence:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidInputError):
            smooth_sequence(np.zeros((3, 2)), np.zeros((4, 3)), 1.0)
