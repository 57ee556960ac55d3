import numpy as np
import pytest

from cyclerisk.behavior import TemporalSmoother, smooth_sequence, softmax
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


class TestSmoother:
    def test_first_frame_is_plain_argmax(self):
        sm = TemporalSmoother(window=10, decay=0.5, bandwidth=1.0)
        cls, scores = sm.push(np.zeros(4), np.array([0.2, 0.7, 0.1]))
        assert cls == 1
        assert np.allclose(scores, [0.2, 0.7, 0.1])

    def test_steady_stream_keeps_class(self):
        sm = TemporalSmoother(window=10, decay=0.5, bandwidth=1.0)
        p = np.array([0.6, 0.3, 0.1])
        f = np.ones(4)
        for _ in range(15):
            cls, _ = sm.push(f, p)
            assert cls == 0

    def test_single_flip_restored_by_history(self):
        # 20 steady frames, one contradicting frame in the middle; identical
        # features mean the affinity term is 1 and only decay weights matter
        sm = TemporalSmoother(window=10, decay=0.5, bandwidth=1.0)
        f = np.zeros(3)
        steady = np.array([0.8, 0.2])
        flipped = np.array([0.2, 0.8])
        out = []
        for t in range(20):
            cls, _ = sm.push(f, flipped if t == 12 else steady)
            out.append(cls)
        assert out == [0] * 20

    def test_distant_features_mute_history(self):
        # near-zero bandwidth: history contributes nothing when features move
        sm = TemporalSmoother(window=10, decay=0.0, bandwidth=1e-3)
        sm.push(np.zeros(2), np.array([0.9, 0.1]))
        cls, scores = sm.push(np.ones(2) * 5.0, np.array([0.1, 0.9]))
        assert cls == 1
        assert scores[0] == pytest.approx(0.1, abs=1e-12)

    def test_infinite_decay_matches_unsmoothed(self):
        rng = np.random.default_rng(4)
        sm = TemporalSmoother(window=1, decay=1e9, bandwidth=1.0)
        for _ in range(30):
            p = rng.dirichlet(np.ones(3))
            f = rng.normal(size=5)
            cls, _ = sm.push(f, p)
            assert cls == int(p.argmax())

    def test_history_bounded_by_window(self):
        sm = TemporalSmoother(window=2, decay=0.0, bandwidth=1.0)
        f = np.zeros(2)
        for _ in range(5):
            sm.push(f, np.array([1.0, 0.0]))
        _, scores = sm.push(f, np.array([1.0, 0.0]))
        # at most window + 1 terms contribute with decay 0 and affinity 1
        assert scores[0] == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TemporalSmoother(window=0)
        with pytest.raises(InvalidInputError):
            TemporalSmoother(decay=-0.1)
        with pytest.raises(InvalidInputError):
            TemporalSmoother(bandwidth=0.0)
        sm = TemporalSmoother()
        with pytest.raises(InvalidInputError):
            sm.push(np.zeros(2), np.array([-0.1, 1.1]))


class TestSequence:
    def test_matches_streaming(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(25, 4))
        probs = rng.dirichlet(np.ones(3), size=25)
        seq = smooth_sequence(feats, probs, window=5, decay=0.3, bandwidth=2.0)
        sm = TemporalSmoother(window=5, decay=0.3, bandwidth=2.0)
        manual = [sm.push(f, p)[0] for f, p in zip(feats, probs)]
        assert seq.tolist() == manual

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidInputError):
            smooth_sequence(np.zeros((3, 2)), np.zeros((4, 3)))
