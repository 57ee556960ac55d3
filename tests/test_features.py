import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behavior_reference import reference_features
from cyclerisk.behavior import FEATURE_NAMES, extract_features, features_matrix
from cyclerisk.errors import InvalidInputError


def window_with(channel, values, n=100):
    data = np.zeros((n, 7))
    data[:, channel] = values
    return data


class TestSchema:
    def test_exactly_54_unique_names(self):
        assert len(FEATURE_NAMES) == 54
        assert len(set(FEATURE_NAMES)) == 54

    def test_block_layout(self):
        assert FEATURE_NAMES[0] == "ax_mean"
        assert FEATURE_NAMES[3] == "ax_mad"
        assert FEATURE_NAMES[24] == "speed_mean"
        assert FEATURE_NAMES[28] == "ax_spec_energy"
        assert FEATURE_NAMES[41] == "speed_spec_entropy"
        assert FEATURE_NAMES[42] == "axay_prod_mean"
        assert FEATURE_NAMES[53] == "ayaz_prod_mad"

    def test_output_length_and_finiteness(self):
        rng = np.random.default_rng(1)
        f = extract_features(rng.normal(size=(100, 7)))
        assert f.shape == (54,)
        assert np.isfinite(f).all()


class TestTimeStats:
    def test_constant_channel(self):
        f = extract_features(window_with(2, -3.5))
        base = 4 * 2
        assert f[base + 0] == pytest.approx(-3.5)   # mean
        assert f[base + 1] == 0.0                   # std
        assert f[base + 2] == pytest.approx(3.5)    # rms
        assert f[base + 3] == 0.0                   # mad
        assert f[28 + 2 * 2] == pytest.approx(0.0, abs=1e-20)  # spectral energy
        assert f[28 + 2 * 2 + 1] == 0.0             # spectral entropy

    def test_against_direct_formulas(self):
        rng = np.random.default_rng(7)
        x = rng.normal(2.0, 1.5, 100)
        f = extract_features(window_with(6, x))
        base = 4 * 6
        assert f[base + 0] == pytest.approx(x.mean())
        assert f[base + 1] == pytest.approx(x.std(ddof=0))
        assert f[base + 2] == pytest.approx(np.sqrt(np.mean(x ** 2)))
        assert f[base + 3] == pytest.approx(np.abs(x - x.mean()).mean())


class TestSpectral:
    def test_pure_tone_closed_form(self):
        # sin with 5 full cycles over 100 samples lands in one DFT bin with
        # magnitude n/2 = 50, so energy = 50^2 / 100 = 25 and entropy ~ 0
        k = np.arange(100)
        tone = np.sin(2 * np.pi * 5 * k / 100)
        f = extract_features(window_with(0, tone))
        assert f[28] == pytest.approx(25.0, abs=1e-9)
        assert f[29] == pytest.approx(0.0, abs=1e-9)

    def test_two_tone_entropy_is_one_bit(self):
        k = np.arange(100)
        sig = np.sin(2 * np.pi * 4 * k / 100) + np.cos(2 * np.pi * 11 * k / 100)
        f = extract_features(window_with(1, sig))
        assert f[28 + 2] == pytest.approx(50.0, abs=1e-9)   # 25 + 25
        assert f[28 + 3] == pytest.approx(1.0, abs=1e-9)    # two equal bins

    def test_dc_offset_ignored(self):
        k = np.arange(100)
        tone = np.sin(2 * np.pi * 5 * k / 100)
        f0 = extract_features(window_with(0, tone))
        f1 = extract_features(window_with(0, tone + 77.0))
        assert f1[28] == pytest.approx(f0[28], abs=1e-8)
        assert f1[29] == pytest.approx(f0[29], abs=1e-8)

    def test_white_noise_entropy_near_maximum(self):
        rng = np.random.default_rng(0)
        f = extract_features(window_with(3, rng.normal(size=100)))
        # 50 positive-frequency bins -> max entropy log2(50) = 5.64 bits
        assert 4.5 < f[28 + 2 * 3 + 1] <= np.log2(50) + 1e-9


class TestPairProducts:
    def test_proportional_axes_scale_products(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=100)
        data = np.zeros((100, 7))
        data[:, 0] = x
        data[:, 1] = 2.0 * x + 5.0
        f = extract_features(data)
        cx = x - x.mean()
        self_prod = cx * cx
        expected = np.array([self_prod.mean(), self_prod.std(ddof=0),
                             np.sqrt(np.mean(self_prod ** 2)),
                             np.abs(self_prod - self_prod.mean()).mean()])
        assert np.allclose(f[42:46], 2.0 * expected, atol=1e-10)

    def test_independent_axes_near_zero_mean_product(self):
        rng = np.random.default_rng(11)
        data = np.zeros((1000, 7))
        data[:, 0] = rng.normal(size=1000)
        data[:, 2] = rng.normal(size=1000)
        f = extract_features(data)
        assert abs(f[46]) < 0.15  # xz product mean stays near zero

    def test_pair_block_ordering(self):
        data = np.zeros((100, 7))
        data[:, 1] = np.sin(np.arange(100))   # only ay is active
        data[:, 2] = np.cos(np.arange(100))   # and az
        f = extract_features(data)
        assert np.allclose(f[42:46], 0.0)     # xy: ax constant -> zero product
        assert np.allclose(f[46:50], 0.0)     # xz likewise
        assert f[50:54].any()                 # yz carries the signal


class TestValidation:
    def test_nan_rejected(self):
        data = np.zeros((100, 7))
        data[50, 3] = np.nan
        with pytest.raises(InvalidInputError):
            extract_features(data)

    def test_wrong_width_rejected(self):
        with pytest.raises(InvalidInputError):
            extract_features(np.zeros((100, 6)))

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError):
            extract_features(np.zeros((3, 7)))

    def test_empty_window_list_rejected(self):
        with pytest.raises(InvalidInputError):
            features_matrix([])


def test_accepts_window_list_and_array():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(100, 7))
    direct = extract_features(data)
    stacked = features_matrix([data, data])
    assert stacked.shape == (2, 54)
    assert np.array_equal(stacked[0], direct)
    assert np.array_equal(stacked[1], direct)
    # a strided (m, n, 7) view, as make_windows returns, featurizes the same
    view = np.broadcast_to(data, (2, 100, 7))
    assert np.array_equal(features_matrix(view), stacked)


def test_determinism():
    rng = np.random.default_rng(21)
    data = rng.normal(size=(100, 7))
    assert np.array_equal(extract_features(data), extract_features(data.copy()))


@st.composite
def channel(draw, n):
    """One channel of n samples: noise, a constant, or a short integer period."""
    kind = draw(st.sampled_from(["noise", "constant", "period"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "noise":
        return rng.normal(draw(st.floats(-50, 50)), draw(st.floats(0, 20)), n)
    if kind == "constant":
        return np.full(n, draw(st.floats(-1e3, 1e3)))
    # a period dividing n leaves exact-zero DFT bins
    period = draw(st.sampled_from([p for p in (1, 2, 3, 4, 5) if n % p == 0]))
    return np.resize(rng.integers(-3, 4, period).astype(np.float64), n)


@st.composite
def window_batch(draw):
    n = draw(st.sampled_from([4, 7, 50, 100, 128, 130]))
    m = draw(st.integers(1, 6))
    return [np.column_stack([draw(channel(n)) for _ in range(7)]) for _ in range(m)]


class TestMatchesPerWindowOracle:
    @settings(max_examples=60, deadline=None)
    @given(window_batch())
    def test_random_windows_bit_identical(self, windows):
        want = np.vstack([reference_features(w) for w in windows])
        assert np.array_equal(features_matrix(windows), want)
        assert np.array_equal(extract_features(windows[0]), want[0])

    def test_zero_bin_rows_take_the_compress_path(self):
        data = np.zeros((100, 7))
        data[:, 0] = np.tile([1.0, -1.0], 50)        # one live bin, 49 zeros
        data[:, 1] = np.tile([0.0, 1.0, 0.0, 0.0, 2.0], 20)
        data[:, 2] = np.random.default_rng(4).normal(size=100)
        assert np.array_equal(features_matrix([data])[0], reference_features(data))

    def test_ragged_windows_rejected(self):
        rng = np.random.default_rng(5)
        windows = [rng.normal(size=(100, 7)), rng.normal(size=(60, 7))]
        with pytest.raises(InvalidInputError, match=r"one \(n, 7\) shape"):
            features_matrix(windows)

    def test_later_bad_window_still_rejected(self):
        good = np.zeros((100, 7))
        with pytest.raises(InvalidInputError, match="window 1 contains non-finite"):
            features_matrix([good, np.full((100, 7), np.inf)])
        # finite samples whose squares overflow name their window too
        with pytest.raises(InvalidInputError, match="window 2 has non-finite features"):
            features_matrix([good, good, np.full((100, 7), 1e200)])
