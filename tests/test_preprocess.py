import numpy as np
import pytest

from cyclerisk.behavior import SensorStream, make_windows, preprocess
from cyclerisk.errors import InsufficientDataError, InvalidInputError


def lattice_stream(duration, rate=10.0, drop=None, insert=None):
    """Clean 10 Hz stream; optionally delete lattice samples or add odd ones."""
    t = np.arange(int(round(duration * rate)) + 1) / rate
    if drop is not None:
        t = np.delete(t, drop)
    if insert is not None:
        t = np.sort(np.concatenate([t, np.atleast_1d(insert)]))
    n = t.size
    zeros = np.zeros(n)
    return SensorStream(t=t, ax=np.sin(t), ay=zeros, az=zeros + 9.81,
                        gx=zeros, gy=zeros, gz=zeros, speed=zeros + 2.0,
                        lat=zeros + 41.0, lon=zeros - 8.0, acc=zeros + 5.0)


class TestStream:
    def test_decreasing_timestamps_rejected(self):
        t = np.array([0.0, 0.1, 0.05])
        z = np.zeros(3)
        with pytest.raises(InvalidInputError):
            SensorStream(t=t, ax=z, ay=z, az=z, gx=z, gy=z, gz=z,
                         speed=z, lat=z, lon=z, acc=z)

    def test_nan_channel_rejected(self):
        t = np.array([0.0, 0.1])
        z = np.zeros(2)
        bad = np.array([1.0, np.nan])
        with pytest.raises(InvalidInputError):
            SensorStream(t=t, ax=bad, ay=z, az=z, gx=z, gy=z, gz=z,
                         speed=z, lat=z, lon=z, acc=z)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidInputError):
            SensorStream(t=np.array([0.0, 0.1]), ax=np.zeros(3), ay=np.zeros(2),
                         az=np.zeros(2), gx=np.zeros(2), gy=np.zeros(2),
                         gz=np.zeros(2), speed=np.zeros(2), lat=np.zeros(2),
                         lon=np.zeros(2), acc=np.zeros(2))

    def test_channel_matrix_order(self):
        s = lattice_stream(40)
        m = s.channel_matrix()
        assert m.shape == (len(s), 7)
        assert np.array_equal(m[:, 0], s.ax)
        assert np.array_equal(m[:, 6], s.speed)


class TestPreprocess:
    def test_hundred_seconds_keeps_eighty(self):
        out = preprocess(lattice_stream(99.9))  # 1000 samples = 100 s of data
        assert len(out) == 800
        assert out.t[0] == pytest.approx(10.0)
        assert out.t[-1] == pytest.approx(89.9)
        assert not out.gap_mask.any()

    def test_exactly_twenty_seconds_fails(self):
        with pytest.raises(InsufficientDataError):
            preprocess(lattice_stream(20))

    def test_barely_too_short_fails(self):
        # 29.8 s leaves 99 grid samples, one short of a window
        with pytest.raises(InsufficientDataError):
            preprocess(lattice_stream(29.8))

    def test_minimum_viable_duration(self):
        out = preprocess(lattice_stream(29.9))
        assert len(out) == 100

    def test_quarter_second_gap_holds_two_slots(self):
        # samples ... 25.0 then 25.25, rejoining the lattice at 25.3: the two
        # grid slots at 25.1 and 25.2 have no sample strictly within 50 ms
        s = lattice_stream(50, drop=[251, 252], insert=25.25)
        out = preprocess(s)
        held = np.nonzero(out.gap_mask)[0]
        assert len(held) == 2
        assert out.t[held[0]] == pytest.approx(25.1)
        assert out.t[held[1]] == pytest.approx(25.2)
        # hold-last repeats the sample at 25.0
        i = held[0]
        assert out.ax[i] == pytest.approx(np.sin(25.0))
        assert out.ax[i + 1] == pytest.approx(np.sin(25.0))

    def test_dropped_lattice_samples_hold(self):
        s = lattice_stream(50, drop=[251, 252])  # 0.3 s between neighbors
        out = preprocess(s)
        assert int(out.gap_mask.sum()) == 2

    def test_offset_samples_snap_to_nearest(self):
        rng = np.random.default_rng(8)
        base = np.arange(501) / 10.0
        jitter = rng.uniform(-0.02, 0.02, base.size)
        t = base + jitter
        t = np.maximum.accumulate(t + np.arange(base.size) * 1e-9)
        z = np.zeros(t.size)
        s = SensorStream(t=t, ax=np.arange(t.size, dtype=float), ay=z, az=z,
                         gx=z, gy=z, gz=z, speed=z, lat=z, lon=z, acc=z)
        out = preprocess(s)
        assert not out.gap_mask.any()
        # each slot carries the sample whose jittered time is nearest
        assert np.all(np.abs(out.ax - (np.round(out.t * 10))) <= 1)

    def test_grid_is_exact(self):
        out = preprocess(lattice_stream(60))
        assert np.allclose(np.diff(out.t), 0.1, atol=1e-12)


class TestWindows:
    @pytest.mark.parametrize("n,expect", [(100, 1), (150, 2), (250, 4), (1000, 19)])
    def test_window_counts(self, n, expect):
        s = preprocess(lattice_stream(20.0 + (n - 1) / 10.0))
        assert len(s) == n
        starts, windows = make_windows(s)
        assert starts.tolist() == list(range(0, n - 99, 50))
        assert windows.shape == (expect, 100, 7)

    def test_too_short_fails(self):
        short = lattice_stream(9.8)
        assert len(short) == 99
        with pytest.raises(InsufficientDataError):
            make_windows(short)

    def test_window_shape_and_offsets(self):
        s = preprocess(lattice_stream(40))
        starts, windows = make_windows(s)
        assert windows.shape == (3, 100, 7)
        assert starts.tolist() == [0, 50, 100]

    def test_windows_view_the_stream(self):
        s = preprocess(lattice_stream(40))
        starts, windows = make_windows(s)
        # one view of the channel matrix: overlapping windows share memory
        assert np.shares_memory(windows[0], windows[1])
        assert np.array_equal(windows[1][:, 0], s.ax[50:150])
        assert np.array_equal(windows, [s.channel_matrix()[k:k + 100] for k in starts])
