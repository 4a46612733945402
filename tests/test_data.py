"""Ingestion, splitting, normalisation, windowing, metrics, synthetic corpora."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcast import data as data_io
from freqcast.errors import ConfigError, ContractError, DataError


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_small_numeric_file(self, tmp_path):
        path = write_csv(tmp_path / "toy.csv", "a,b\n1,2\n3,4\n5,6\n")
        ds = data_io.load_csv(path)
        assert ds.values.shape == (3, 2)
        assert ds.channel_names == ["a", "b"]
        np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])

    def test_timestamp_column_skipped(self, tmp_path):
        path = write_csv(
            tmp_path / "ts.csv",
            "date,x,y\n2020-01-01,1,2\n2020-01-02,3,4\n",
        )
        ds = data_io.load_csv(path)
        assert ds.values.shape == (2, 2)
        assert ds.channel_names == ["x", "y"]

    def test_transformer_benchmark_shape(self, tmp_path):
        cols = ["HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"]
        lines = ["date," + ",".join(cols)]
        for i in range(12):
            lines.append(f"2020-01-{i + 1:02d}," + ",".join(str(i + j) for j in range(7)))
        ds = data_io.load_csv(write_csv(tmp_path / "etth1.csv", "\n".join(lines) + "\n"))
        assert ds.channels == 7
        assert ds.channel_names == cols

    def test_ragged_row_names_line(self, tmp_path):
        path = write_csv(tmp_path / "ragged.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            data_io.load_csv(path)

    def test_non_numeric_cell_names_coordinates(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=r"line 3, column 2"):
            data_io.load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_names_coordinates(self, tmp_path, cell):
        path = write_csv(tmp_path / "nonfinite.csv", f"date,a,b\nd1,1,2\nd2,3,{cell}\n")
        with pytest.raises(DataError, match=r"line 3, column 3: non-finite"):
            data_io.load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", "")
        with pytest.raises(DataError):
            data_io.load_csv(path)
        header_only = write_csv(tmp_path / "header.csv", "a,b\n")
        with pytest.raises(DataError):
            data_io.load_csv(header_only)


def make_dataset(n, channels=1):
    values = np.arange(n * channels, dtype=float).reshape(n, channels)
    return data_io.Dataset("seq", values, [f"c{i}" for i in range(channels)])


class TestSplit:
    @pytest.mark.parametrize("n,expected", [
        (100, (70, 15, 15)),
        (101, (70, 15, 16)),
        (10, (7, 1, 2)),
    ])
    def test_split_sizes(self, n, expected):
        train, val, test = data_io.split_chronological(make_dataset(n))
        assert (len(train), len(val), len(test)) == expected

    def test_split_is_contiguous_and_complete(self):
        ds = make_dataset(57)
        train, val, test = data_io.split_chronological(ds)
        np.testing.assert_array_equal(np.concatenate([train, val, test]), ds.values)

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError):
            data_io.split_chronological(make_dataset(9))


class TestNormalize:
    def test_midpoint_and_extremes(self):
        stats = data_io.NormStats(np.array([0.0]), np.array([10.0]))
        np.testing.assert_allclose(
            data_io.normalize(np.array([[0.0], [5.0], [10.0]]), stats).ravel(),
            [0.0, 0.5, 1.0],
        )

    def test_roundtrip(self, rng):
        x = rng.normal(size=(50, 3)) * 7 + 3
        stats = data_io.fit_norm_stats(x)
        back = data_io.denormalize(data_io.normalize(x, stats), stats)
        np.testing.assert_allclose(back, x, atol=1e-12)
        assert data_io.normalize(x, stats).min() >= 0.0
        assert data_io.normalize(x, stats).max() <= 1.0

    def test_degenerate_channel_warns_and_zeroes(self, caplog):
        x = np.column_stack([np.ones(20), np.arange(20.0)])
        with caplog.at_level(logging.WARNING):
            stats = data_io.fit_norm_stats(x)
        assert any("constant" in r.message for r in caplog.records)
        normed = data_io.normalize(x, stats)
        assert np.abs(normed[:, 0]).max() == 0.0

    def test_channel_constant_in_training_maps_to_zero_where_it_later_varies(self):
        train = np.column_stack([np.full(20, 3.0), np.arange(20.0)])
        later = np.column_stack([np.linspace(-5.0, 9.0, 8), np.arange(8.0)])
        out = data_io.normalize(later, data_io.fit_norm_stats(train))
        assert np.array_equal(out[:, 0], np.zeros(8))
        np.testing.assert_allclose(out[:, 1], np.arange(8.0) / 19.0, rtol=1e-15)


class TestWindows:
    def test_counting_formula(self):
        x, y = data_io.make_windows(np.arange(10.0)[:, None], 4, 2)
        assert x.shape == (5, 4, 1) and y.shape == (5, 2, 1)

    def test_exactly_one_sample(self):
        x, y = data_io.make_windows(np.arange(6.0)[:, None], 4, 2)
        assert x.shape[0] == 1

    def test_windows_are_contiguous_and_adjacent(self):
        split = np.arange(12.0)[:, None]
        x, y = data_io.make_windows(split, 3, 2)
        for i in range(x.shape[0]):
            np.testing.assert_array_equal(x[i, :, 0], np.arange(i, i + 3))
            np.testing.assert_array_equal(y[i, :, 0], np.arange(i + 3, i + 5))

    def test_stride(self):
        x, _ = data_io.make_windows(np.arange(20.0)[:, None], 4, 2, stride=3)
        assert x.shape[0] == (20 - 4 - 2) // 3 + 1

    def test_too_short(self):
        with pytest.raises(ConfigError):
            data_io.make_windows(np.arange(5.0)[:, None], 4, 2)

    # each used to fail its own way: a bare ZeroDivisionError, numpy's "need at
    # least one array to stack", a numpy shape error, and (19, 0, 1) windows
    @pytest.mark.parametrize("name, value", [
        ("stride", 0), ("stride", -1), ("lookback", -3), ("lookback", 0), ("horizon", 0)])
    def test_sizes_below_one_are_refused_by_name(self, name, value):
        sizes = {"lookback": 3, "horizon": 2, "stride": 1, name: value}
        with pytest.raises(ConfigError, match=rf"make_windows needs {name} >= 1, got {value}$"):
            data_io.make_windows(np.arange(20.0)[:, None], **sizes)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), lookback=st.integers(1, 12), horizon=st.integers(1, 12),
           stride=st.integers(1, 9), channels=st.integers(1, 3))
    def test_windows_are_read_only_views_of_the_per_sample_slices(
            self, n, lookback, horizon, stride, channels):
        split = np.arange(float(n * channels)).reshape(n, channels)
        if n < lookback + horizon:
            with pytest.raises(ConfigError, match="shorter than lookback"):
                data_io.make_windows(split, lookback, horizon, stride)
            return
        x, y = data_io.make_windows(split, lookback, horizon, stride)
        starts = range(0, n - lookback - horizon + 1, stride)
        assert np.array_equal(x, np.stack([split[s:s + lookback] for s in starts]))
        assert np.array_equal(y, np.stack([split[s + lookback:s + lookback + horizon]
                                           for s in starts]))
        for w in (x, y):
            assert np.shares_memory(w, split)
            with pytest.raises(ValueError, match="read-only"):
                w[0, 0, 0] = -1.0


class TestMetrics:
    def test_perfect_prediction(self, rng):
        x = rng.normal(size=(2, 3))
        m = data_io.metrics(x, x)
        assert m == {"mae": 0.0, "rmse": 0.0, "mse": 0.0}

    def test_plus_minus_one(self):
        m = data_io.metrics(np.array([1.0, -1.0]), np.zeros(2))
        assert m["mae"] == 1.0 and m["mse"] == 1.0 and m["rmse"] == 1.0

    def test_three_four(self):
        m = data_io.metrics(np.array([3.0, 4.0]), np.zeros(2))
        assert m["mae"] == pytest.approx(3.5)
        assert m["mse"] == pytest.approx(12.5)
        assert m["rmse"] == pytest.approx(np.sqrt(12.5))

    def test_rmse_is_sqrt_mse_exactly(self, rng):
        pred, truth = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        m = data_io.metrics(pred, truth)
        assert m["rmse"] == np.sqrt(m["mse"])

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            data_io.metrics(np.zeros(3), np.zeros(4))


class TestPersistence:
    def test_repeats_last_value(self, rng):
        x = rng.normal(size=(3, 5, 2))
        out = data_io.persistence_forecast(x, 4)
        assert out.shape == (3, 4, 2)
        for s in range(4):
            np.testing.assert_array_equal(out[:, s], x[:, -1])


class TestSynthCorpus:
    def test_deterministic(self):
        a = data_io.synth_corpus("sinusoid_mix", 5, 400, 2)
        b = data_io.synth_corpus("sinusoid_mix", 5, 400, 2)
        np.testing.assert_array_equal(a.values, b.values)
        c = data_io.synth_corpus("sinusoid_mix", 6, 400, 2)
        assert not np.array_equal(a.values, c.values)

    def test_length_floor(self):
        with pytest.raises(ConfigError):
            data_io.synth_corpus("sinusoid_mix", 0, 128, 1)

    @pytest.mark.parametrize("channels", [0, -1])
    def test_channels_floor(self, channels):
        with pytest.raises(ConfigError, match=f"channels >= 1, got {channels}"):
            data_io.synth_corpus("sinusoid_mix", 0, 400, channels)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            data_io.synth_corpus("brownian", 0, 400, 1)

    @pytest.mark.parametrize("noise", [-1.0, -1e-300, np.nan, np.inf])
    def test_noise_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ConfigError, match="noise"):
            data_io.synth_corpus("sinusoid_mix", 0, 400, 1, noise=noise)

    def test_noiseless_mix_has_dominant_periodicity(self):
        ds = data_io.synth_corpus("sinusoid_mix", 11, 2048, 1, noise=0.0)
        x = ds.values[:, 0] - ds.values[:, 0].mean()
        n = len(x)
        lags = np.arange(8, n // 4)
        auto = np.array([
            (x[:-lag] @ x[lag:]) / np.sqrt((x[:-lag] @ x[:-lag]) * (x[lag:] @ x[lag:]))
            for lag in lags
        ])
        best = lags[auto.argmax()]
        assert auto.max() > 0.6
        # the peak lag sits on (a harmonic multiple of) the spectral fundamental
        spectrum = np.abs(np.fft.rfft(x))
        spectrum[0] = 0.0
        peak_period = n / spectrum.argmax()
        ratio = best / peak_period
        assert round(ratio) >= 1
        assert abs(ratio - round(ratio)) < 0.2

    def test_piecewise_segments_have_distinct_spectra(self):
        seed, length = 4, 2048
        ds = data_io.synth_corpus("piecewise_stationary", seed, length, 1, noise=0.0)
        bounds = [0] + data_io.piecewise_change_points(seed, length) + [length]
        assert len(bounds) >= 4
        for lo, mid, hi in zip(bounds[:-2], bounds[1:-1], bounds[2:]):
            a = ds.values[lo:mid, 0]
            b = ds.values[mid:hi, 0]
            n = min(len(a), len(b))
            sa = np.abs(np.fft.rfft(a[:n]))
            sb = np.abs(np.fft.rfft(b[:n]))
            sa, sb = sa / sa.sum(), sb / sb.sum()
            assert 0.5 * np.abs(sa - sb).sum() > 0.3  # total-variation distance

    def test_trend_component_present(self):
        ds = data_io.synth_corpus("trend_plus_season", 9, 1024, 3, noise=0.0)
        assert ds.values.shape == (1024, 3)
