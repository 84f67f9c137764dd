import numpy as np
import pytest

from uprop import data
from uprop.data import (NormStats, TimeSeries, denormalize, emulate_missing,
                        load_csv, normalize, save_csv, split, synth_cloud,
                        synth_random_walk, window)
from uprop.errors import DataError


def lag1_autocorr(x):
    x = x - x.mean()
    return float(np.dot(x[:-1], x[1:]) / np.dot(x, x))


class TestCsv:
    def test_load_small_file_with_missing_cell(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,dim_0,dim_1\n0,1.5,2\n1,,3\n2,4,5\n")
        s = load_csv(path)
        assert s.steps == 3 and s.dims == 2
        assert not s.mask[1, 0]
        assert s.mask.sum() == 5
        assert np.isnan(s.values[1, 0])
        assert s.values[2, 1] == 5.0

    def test_round_trip_identity_with_mask(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(20, 3)) * 1e6
        s = emulate_missing(TimeSeries.complete(values), 0.3, seed=1)
        path = tmp_path / "rt.csv"
        save_csv(s, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.mask, s.mask)
        assert np.array_equal(back.values[back.mask], s.values[s.mask])
        assert (tmp_path / "rt.mask.csv").exists()

    def test_round_trip_bit_exact_17_digits(self, tmp_path):
        values = np.array([[1.0 / 3.0, np.pi], [1e-300, 123456.789]])
        s = TimeSeries.complete(values)
        path = tmp_path / "exact.csv"
        save_csv(s, path)
        back = load_csv(path)
        assert np.array_equal(back.values, values)

    def test_gap_in_t_names_row(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,dim_0\n1,1\n2,2\n4,3\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("t,dim_0,dim_1\n0,1,2\n1,3\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,dim_0\n0,1\n1,oops\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_cell_rejected_naming_row_and_column(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"t,dim_0,dim_1\n0,1.0,2.0\n1,1.0,{cell}\n")
        with pytest.raises(DataError, match="row 2 column dim_1"):
            load_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("time,a,b\n0,1,2\n")
        with pytest.raises(DataError, match="header"):
            load_csv(path)


class TestNormalize:
    def test_hand_computed_zscores(self):
        s = TimeSeries.complete(np.array([[1.0], [2.0], [3.0]]))
        stats = NormStats.from_windows([s])
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.std[0] == pytest.approx(np.sqrt(2.0 / 3.0))
        normed = normalize(s, stats)
        np.testing.assert_allclose(normed.values[:, 0],
                                   [-1.22474, 0.0, 1.22474], atol=1e-5)

    def test_constant_dimension_floored(self):
        s = TimeSeries.complete(np.full((10, 1), 7.0))
        stats = NormStats.from_windows([s])
        assert stats.std[0] == data.STD_FLOOR
        np.testing.assert_array_equal(normalize(s, stats).values, np.zeros((10, 1)))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(1)
        s = TimeSeries.complete(rng.normal(loc=50.0, scale=9.0, size=(40, 3)))
        stats = NormStats.from_windows([s])
        back = denormalize(normalize(s, stats), stats)
        np.testing.assert_allclose(back.values, s.values, atol=1e-12)

    def test_mask_preserved(self):
        s = emulate_missing(TimeSeries.complete(np.random.default_rng(2).normal(size=(30, 2))),
                            0.4, seed=3)
        stats = NormStats(mean=np.zeros(2), std=np.ones(2))
        np.testing.assert_array_equal(normalize(s, stats).mask, s.mask)

    def test_dims_mismatch(self):
        s = TimeSeries.complete(np.zeros((5, 2)))
        with pytest.raises(DataError):
            normalize(s, NormStats(mean=np.zeros(3), std=np.ones(3)))


class TestEmulateMissing:
    def test_rate_zero_is_identity(self):
        s = TimeSeries.complete(np.arange(12.0).reshape(4, 3))
        out = emulate_missing(s, 0.0, seed=0)
        assert out.mask.all()
        np.testing.assert_array_equal(out.values, s.values)

    def test_masked_count_within_binomial_bound(self):
        s = TimeSeries.complete(np.zeros((100, 3)))
        out = emulate_missing(s, 0.5, seed=7)
        masked = (~out.mask).sum()
        assert abs(masked - 150) <= 50  # 4 sigma of Binomial(300, 0.5)

    def test_same_seed_same_mask(self):
        s = TimeSeries.complete(np.random.default_rng(4).normal(size=(50, 2)))
        a = emulate_missing(s, 0.3, seed=9)
        b = emulate_missing(s, 0.3, seed=9)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_unmasked_values_untouched(self):
        s = TimeSeries.complete(np.random.default_rng(5).normal(size=(50, 2)))
        out = emulate_missing(s, 0.5, seed=10)
        assert np.array_equal(out.values[out.mask], s.values[out.mask])

    def test_rejects_incomplete_input(self):
        s = TimeSeries.complete(np.zeros((10, 1)))
        once = emulate_missing(s, 0.5, seed=1)
        with pytest.raises(DataError):
            emulate_missing(once, 0.1, seed=2)


class TestWindowSplit:
    def test_single_window(self):
        s = TimeSeries.complete(np.zeros((120, 2)))
        assert len(window(s, 120)) == 1

    def test_disjoint_windows(self):
        s = TimeSeries.complete(np.arange(480.0).reshape(240, 2))
        ws = window(s, 120, stride=120)
        assert len(ws) == 2
        assert ws[0].t0 == 0 and ws[1].t0 == 120
        assert ws[0].values[-1, 0] != ws[1].values[0, 0]

    def test_window_longer_than_series(self):
        with pytest.raises(DataError):
            window(TimeSeries.complete(np.zeros((50, 1))), 120)

    def test_split_80_10_10(self):
        windows = [TimeSeries.complete(np.zeros((10, 1))) for _ in range(100)]
        ds = split(windows, (0.8, 0.1, 0.1), seed=0)
        assert (len(ds.train), len(ds.val), len(ds.test)) == (80, 10, 10)

    def test_split_disjoint_and_exhaustive(self):
        windows = [TimeSeries.complete(np.full((5, 1), float(i))) for i in range(37)]
        ds = split(windows, seed=3)
        ids = [w.values[0, 0] for part in (ds.train, ds.val, ds.test) for w in part]
        assert sorted(ids) == list(map(float, range(37)))

    def test_bad_fractions(self):
        with pytest.raises(DataError):
            split([TimeSeries.complete(np.zeros((5, 1)))], (0.5, 0.2, 0.2))


class TestSynthCloud:
    def test_shapes_and_determinism(self):
        a = synth_cloud(nodes=2, steps=300, seed=5)
        b = synth_cloud(nodes=2, steps=300, seed=5)
        assert len(a) == 2
        for sa, sb in zip(a, b):
            assert sa.values.shape == (300, 3)
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_cpu_channel_bounded(self):
        for s in synth_cloud(nodes=3, steps=500, seed=6):
            cpu = s.values[:, -1]
            assert np.all(cpu >= 0.0) and np.all(cpu <= 1.0)

    def test_traffic_channels_nonnegative(self):
        for s in synth_cloud(nodes=3, steps=500, seed=7):
            assert np.all(s.values[:, :-1] >= 0.0)

    def test_lag1_autocorrelation(self):
        s = synth_cloud(nodes=1, steps=10_000, seed=8)[0]
        for d in range(s.dims):
            assert lag1_autocorr(s.values[:, d]) > 0.5

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            synth_cloud(nodes=1, steps=100, seed=0)


class TestRandomWalk:
    def test_increments_are_gaussian_steps(self):
        s = synth_random_walk(steps=1000, seed=9, dims=2, step_sigma=0.5)
        inc = np.diff(s.values, axis=0)
        assert abs(inc.std() - 0.5) < 0.05

    def test_deterministic(self):
        a = synth_random_walk(steps=100, seed=10)
        b = synth_random_walk(steps=100, seed=10)
        np.testing.assert_array_equal(a.values, b.values)
