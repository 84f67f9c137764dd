import numpy as np
import pytest

from uprop import forecaster
from uprop.baselines import (IMPUTE_CLAMP, ImputePolicy, filter_series_imputed,
                             mc_rollout)
from uprop.data import TimeSeries
from uprop.errors import ConfigError, ShapeError
from uprop.forecaster import DistVector, filter_series, rollout

from test_forecaster import small_model


def series_with_gap(steps=16, dims=2, gap=slice(8, 11), seed=0):
    values = np.random.default_rng(seed).normal(size=(steps, dims))
    mask = np.ones((steps, dims), dtype=bool)
    mask[gap, :] = False
    return TimeSeries(values=values, mask=mask)


class TestImputePolicy:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ImputePolicy(kind="median")


class TestFilterSeriesImputed:
    def test_fully_observed_matches_reference_filter_bitwise(self):
        model = small_model(seed=20)
        series = TimeSeries.complete(
            np.random.default_rng(20).normal(size=(25, 2)))
        ref = filter_series(model, series)
        for kind in ("mean", "sample"):
            got = filter_series_imputed(model, series, ImputePolicy(kind=kind, seed=1))
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a.input.mu, b.input.mu)
                np.testing.assert_array_equal(a.forecast.steps[0].mu,
                                              b.forecast.steps[0].mu)
                np.testing.assert_array_equal(a.forecast.steps[0].sigma,
                                              b.forecast.steps[0].sigma)

    def test_imputed_inputs_claim_certainty(self):
        model = small_model(seed=21)
        series = series_with_gap(seed=21)
        steps = filter_series_imputed(model, series, ImputePolicy(kind="mean"))
        for fs in steps:
            np.testing.assert_array_equal(fs.input.sigma, np.zeros(2))

    def test_mean_policy_feeds_pending_mean(self):
        model = small_model(seed=22)
        series = series_with_gap(steps=12, gap=slice(6, 7), seed=22)
        steps = filter_series_imputed(model, series, ImputePolicy(kind="mean"))
        pending = steps[5].forecast.steps[0]
        np.testing.assert_array_equal(steps[6].input.mu, pending.mu)

    def test_sample_policy_is_seeded_and_varies(self):
        model = small_model(seed=23)
        series = series_with_gap(seed=23)
        a = filter_series_imputed(model, series, ImputePolicy(kind="sample", seed=5))
        b = filter_series_imputed(model, series, ImputePolicy(kind="sample", seed=5))
        c = filter_series_imputed(model, series, ImputePolicy(kind="sample", seed=6))
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.input.mu, fb.input.mu)
        assert any(not np.array_equal(fa.input.mu, fc.input.mu)
                   for fa, fc in zip(a, c))

    def test_imputed_values_clamped(self):
        model = small_model(seed=24)
        series = series_with_gap(seed=24)
        for kind in ("mean", "sample"):
            steps = filter_series_imputed(model, series,
                                          ImputePolicy(kind=kind, seed=0))
            for fs in steps:
                assert np.all(np.abs(fs.input.mu) <= IMPUTE_CLAMP + 1e-12)

    def test_dims_mismatch(self):
        model = small_model(dims=2)
        with pytest.raises(ShapeError):
            filter_series_imputed(model, TimeSeries.complete(np.zeros((5, 3))),
                                  ImputePolicy())

    @pytest.mark.parametrize("size", [1, 4])
    @pytest.mark.parametrize("kind", ["mean", "sample"])
    def test_mis_sized_prior_is_rejected(self, size, kind):
        model = small_model(dims=3)
        series = TimeSeries(values=np.full((4, 3), np.nan),
                            mask=np.zeros((4, 3), dtype=bool))
        prior = DistVector(mu=np.full(size, 5.0), sigma=np.full(size, 2.0))
        with pytest.raises(ShapeError, match=f"prior dims {size} != model dims 3"):
            filter_series_imputed(model, series, ImputePolicy(kind=kind), prior)


class TestMcRollout:
    def test_shapes(self):
        model = small_model(seed=25)
        rng = np.random.default_rng(25)
        context = [DistVector.observed(rng.normal(size=2)) for _ in range(5)]
        mean, std = mc_rollout(model, context, k=4, n_samples=8, seed=0)
        assert mean.shape == (4, 2) and std.shape == (4, 2)
        assert np.all(std >= 0.0)

    def test_seeded_determinism(self):
        model = small_model(seed=26)
        rng = np.random.default_rng(26)
        context = [DistVector.observed(rng.normal(size=2)) for _ in range(4)]
        a = mc_rollout(model, context, k=3, n_samples=16, seed=7)
        b = mc_rollout(model, context, k=3, n_samples=16, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_first_step_converges_to_deterministic_forecast(self):
        # step 1 samples i.i.d. from the predicted Gaussian, so the
        # empirical mean/std must approach the analytic belief
        model = small_model(seed=27)
        rng = np.random.default_rng(27)
        context = [DistVector.observed(rng.normal(size=2)) for _ in range(6)]
        analytic = rollout(model, context, k=1).steps[0]
        mean, std = mc_rollout(model, context, k=1, n_samples=4000, seed=1)
        se = analytic.sigma / np.sqrt(4000)
        assert np.all(np.abs(mean[0] - analytic.mu) < 5 * se)
        np.testing.assert_allclose(std[0], analytic.sigma, rtol=0.1)

    def test_needs_samples_and_context(self):
        model = small_model(seed=28)
        context = [DistVector.observed(np.zeros(2))]
        with pytest.raises(ValueError):
            mc_rollout(model, context, k=2, n_samples=1, seed=0)
        with pytest.raises(ValueError):
            mc_rollout(model, [], k=2, n_samples=4, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            mc_rollout(model, context, k=0, n_samples=4, seed=0)

    def test_bad_horizon_is_refused_before_the_context_runs(self, monkeypatch):
        model = small_model(seed=29)
        context = [DistVector.observed(np.zeros(2))] * 5
        calls = []
        for name in ("step", "fused_stack_step"):
            original = getattr(forecaster, name)

            def counting(*args, _original=original):
                calls.append(args)
                return _original(*args)

            monkeypatch.setattr(forecaster, name, counting)
        with pytest.raises(ConfigError, match="horizon"):
            mc_rollout(model, context, k=0, n_samples=4, seed=0)
        with pytest.raises(ConfigError, match="horizon"):
            rollout(model, context, k=0)
        assert not calls
