import numpy as np
import pytest

from uprop import forecaster
from uprop.baselines import mc_rollout
from uprop.data import TimeSeries
from uprop.errors import ConfigError, DataError, ShapeError
from uprop.forecaster import DistVector, Forecast, rollout
from uprop.novelty import (NoveltyScore, Threshold, calibrate_threshold,
                           forecast_from_origin, score_series, surprise_score,
                           volatility_score)
from uprop.prob import LN_2PI, kl

from test_forecaster import small_model, toy_windows


class TestScoreRecords:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NoveltyScore(t=0, kind="zscore", value=1.0)

    def test_negative_kl_rejected(self):
        with pytest.raises(ValueError):
            NoveltyScore(t=0, kind="kl", value=-0.1)

    def test_threshold_quantile_range(self):
        with pytest.raises(ValueError):
            Threshold(cutoff=1.0, quantile=0.5)
        with pytest.raises(ValueError):
            Threshold(cutoff=1.0, quantile=1.0)

    @pytest.mark.parametrize("cutoff", [np.nan, np.inf, -np.inf, "1.0", True])
    def test_threshold_cutoff_must_be_a_finite_number(self, cutoff):
        # a NaN cutoff would flag nothing, an inf one everything or nothing
        with pytest.raises(ConfigError, match="cutoff must be a finite number"):
            Threshold(cutoff=cutoff)


class TestVolatility:
    def test_mean_of_first_step_sigma(self):
        model = small_model(seed=30)
        rng = np.random.default_rng(30)
        context = [DistVector.observed(rng.normal(size=2)) for _ in range(5)]
        fc = rollout(model, context, k=3)
        assert volatility_score(fc) == pytest.approx(float(fc.steps[0].sigma.mean()))


class TestSurprise:
    def test_hand_computed_value(self):
        belief = DistVector(mu=np.zeros(2), sigma=np.ones(2))
        x = np.array([0.0, 2.0])
        # mean of (0.5 ln 2pi) and (0.5 ln 2pi + 2)
        want = 0.5 * LN_2PI + 1.0
        assert surprise_score(belief, x) == pytest.approx(want, abs=1e-12)

    def test_averages_only_observed_dims(self):
        belief = DistVector(mu=np.zeros(2), sigma=np.ones(2))
        x = np.array([0.0, np.nan])
        assert surprise_score(belief, x) == pytest.approx(0.5 * LN_2PI, abs=1e-12)

    def test_all_missing_is_error(self):
        belief = DistVector.standard(2)
        with pytest.raises(ValueError):
            surprise_score(belief, np.full(2, np.nan))

    def test_zero_scale_on_an_observed_dim_is_error(self):
        belief = DistVector(mu=np.zeros(2), sigma=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="strictly positive"):
            surprise_score(belief, np.array([0.0, 1.0]))
        # a zero scale on a missing dim is not scored
        assert surprise_score(belief, np.array([0.0, np.nan])) == pytest.approx(
            0.5 * LN_2PI, abs=1e-12)

    def test_equals_mean_of_per_point_nll_bitwise(self):
        rng = np.random.default_rng(3)
        belief = DistVector(mu=rng.normal(size=7), sigma=rng.uniform(0.1, 3.0, size=7))
        x = rng.normal(size=7) * 2.0
        x[[1, 4]] = np.nan
        keep = ~np.isnan(x)
        z = (x[keep] - belief.mu[keep]) / belief.sigma[keep]
        terms = 0.5 * LN_2PI + np.log(belief.sigma[keep]) + 0.5 * z * z
        assert surprise_score(belief, x) == float(np.mean(terms))

    @pytest.mark.parametrize("x, mask", [
        (np.zeros(3), None), (np.zeros(1), None), (np.zeros(2), np.ones(3, bool)),
        (np.zeros(3), np.ones(3, bool)), (np.zeros((1, 2)), None)],
        ids=["x-long", "x-short", "mask-long", "both-long", "x-2-D"])
    def test_x_or_mask_not_of_the_belief_length_is_a_shape_error(self, x, mask):
        with pytest.raises(ShapeError, match=r"needs x and mask of shape \(2,\)"):
            surprise_score(DistVector.standard(2), x, mask)

    def test_larger_deviation_scores_higher(self):
        belief = DistVector(mu=np.zeros(1), sigma=np.full(1, 0.5))
        assert surprise_score(belief, np.array([3.0])) > surprise_score(
            belief, np.array([0.5]))


class TestKlNovelty:
    """KL novelty: ``score_series`` of kind "kl"."""

    def test_same_origin_offsets_give_zero(self):
        model = small_model(seed=31)
        series = toy_windows(n_windows=1, seed=31)[0]
        scores = score_series(model, series, "kl", near_offset=3, far_offset=3)
        assert [s.value for s in scores] == [0.0] * (series.steps - 3)

    def test_matches_explicit_two_pass_forecasts(self):
        model = small_model(seed=32)
        series = toy_windows(n_windows=1, seed=32)[0]
        near = forecast_from_origin(model, series, 19, 1)
        far = forecast_from_origin(model, series, 12, 8)
        want = kl(near.steps[-1], far.steps[-1])
        value = {s.t: s.value for s in score_series(model, series, "kl")}[20]
        assert value == pytest.approx(want, rel=1e-12)

    def test_bad_offsets(self):
        model = small_model(seed=34)
        series = toy_windows(n_windows=1, seed=34)[0]
        with pytest.raises(ConfigError):
            score_series(model, series, "kl", near_offset=4, far_offset=2)


class TestForecastFromOrigin:
    @pytest.mark.parametrize("k", [0, -3])
    def test_horizon_below_one_rejected(self, k):
        # k < 1 must not be read as a 1-step forecast
        model = small_model(seed=42)
        series = toy_windows(n_windows=1, seed=42)[0]
        with pytest.raises(ValueError, match="horizon"):
            forecast_from_origin(model, series, 10, k)

    def test_bad_horizon_is_refused_before_any_step(self, monkeypatch):
        model = small_model(seed=42)
        series = toy_windows(n_windows=1, seed=42)[0]
        forecast_from_origin(model, series, 5, 2)
        cursor, calls = model._cursor, []
        for name in ("step", "fused_stack_step"):
            original = getattr(forecaster, name)

            def counting(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(forecaster, name, counting)
        with pytest.raises(ConfigError, match="horizon must be >= 1, got 0"):
            forecast_from_origin(model, series, 30, 0)
        assert calls == [] and model._cursor is cursor

    @pytest.mark.parametrize("origin", [-1, 40])
    def test_origin_outside_series_rejected(self, origin):
        model = small_model(seed=42)
        series = toy_windows(n_windows=1, seed=42)[0]
        with pytest.raises(ValueError, match=f"origin {origin} outside series of length 40"):
            forecast_from_origin(model, series, origin, 2)


def test_volatility_of_empty_forecast_rejected():
    with pytest.raises(ValueError, match="forecast has no steps"):
        volatility_score(Forecast(origin_t=0, steps=[]))


class TestCalibrateThreshold:
    def test_median_quantile_worked_example(self):
        # q=0.5 of {1..100} under linear interpolation is 50.5 — checked
        # here at the lowest accepted quantile boundary via np directly
        values = np.arange(1.0, 101.0)
        assert float(np.quantile(values, 0.5, method="linear")) == 50.5
        th = calibrate_threshold(values, quantile=0.99)
        assert th.cutoff == pytest.approx(float(np.quantile(values, 0.99)))

    def test_accepts_score_objects(self):
        scores = [NoveltyScore(t=i, kind="surprise", value=float(i))
                  for i in range(150)]
        th = calibrate_threshold(scores, quantile=0.9)
        assert th.cutoff == pytest.approx(float(np.quantile(np.arange(150.0), 0.9)))

    @pytest.mark.parametrize("quantile", [0.5, 1.0, 1.5])
    def test_quantile_outside_range_rejected(self, quantile):
        with pytest.raises(ConfigError, match="quantile"):
            calibrate_threshold(np.arange(200.0), quantile=quantile)

    def test_requires_100_scores(self):
        with pytest.raises(DataError):
            calibrate_threshold(np.arange(99.0))

    @pytest.mark.parametrize("values", [[np.nan] * 200, [np.inf] * 200,
                                        [*range(199), -np.inf]])
    def test_non_finite_scores_rejected(self, values):
        # a NaN cutoff never flags, and neither does an inf one
        with pytest.raises(DataError, match="scores must be finite"):
            calibrate_threshold(values)

    def test_flags_about_one_percent_on_calibration_data(self):
        rng = np.random.default_rng(35)
        values = rng.normal(size=1000)
        th = calibrate_threshold(values, quantile=0.99)
        assert (values > th.cutoff).sum() == 10


class TestScoreSeries:
    def test_kl_path_matches_per_target_calls(self):
        model = small_model(seed=36)
        series = toy_windows(n_windows=1, length=30, seed=36)[0]
        scores = score_series(model, series, "kl", near_offset=1, far_offset=8)
        assert [s.t for s in scores] == list(range(8, 30))
        for s in scores[:5]:
            near = forecast_from_origin(model, series, s.t - 1, 1)
            far = forecast_from_origin(model, series, s.t - 8, 8)
            want = kl(near.steps[-1], far.steps[-1])
            assert s.value == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("near, far", [(5, 2), (0, 8), (-1, 3)])
    def test_kl_rejects_bad_offsets(self, near, far):
        # far < near would index origins before row 0 (wrapping to the
        # end of the series); near 0 would score the forecast for t + 1
        model = small_model(seed=36)
        series = toy_windows(n_windows=1, length=30, seed=36)[0]
        with pytest.raises(ConfigError, match="offsets"):
            score_series(model, series, "kl", near_offset=near, far_offset=far)

    def test_surprise_skips_all_missing_rows(self):
        model = small_model(seed=37)
        values = np.random.default_rng(37).normal(size=(12, 2))
        mask = np.ones((12, 2), dtype=bool)
        mask[5, :] = False
        series = TimeSeries(values=values, mask=mask)
        scores = score_series(model, series, "surprise")
        assert [s.t for s in scores] == [t for t in range(1, 12) if t != 5]

    def test_threshold_flags(self):
        model = small_model(seed=38)
        series = toy_windows(n_windows=1, length=30, seed=38)[0]
        scores = score_series(model, series, "volatility",
                              threshold=Threshold(cutoff=-1.0))
        assert all(s.flagged for s in scores)  # every sigma beats -1

    def test_unknown_kind(self):
        model = small_model(seed=39)
        with pytest.raises(ValueError):
            score_series(model, toy_windows(n_windows=1, seed=39)[0], "entropy")

    def test_detects_injected_level_shift(self):
        # train briefly on AR(1); inject a large shift and check the KL
        # score at/after the shift dominates the clean-region scores
        from uprop.forecaster import TrainConfig, train
        cfg = TrainConfig(lookahead=2, epochs=6, window_length=40,
                          n_layers=1, hidden_size=8, batch_size=8, seed=40,
                          learning_rate=0.01)
        model, _ = train(toy_windows(seed=40), cfg)
        rng = np.random.default_rng(41)
        x = np.zeros((60, 2))
        for t in range(1, 60):
            x[t] = 0.95 * x[t - 1] + 0.1 * rng.normal(size=2)
        x = (x - model.norm.mean) / model.norm.std
        x[40:] += 6.0  # abrupt shift in normalized units
        series = TimeSeries.complete(x)
        scores = score_series(model, series, "kl")
        clean = [s.value for s in scores if s.t < 40]
        hot = [s.value for s in scores if 41 <= s.t < 53]
        assert np.mean(hot) > 5 * np.mean(clean)
        assert min(hot) > np.mean(clean)


@pytest.mark.parametrize("call, says", [
    (lambda m, s: forecast_from_origin(m, s, 3, 2.5), "horizon must be an integer, got 2.5"),
    (lambda m, s: forecast_from_origin(m, s, 3, 2.0), "horizon must be an integer, got 2.0"),
    (lambda m, s: rollout(m, [DistVector.observed(np.zeros(2))], 2.5), "horizon must be an integer"),
    (lambda m, s: mc_rollout(m, [DistVector.observed(np.zeros(2))], 2.0, 4, 0),
     "horizon must be an integer"),
    (lambda m, s: score_series(m, s, "kl", far_offset=8.0), "offsets must be integers"),
], ids=["origin-2.5", "origin-2.0", "rollout", "mc_rollout", "score_series"])
def test_non_integer_horizon_or_offset_is_a_config_error(call, says):
    model = small_model(seed=42)
    series = toy_windows(n_windows=1, length=30, seed=42)[0]
    with pytest.raises(ConfigError, match=says):
        call(model, series)


@pytest.mark.parametrize("call, says", [
    (lambda m, s: forecast_from_origin(m, s, 3.0, 2), "origin must be an integer, got 3.0"),
    (lambda m, s: forecast_from_origin(m, s, True, 2), "origin must be an integer, got True"),
    (lambda m, s: mc_rollout(m, [DistVector.observed(np.zeros(2))], 2, 4.0, 0),
     "integer n_samples, got 4.0"),
], ids=["origin-float", "origin-bool", "mc_rollout"])
def test_non_integer_position_or_count_is_a_value_error(call, says):
    model = small_model(seed=42)
    series = toy_windows(n_windows=1, length=30, seed=42)[0]
    with pytest.raises(ValueError, match=says):
        call(model, series)
