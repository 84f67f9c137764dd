import dataclasses
import warnings

import numpy as np
import pytest

import gru_reference as ref
from uprop import tensor as tn
from uprop.data import NormStats, TimeSeries
from uprop.errors import ConfigError, DataError, ShapeError
from uprop.forecaster import (DistVector, TrainConfig, UPropModel, build_model,
                              encode_input, filter_series, rollout, step, train)
from uprop.nn import train_buffers, window_batch_forward, zero_grad, zero_hidden
from uprop.novelty import forecast_from_origin

from test_batch_loss import fresh_batch_loss


def small_model(dims=2, hidden=6, layers=2, seed=0, floor=1e-3):
    cfg = TrainConfig(lookahead=2, window_length=20, n_layers=layers,
                      hidden_size=hidden, dropout=0.0, sigma_floor=floor, seed=seed)
    norm = NormStats(mean=np.zeros(dims), std=np.ones(dims))
    return build_model(dims, cfg, norm, np.random.default_rng(seed))


def belief_step(model, inp, h):
    """``step`` on a belief: its wire-layout row in, the next belief out."""
    row, h = step(model, inp.flat(), h)
    return DistVector._of_row(row), h


def toy_windows(n_windows=16, length=40, dims=2, seed=0):
    """Strong AR(1): one-step predictable, learnable in a few epochs."""
    rng = np.random.default_rng(seed)
    windows = []
    for _ in range(n_windows):
        x = np.zeros((length, dims))
        x[0] = rng.normal(size=dims)
        for t in range(1, length):
            x[t] = 0.95 * x[t - 1] + 0.1 * rng.normal(size=dims)
        windows.append(TimeSeries.complete(x))
    return windows


class TestEncodeInput:
    def test_fully_observed(self):
        x = np.array([1.0, -2.0, 3.0])
        d = encode_input(x)
        np.testing.assert_array_equal(d.mu, x)
        np.testing.assert_array_equal(d.sigma, np.zeros(3))

    def test_missing_dim_takes_pending(self):
        obs = np.array([1.0, np.nan, 3.0])
        pending = DistVector(mu=np.array([9.0, 8.0, 7.0]),
                             sigma=np.array([0.1, 0.2, 0.3]))
        d = encode_input(obs, pending=pending)
        np.testing.assert_array_equal(d.mu, [1.0, 8.0, 3.0])
        np.testing.assert_array_equal(d.sigma, [0.0, 0.2, 0.0])

    def test_all_missing_cold_start_uses_prior(self):
        d = encode_input(np.full(3, np.nan))
        np.testing.assert_array_equal(d.mu, np.zeros(3))
        np.testing.assert_array_equal(d.sigma, np.ones(3))

    def test_explicit_mask_overrides_nan_rule(self):
        obs = np.array([1.0, 2.0])
        d = encode_input(obs, mask=np.array([True, False]),
                         prior=DistVector.standard(2))
        np.testing.assert_array_equal(d.mu, [1.0, 0.0])
        np.testing.assert_array_equal(d.sigma, [0.0, 1.0])

    @pytest.mark.parametrize("size", [1, 4])
    @pytest.mark.parametrize("role", ["pending", "prior"])
    def test_mis_sized_fallback_is_not_broadcast(self, size, role):
        belief = DistVector(mu=np.full(size, 5.0), sigma=np.full(size, 2.0))
        with pytest.raises(ShapeError, match=f"belief dims {size} != observation dims 3"):
            encode_input(np.full(3, np.nan), **{role: belief})


class TestStep:
    def test_deterministic(self):
        model = small_model()
        inp = DistVector.observed(np.array([0.3, -0.7]))
        h = zero_hidden(model.stack)
        p1, h1 = belief_step(model, inp, h)
        p2, h2 = belief_step(model, inp, h)
        np.testing.assert_array_equal(p1.mu, p2.mu)
        np.testing.assert_array_equal(p1.sigma, p2.sigma)
        for a, b in zip(h1, h2):
            np.testing.assert_array_equal(a, b)

    def test_sigma_at_least_floor(self):
        model = small_model(floor=1e-3)
        rng = np.random.default_rng(1)
        h = zero_hidden(model.stack)
        for _ in range(20):
            pred, h = belief_step(model, DistVector.observed(rng.normal(size=2)), h)
            assert np.all(pred.sigma >= 1e-3)

    def test_zero_weight_model_emits_readout_bias(self):
        model = small_model()
        for p in model.parameters():
            p.value[...] = 0.0
        bias = model.readout.bias.value
        bias[...] = np.array([0.5, -0.5, 0.2, -3.0])
        model.refresh_frozen()
        pred, _ = belief_step(model, DistVector.observed(np.array([1.0, 2.0])),
                              zero_hidden(model.stack))
        np.testing.assert_allclose(pred.mu, [0.5, -0.5])
        np.testing.assert_allclose(
            pred.sigma, np.logaddexp(0, [0.2, -3.0]) + model.train_config.sigma_floor)

    def test_in_place_weight_edits_are_seen_without_a_refresh(self):
        # inference reads views of the weights, not copies
        model = small_model(seed=3)
        inp = DistVector.observed(np.array([0.5, -0.5]))
        before, _ = belief_step(model, inp, zero_hidden(model.stack))
        for p in model.parameters():
            p.value *= 1.5
        edited, _ = belief_step(model, inp, zero_hidden(model.stack))
        model.refresh_frozen()
        refreshed, _ = belief_step(model, inp, zero_hidden(model.stack))
        assert not np.array_equal(before.mu, edited.mu)
        np.testing.assert_array_equal(edited.mu, refreshed.mu)
        np.testing.assert_array_equal(edited.sigma, refreshed.sigma)

    def test_dim_mismatch(self):
        model = small_model(dims=2)
        with pytest.raises(ShapeError):
            belief_step(model, DistVector.observed(np.zeros(3)), zero_hidden(model.stack))

    @pytest.mark.parametrize("layers, states", [(3, 1), (3, 2), (2, 3), (1, 0)])
    def test_one_hidden_state_per_layer(self, layers, states):
        # fewer states would step fewer layers and read out a lower one
        model = small_model(layers=layers)
        h = [np.zeros(6)] * states
        with pytest.raises(ShapeError,
                           match=rf"one hidden state per layer \({layers}\), got {states}"):
            step(model, np.zeros(4), h)


class TestRollout:
    def test_k1_equals_one_step_after_context(self):
        model = small_model(seed=2)
        rng = np.random.default_rng(2)
        context = [DistVector.observed(rng.normal(size=2)) for _ in range(5)]
        fc = rollout(model, context, k=1)
        h = zero_hidden(model.stack)
        for inp in context:
            pred, h = belief_step(model, inp, h)
        np.testing.assert_array_equal(fc.steps[0].mu, pred.mu)
        np.testing.assert_array_equal(fc.steps[0].sigma, pred.sigma)

    def test_prefix_consistency(self):
        model = small_model(seed=3)
        rng = np.random.default_rng(3)
        context = [DistVector.observed(rng.normal(size=2)) for _ in range(4)]
        full = rollout(model, context, k=6)
        for j in (1, 3, 5):
            part = rollout(model, context, k=j)
            for a, b in zip(part.steps, full.steps[:j]):
                np.testing.assert_array_equal(a.mu, b.mu)
                np.testing.assert_array_equal(a.sigma, b.sigma)

    def test_empty_context_rejected(self):
        with pytest.raises(ValueError):
            rollout(small_model(), [], k=1)

    @pytest.mark.parametrize("k", [0, -3])
    def test_horizon_below_one_rejected(self, k):
        context = [DistVector.observed(np.zeros(2))]
        with pytest.raises(ValueError, match="horizon"):
            rollout(small_model(), context, k=k)


class TestFilterSeries:
    def test_fully_observed_inputs_have_zero_sigma(self):
        model = small_model(seed=4)
        series = TimeSeries.complete(np.random.default_rng(4).normal(size=(15, 2)))
        for fs in filter_series(model, series):
            np.testing.assert_array_equal(fs.input.sigma, np.zeros(2))

    def test_missing_dim_input_is_previous_forecast(self):
        model = small_model(seed=5)
        values = np.random.default_rng(5).normal(size=(10, 2))
        mask = np.ones((10, 2), dtype=bool)
        mask[6, 1] = False
        series = TimeSeries(values=values, mask=mask)
        steps = filter_series(model, series)
        prev = steps[5].forecast.steps[0]
        assert steps[6].input.mu[1] == prev.mu[1]
        assert steps[6].input.sigma[1] == prev.sigma[1]
        assert steps[6].input.sigma[0] == 0.0

    def test_all_missing_tail_equals_rollout_exactly(self):
        model = small_model(seed=6)
        rng = np.random.default_rng(6)
        values = rng.normal(size=(20, 2))
        mask = np.ones((20, 2), dtype=bool)
        mask[14:, :] = False
        series = TimeSeries(values=values, mask=mask)
        steps = filter_series(model, series)
        context = [DistVector.observed(v) for v in values[:14]]
        fc = rollout(model, context, k=6)
        # forecast made at step 13 is fc step 1; inputs at 14.. equal fc steps
        for j in range(6):
            got = steps[13 + j].forecast.steps[0]
            np.testing.assert_array_equal(got.mu, fc.steps[j].mu)
            np.testing.assert_array_equal(got.sigma, fc.steps[j].sigma)

    def test_dims_mismatch(self):
        model = small_model(dims=2)
        with pytest.raises(ShapeError):
            filter_series(model, TimeSeries.complete(np.zeros((5, 3))))

    @pytest.mark.parametrize("size", [1, 4])
    def test_mis_sized_prior_is_rejected(self, size):
        # an all-missing first row used to take the 1-dim prior broadcast to
        # every dimension; a 4-dim one failed inside numpy
        model = small_model(dims=3)
        series = TimeSeries(values=np.full((4, 3), np.nan),
                            mask=np.zeros((4, 3), dtype=bool))
        prior = DistVector(mu=np.full(size, 5.0), sigma=np.full(size, 2.0))
        with pytest.raises(ShapeError):
            filter_series(model, series, prior=prior)


class TestTrainConfig:
    def test_lookahead_must_be_below_window(self):
        with pytest.raises(ConfigError):
            TrainConfig(lookahead=120, window_length=120)

    def test_epochs_positive(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("n_layers", 0), ("hidden_size", 0),
        ("sigma_floor", 0.0), ("sigma_floor", -1e-3)])
    def test_sizes_and_floor_positive(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value, says", [
        ("seed", True, "an integer"), ("n_layers", 2.0, "an integer"),
        ("learning_rate", float("nan"), "a finite number"),
        ("dropout", "0.2", "a finite number")])
    def test_field_of_another_type_rejected(self, field, value, says):
        # a checkpoint would write it, and load_checkpoint refuse it
        with pytest.raises(ConfigError, match=f"{field} must be {says}, got {value!r}"):
            TrainConfig(**{field: value})

    def test_numpy_integers_are_integers(self):
        cfg = TrainConfig(seed=np.int64(3), hidden_size=np.int32(4), learning_rate=1)
        assert (cfg.seed, cfg.hidden_size) == (3, 4)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("lr", [0.0, -0.01])
    def test_learning_rate_positive(self, lr):
        with pytest.raises(ConfigError, match=f"learning rate must be positive, got {lr}"):
            TrainConfig(learning_rate=lr)

    def test_fields_cannot_be_assigned(self):
        # an assigned value would skip the checks, and a model saves it
        model = small_model(seed=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.train_config.seed = -1
        assert model.train_config.seed == 4

    def test_replace_runs_the_checks_again(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            dataclasses.replace(TrainConfig(), seed=-1)
        with pytest.raises(ConfigError, match="sigma_floor must be positive"):
            dataclasses.replace(TrainConfig(), sigma_floor=0.0)
        assert dataclasses.replace(TrainConfig(), seed=5) == TrainConfig(seed=5)


@pytest.mark.parametrize("part, says", [
    ("stack", "stack input width"), ("readout", "readout output width"),
    ("norm", "normalization stats")])
def test_model_parts_of_other_dims_rejected(part, says):
    two, three = small_model(dims=2), small_model(dims=3)
    parts = dict(stack=two.stack, readout=two.readout, norm=two.norm)
    parts[part] = getattr(three, part)
    with pytest.raises(ShapeError, match=says):
        UPropModel(dims=2, train_config=two.train_config, **parts)


class TestTrain:
    def test_loss_decreases_on_learnable_data(self):
        cfg = TrainConfig(lookahead=2, epochs=8, window_length=40,
                          n_layers=1, hidden_size=8, batch_size=8, seed=7,
                          learning_rate=0.01)
        model, history = train(toy_windows(seed=7), cfg)
        assert len(history) == 8
        assert np.mean(history[-2:]) < 0.8 * history[0]

    def test_same_seed_identical_history(self):
        cfg = TrainConfig(lookahead=2, epochs=2, window_length=40,
                          n_layers=1, hidden_size=6, batch_size=8, seed=8)
        _, h1 = train(toy_windows(seed=8), cfg)
        _, h2 = train(toy_windows(seed=8), cfg)
        assert h1 == h2

    def test_rejects_no_windows(self):
        with pytest.raises(DataError, match="no training windows"):
            train([], TrainConfig(window_length=40, lookahead=2))

    def test_rejects_missing_values(self):
        windows = toy_windows(n_windows=2, seed=9)
        windows[1].mask[3, 0] = False
        cfg = TrainConfig(lookahead=2, epochs=1, window_length=40,
                          n_layers=1, hidden_size=4, seed=9)
        with pytest.raises(DataError):
            train(windows, cfg)

    def test_rejects_windows_of_mixed_dims(self):
        windows = toy_windows(n_windows=2, dims=2, seed=9) + toy_windows(n_windows=1, dims=3)
        cfg = TrainConfig(lookahead=2, epochs=1, window_length=40,
                          n_layers=1, hidden_size=4, seed=9)
        with pytest.raises(DataError, match="dims 3 != first window's 2"):
            train(windows, cfg)

    def test_non_finite_loss_names_epoch_and_batch(self):
        # finite values that overflow to inf once normalized
        windows = [TimeSeries.complete(np.full((40, 2), 1e304)) for _ in range(3)]
        cfg = TrainConfig(lookahead=2, epochs=1, window_length=40,
                          n_layers=1, hidden_size=4, batch_size=2, seed=9)
        norm = NormStats(mean=np.zeros(2), std=np.full(2, 1e-6))
        with np.errstate(all="ignore"), \
                pytest.raises(DataError, match="epoch 1, batch 1"):
            train(windows, cfg, norm=norm)

    def test_rejects_wrong_window_length(self):
        cfg = TrainConfig(lookahead=2, epochs=1, window_length=50,
                          n_layers=1, hidden_size=4, seed=9)
        with pytest.raises(DataError):
            train(toy_windows(n_windows=2, length=40, seed=10), cfg)

    def test_prediction_shape_against_truth(self):
        # lookahead 3 over 5 dims: truth block is 3x5, each prediction
        # carries 2*5 numbers on the wire
        model = small_model(dims=5, seed=11)
        rng = np.random.default_rng(11)
        context = [DistVector.observed(rng.normal(size=5)) for _ in range(4)]
        fc = rollout(model, context, k=3)
        truth = rng.normal(size=(3, 5))
        assert truth.shape == (3, 5)
        assert len(fc.steps) == 3
        for s in fc.steps:
            assert s.flat().shape == (10,)


class TestGradientsOfTrainingLoss:
    def test_full_model_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        model = small_model(dims=2, hidden=4, layers=1, seed=12)
        x = rng.normal(size=(5, 2))
        anchor, k = 3, 2
        params = model.parameters()

        def loss_value():
            return float(fresh_batch_loss(model, x[None], [anchor], k, None)[0].value)

        zero_grad(params)
        loss = fresh_batch_loss(model, x[None], [anchor], k, None)[0]
        tn.backward(loss)
        eps = 1e-5
        for p in params:
            flat = p.value.ravel()
            grad = p.grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss_value()
                flat[i] = orig - eps
                lm = loss_value()
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - grad[i]) <= 1e-4 * max(abs(fd), abs(grad[i]), 1e-6)

    def test_unused_parameters_get_zero_gradient(self):
        # sigma path unused by mu, and vice versa, at the readout bias:
        # gradient of the mu part of the loss w.r.t. untouched weights is 0
        model = small_model(dims=1, hidden=4, layers=1, seed=13)
        x = np.zeros((4, 1))
        params = model.parameters()
        zero_grad(params)
        loss = fresh_batch_loss(model, x[None], [2], 1, None)[0]
        tn.backward(loss)
        for p in params:
            assert p.grad is not None
            assert p.grad.shape == p.value.shape


class TestSaturatedGates:
    """Gate pre-activations at +-800 and a readout sigma half at -800:
    exp overflows inside the sigmoid, which must stay silent and give
    gates of exactly 0 or 1."""

    @staticmethod
    def saturated_model():
        model = small_model(dims=2, hidden=4, layers=2, seed=21)
        rng = np.random.default_rng(21)
        for cell in model.stack.layers:
            cell.b_w.value[:8] = rng.choice([-800.0, 800.0], size=8)
        model.readout.bias.value[2:] = -800.0
        model.refresh_frozen()
        return model

    @staticmethod
    def reference_scan(model, n, policy):
        """The beliefs of ``n`` steps of ``gru_reference`` under an input
        policy, as in ``forecaster._scan``."""
        h, pending, out = zero_hidden(model.stack), None, []
        w, b = model.readout.weight.value, model.readout.bias.value
        for t in range(n):
            inp = policy(t, pending)
            top, h = ref.gru_stack_step(model.stack, np.concatenate([inp.mu, inp.sigma]), h)
            raw = w @ top + b
            pending = DistVector(mu=raw[:2],
                                 sigma=np.logaddexp(0.0, raw[2:]) + model.train_config.sigma_floor)
            out.append(pending)
        return out

    def test_no_warning_and_matches_the_reference(self):
        model = self.saturated_model()
        rng = np.random.default_rng(22)
        values = rng.normal(size=(30, 2))
        values[rng.random((30, 2)) < 0.3] = np.nan
        series = TimeSeries(values=values, mask=~np.isnan(values))
        X = rng.normal(size=(3, 12, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = filter_series(model, series)
            fc = forecast_from_origin(model, series, 20, 4)
            _, cache = window_batch_forward(model.stack, model.readout,
                                            model.train_config.sigma_floor, X, [3, 8, 5], 4,
                                            None, train_buffers(model.stack.layers, 3, 11))
            params = model.parameters()
            zero_grad(params)
            loss, _ = fresh_batch_loss(model, X, [3, 8, 5], 4, None)
            tn.backward(loss)
        for rz in cache.rz:
            assert np.all((rz == 0.0) | (rz == 1.0))
        assert all(np.all(np.isfinite(p.grad)) for p in params)
        np.testing.assert_array_equal(model.readout.bias.grad[2:], 0.0)

        def observe(t, pending, origin=len(values)):
            return encode_input(values[t], pending) if t <= origin else pending

        filtered = [r.forecast.steps[0] for r in records]
        assert filtered[0].sigma.tolist() == [model.train_config.sigma_floor] * 2
        pairs = [(filtered, self.reference_scan(model, 30, observe)),
                 (fc.steps, self.reference_scan(
                     model, 24, lambda t, p: observe(t, p, 20))[20:])]
        for got, want in pairs:
            for g, w in zip(got, want, strict=True):
                np.testing.assert_allclose(g.mu, w.mu, rtol=0, atol=1e-12)
                np.testing.assert_allclose(g.sigma, w.sigma, rtol=0, atol=1e-12)
