import dataclasses
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uprop.checkpoint import _HYPER_FIELDS, load_checkpoint, save_checkpoint
from uprop.cli import main
from uprop.data import NormStats, TimeSeries, emulate_missing
from uprop.errors import CheckpointNotFoundError, DataError
from uprop.forecaster import DistVector, TrainConfig, rollout, train
from uprop.nn import gate_blocks
from uprop.novelty import forecast_from_origin

from test_forecaster import small_model, toy_windows

# the per-gate weight keys of one GRU layer, in the order format version 1
# writes them
GATE_KEYS = ("W_r", "W_z", "W_n", "U_r", "U_z", "U_n", "b_r", "b_z", "b_in", "b_hn")

# a format-1 checkpoint (dims 2, 2 layers x hidden 3) written when the GRU
# weights were still stored per gate
V1_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v1_2x3.json"


def tiny_trained_model(seed=50):
    cfg = TrainConfig(lookahead=2, epochs=2, window_length=40, n_layers=2,
                      hidden_size=6, batch_size=8, seed=seed)
    return train(toy_windows(seed=seed), cfg)


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        model, hist = tiny_trained_model()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(model, p1, final_loss=hist[-1])
        loaded, info = load_checkpoint(p1)
        save_checkpoint(loaded, p2, final_loss=info["final_loss"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_per_gate_checkpoint_loads_and_resaves_byte_identically(self, tmp_path):
        doc = json.loads(V1_CHECKPOINT.read_text())
        assert list(doc["weights"]) == (
            [f"gru.{i}.{name}" for i in range(2) for name in GATE_KEYS]
            + ["readout.weight", "readout.bias"])
        loaded, info = load_checkpoint(V1_CHECKPOINT)
        # each fused weight stacks its gate blocks as [r; z; n]; row-major,
        # that is the concatenation of the blocks' flat lists
        for i, cell in enumerate(loaded.stack.layers):
            blocks = (GATE_KEYS[:3], GATE_KEYS[3:6], GATE_KEYS[6:9], GATE_KEYS[9:])
            for fused, names in zip(cell.weights(), blocks):
                np.testing.assert_array_equal(fused.value.ravel(), np.concatenate(
                    [doc["weights"][f"gru.{i}.{name}"] for name in names]))
        path = tmp_path / "resaved.json"
        save_checkpoint(loaded, path, final_loss=info["final_loss"])
        assert path.read_bytes() == V1_CHECKPOINT.read_bytes()

    def test_loaded_model_reproduces_forecasts_bit_exactly(self, tmp_path):
        model, hist = tiny_trained_model(seed=51)
        path = tmp_path / "m.json"
        save_checkpoint(model, path, final_loss=hist[-1])
        loaded, _ = load_checkpoint(path)
        rng = np.random.default_rng(51)
        context = [DistVector.observed(rng.normal(size=2)) for _ in range(10)]
        a = rollout(model, context, k=5)
        b = rollout(loaded, context, k=5)
        for sa, sb in zip(a.steps, b.steps):
            np.testing.assert_array_equal(sa.mu, sb.mu)
            np.testing.assert_array_equal(sa.sigma, sb.sigma)

    def test_a_new_floor_in_the_train_config_moves_forecasts_and_survives(self, tmp_path):
        model, _ = tiny_trained_model(seed=59)
        rng = np.random.default_rng(59)
        context = [DistVector.observed(rng.normal(size=2)) for _ in range(10)]
        series = emulate_missing(TimeSeries.complete(rng.normal(size=(30, 2))), 0.3, seed=59)
        old = rollout(model, context, k=1).steps[0].sigma
        forecast_from_origin(model, series, 20, 4)  # a cursor under the old floor
        model.train_config = dataclasses.replace(model.train_config, sigma_floor=2.0)
        forecasts = [rollout(model, context, k=3), forecast_from_origin(model, series, 20, 4)]
        np.testing.assert_allclose(forecasts[0].steps[0].sigma, old - 1e-3 + 2.0, rtol=1e-12)
        assert all(np.all(s.sigma >= 2.0) for fc in forecasts for s in fc.steps)
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.train_config == model.train_config
        again = [rollout(loaded, context, k=3), forecast_from_origin(loaded, series, 20, 4)]
        for want, got in zip(forecasts, again):
            for a, b in zip(want.steps, got.steps, strict=True):
                np.testing.assert_array_equal(a.mu, b.mu)
                np.testing.assert_array_equal(a.sigma, b.sigma)

    def test_the_saved_seed_is_the_train_config_seed(self, tmp_path):
        assert "seed" not in inspect.signature(save_checkpoint).parameters
        path = tmp_path / "m.json"
        save_checkpoint(small_model(seed=60), path)
        assert json.loads(path.read_text())["seed"] == 60
        assert load_checkpoint(path)[1]["seed"] == 60

    def test_normalization_and_config_survive(self, tmp_path):
        model, _ = tiny_trained_model(seed=52)
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        loaded, info = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.norm.mean, model.norm.mean)
        np.testing.assert_array_equal(loaded.norm.std, model.norm.std)
        assert loaded.train_config == model.train_config
        assert info["final_loss"] is None

    def test_retrain_same_seed_gives_identical_checkpoint(self, tmp_path):
        m1, h1 = tiny_trained_model(seed=53)
        m2, h2 = tiny_trained_model(seed=53)
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        save_checkpoint(m1, p1, final_loss=h1[-1])
        save_checkpoint(m2, p2, final_loss=h2[-1])
        assert p1.read_bytes() == p2.read_bytes()


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            load_checkpoint(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        model, _ = tiny_trained_model(seed=54)
        path = tmp_path / "v.json"
        save_checkpoint(model, path)
        doc = path.read_text().replace('"format_version": 1',
                                       '"format_version": 99', 1)
        path.write_text(doc)
        with pytest.raises(DataError, match="format_version"):
            load_checkpoint(path)

    def test_truncated_weights(self, tmp_path):
        model, _ = tiny_trained_model(seed=55)
        path = tmp_path / "t.json"
        save_checkpoint(model, path)
        import json
        doc = json.loads(path.read_text())
        doc["weights"]["readout.bias"] = doc["weights"]["readout.bias"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="readout.bias"):
            load_checkpoint(path)


# every key of a checkpoint of a 2-layer model, top level and nested
CHECKPOINT_KEYS = (
    [(k,) for k in ("dims", "seed", "hyperparameters", "normalization",
                    "weights", "final_loss")]
    + [("hyperparameters", k) for k in _HYPER_FIELDS]
    + [("normalization", k) for k in ("mean", "std")]
    + [("weights", f"gru.{i}.{name}") for i in range(2) for name in GATE_KEYS]
    + [("weights", "readout.weight"), ("weights", "readout.bias")]
)


@pytest.fixture(scope="module")
def checkpoint_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.json"
    save_checkpoint(small_model(seed=57), path, final_loss=1.5)
    return path.read_text()


@pytest.mark.parametrize("keys", CHECKPOINT_KEYS, ids=".".join)
def test_missing_key_is_data_error_naming_it(checkpoint_doc, tmp_path, keys):
    doc = json.loads(checkpoint_doc)
    owner = doc
    for key in keys[:-1]:
        owner = owner[key]
    del owner[keys[-1]]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=".".join(keys)):
        load_checkpoint(path)


@pytest.mark.parametrize("corrupt, says", [
    (lambda doc: {**doc, "dims": 0}, "key dims must be >= 1, got 0"),
    (lambda doc: {**doc, "normalization": {**doc["normalization"],
                                          "std": [1.0, float("inf")]}},
     "key normalization.std has non-finite values"),
    (lambda doc: {**doc, "weights": {**doc["weights"],
                                     "readout.bias": [float("nan")] * 4}},
     "key weights.readout.bias has non-finite values"),
], ids=["dims-0", "inf-std", "nan-bias"])
def test_out_of_range_value_is_data_error_naming_it(checkpoint_doc, tmp_path, corrupt,
                                                     says):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(corrupt(json.loads(checkpoint_doc))))
    with pytest.raises(DataError, match=says):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["final_loss", "normalization.mean", "normalization.std",
                                 "weights.gru.0.W_r", "weights.gru.1.b_hn",
                                 "weights.readout.bias"])
def test_save_refuses_non_finite_value_naming_its_key(tmp_path, key, value):
    model, final_loss = small_model(seed=58), 1.5
    arrays = {"normalization.mean": model.norm.mean, "normalization.std": model.norm.std,
              "weights.gru.0.W_r": gate_blocks(model.stack.layers[0])["W_r"],
              "weights.gru.1.b_hn": model.stack.layers[1].b_hn.value,
              "weights.readout.bias": model.readout.bias.value}
    if key == "final_loss":
        final_loss = value
    else:
        arrays[key].flat[-1] = value
    path = tmp_path / "m.json"
    with pytest.raises(DataError, match=f"key {re.escape(key)} "):
        save_checkpoint(model, path, final_loss=final_loss)
    assert not path.exists()


@pytest.mark.parametrize("final_loss", [True, "0.5", [1.5]], ids=["bool", "str", "list"])
def test_save_refuses_a_final_loss_that_is_not_a_number(tmp_path, final_loss):
    # a bool would be written as 1, which load_checkpoint would take as a loss
    path = tmp_path / "m.json"
    with pytest.raises(DataError, match="key final_loss must be a finite number or None"):
        save_checkpoint(small_model(seed=58), path, final_loss=final_loss)
    assert not path.exists()


@pytest.mark.parametrize("fields, key", [
    ({"n_layers": 1}, "weights.readout.bias"), ({"n_layers": 3}, "weights.gru.2.W_z"),
    ({"hidden_size": 5}, "weights.gru.0.W_r")])
def test_save_refuses_weights_not_of_the_config_shapes_naming_the_key(tmp_path, fields,
                                                                       key):
    # a 2-layer stack of width 4 on 2 dims under a config that names
    # other shapes
    model = small_model(hidden=4, layers=2, seed=61)
    model.train_config = dataclasses.replace(model.train_config, **fields)
    path = tmp_path / "m.json"
    with pytest.raises(DataError, match=f"key {re.escape(key)} has shape"):
        save_checkpoint(model, path)
    assert not path.exists()


def test_save_refuses_normalization_of_other_dims_naming_the_key(tmp_path):
    model = small_model(dims=2, seed=62)
    model.norm = NormStats(mean=np.zeros(3), std=np.ones(3))
    path = tmp_path / "m.json"
    with pytest.raises(DataError, match=r"key normalization\.mean has shape \(3,\), "
                                        r"but the model has 2 dims"):
        save_checkpoint(model, path)
    assert not path.exists()


def _write_forecast_data(path, dims=2):
    rows = "\n".join(f"{t}," + ",".join(str(0.1 * t + d) for d in range(dims))
                     for t in range(8))
    path.write_text("t," + ",".join(f"dim_{d}" for d in range(dims)) + "\n" + rows + "\n")


def _forecast_exit_code(model_path, data_path):
    return main(["forecast", "--model", str(model_path), "--data", str(data_path),
                 "--at", "5", "--horizon", "2"])


@pytest.mark.parametrize("corrupt", [
    lambda doc: [doc],
    lambda doc: {**doc, "dims": "abc"},
    lambda doc: {**doc, "weights": {**doc["weights"], "readout.bias": "abc"}},
    lambda doc: {**doc, "hyperparameters": {**doc["hyperparameters"], "hidden_size": 0}},
    lambda doc: {**doc, "normalization": {**doc["normalization"],
                                          "mean": doc["normalization"]["mean"][:1]}},
], ids=["top-level-list", "dims-string", "weight-string", "hidden-size-0",
        "short-mean"])
def test_malformed_value_is_exit_3(checkpoint_doc, tmp_path, corrupt):
    path, data = tmp_path / "m.json", tmp_path / "d.csv"
    path.write_text(json.dumps(corrupt(json.loads(checkpoint_doc))))
    _write_forecast_data(data)
    assert _forecast_exit_code(path, data) == 3


@pytest.mark.parametrize("key, value, says", [
    ("hidden_size", 2.5, "must be an integer, got 2.5"),
    ("window_length", True, "must be an integer, got True"),
    ("dropout", True, "must be a finite number, got True"),
    ("learning_rate", "0.1", "must be a finite number, got '0.1'")])
def test_wrongly_typed_hyperparameter_is_named(checkpoint_doc, tmp_path, key, value,
                                               says):
    doc = json.loads(checkpoint_doc)
    doc["hyperparameters"][key] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(f"key hyperparameters.{key} {says}")):
        load_checkpoint(path)


def _key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


# values of the wrong type for every key (null is a valid final_loss)
WRONG_TYPES = ["abc", [], {}, True, [["x"]], None]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, checkpoint_doc):
    root = tmp_path_factory.mktemp("fuzz")
    _write_forecast_data(root / "d.csv")
    path = root / "ok.json"
    path.write_text(checkpoint_doc)
    assert _forecast_exit_code(path, root / "d.csv") == 0
    return root


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_checkpoint_is_exit_3(checkpoint_doc, fuzz_dir, data):
    doc = json.loads(checkpoint_doc)
    kind = data.draw(st.sampled_from(["delete", "retype", "resize", "truncate"]))
    if kind == "truncate":
        text = checkpoint_doc.rstrip()
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    else:
        keys = data.draw(st.sampled_from(list(_key_paths(doc))))
        owner = doc
        for key in keys[:-1]:
            owner = owner[key]
        if kind == "delete":
            del owner[keys[-1]]
        elif kind == "retype":
            wrong = [v for v in WRONG_TYPES if v is not None or keys != ("final_loss",)]
            owner[keys[-1]] = data.draw(st.sampled_from(wrong))
        else:
            arrays = [k for k in _key_paths(doc) if k[0] in ("weights", "normalization")
                      and len(k) == 2]
            keys = data.draw(st.sampled_from(arrays))
            values = doc[keys[0]][keys[1]]
            doc[keys[0]][keys[1]] = data.draw(st.sampled_from(
                [values[:-1], values + [0.5], [values]]))
        text = json.dumps(doc)
    path = fuzz_dir / "m.json"
    path.write_text(text)
    assert _forecast_exit_code(path, fuzz_dir / "d.csv") == 3
