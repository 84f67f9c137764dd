import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uprop.checkpoint import (_CELL_FIELDS, _HYPER_FIELDS, load_checkpoint,
                              save_checkpoint)
from uprop.cli import main
from uprop.errors import CheckpointNotFoundError, DataError
from uprop.forecaster import DistVector, TrainConfig, rollout, train

from test_forecaster import small_model, toy_windows


def tiny_trained_model(seed=50):
    cfg = TrainConfig(lookahead=2, epochs=2, window_length=40, n_layers=2,
                      hidden_size=6, batch_size=8, seed=seed)
    return train(toy_windows(seed=seed), cfg)


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        model, hist = tiny_trained_model()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(model, p1, seed=50, final_loss=hist[-1])
        loaded, info = load_checkpoint(p1)
        save_checkpoint(loaded, p2, seed=info["seed"], final_loss=info["final_loss"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_reproduces_forecasts_bit_exactly(self, tmp_path):
        model, hist = tiny_trained_model(seed=51)
        path = tmp_path / "m.json"
        save_checkpoint(model, path, seed=51, final_loss=hist[-1])
        loaded, _ = load_checkpoint(path)
        rng = np.random.default_rng(51)
        context = [DistVector.observed(rng.normal(size=2)) for _ in range(10)]
        a = rollout(model, context, k=5)
        b = rollout(loaded, context, k=5)
        for sa, sb in zip(a.steps, b.steps):
            np.testing.assert_array_equal(sa.mu, sb.mu)
            np.testing.assert_array_equal(sa.sigma, sb.sigma)

    def test_normalization_and_config_survive(self, tmp_path):
        model, _ = tiny_trained_model(seed=52)
        path = tmp_path / "m.json"
        save_checkpoint(model, path, seed=52)
        loaded, info = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.norm.mean, model.norm.mean)
        np.testing.assert_array_equal(loaded.norm.std, model.norm.std)
        assert loaded.train_config == model.train_config
        assert info["final_loss"] is None

    def test_retrain_same_seed_gives_identical_checkpoint(self, tmp_path):
        m1, h1 = tiny_trained_model(seed=53)
        m2, h2 = tiny_trained_model(seed=53)
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        save_checkpoint(m1, p1, seed=53, final_loss=h1[-1])
        save_checkpoint(m2, p2, seed=53, final_loss=h2[-1])
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
        save_checkpoint(model, path, seed=54)
        doc = path.read_text().replace('"format_version": 1',
                                       '"format_version": 99', 1)
        path.write_text(doc)
        with pytest.raises(DataError, match="format_version"):
            load_checkpoint(path)

    def test_truncated_weights(self, tmp_path):
        model, _ = tiny_trained_model(seed=55)
        path = tmp_path / "t.json"
        save_checkpoint(model, path, seed=55)
        import json
        doc = json.loads(path.read_text())
        doc["weights"]["readout.bias"] = doc["weights"]["readout.bias"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="readout.bias"):
            load_checkpoint(path)

    def test_untrained_model_without_config_rejected(self, tmp_path):
        model = small_model(seed=56)
        model.train_config = None
        with pytest.raises(ValueError):
            save_checkpoint(model, tmp_path / "x.json", seed=0)


# every key of a checkpoint of a 2-layer model, top level and nested
CHECKPOINT_KEYS = (
    [(k,) for k in ("dims", "seed", "hyperparameters", "normalization",
                    "weights", "final_loss")]
    + [("hyperparameters", k) for k in _HYPER_FIELDS]
    + [("normalization", k) for k in ("mean", "std")]
    + [("weights", f"gru.{i}.{name}") for i in range(2) for name in _CELL_FIELDS]
    + [("weights", "readout.weight"), ("weights", "readout.bias")]
)


@pytest.fixture(scope="module")
def checkpoint_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.json"
    save_checkpoint(small_model(seed=57), path, seed=57, final_loss=1.5)
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
