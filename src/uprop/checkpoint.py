"""Model checkpoints as canonical JSON.

Weights are stored as named flat arrays (row-major) with every float
written with 17 significant digits, so save -> load -> save is
byte-identical and a loaded model reproduces forecasts bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .data import NormStats, _fmt
from .errors import CheckpointNotFoundError, DataError
from .forecaster import TrainConfig, UPropModel, build_model
from .tensor import value_of

FORMAT_VERSION = 1

_CELL_FIELDS = ("W_r", "W_z", "W_n", "U_r", "U_z", "U_n",
                "b_r", "b_z", "b_in", "b_hn")

_HYPER_FIELDS = ("n_layers", "hidden_size", "dropout", "lookahead", "epochs",
                 "learning_rate", "batch_size", "window_length", "sigma_floor")


def _dump(obj) -> str:
    """Canonical JSON: insertion-ordered keys, 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_dump(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    return json.dumps(obj)


def _named_weights(model: UPropModel):
    """(checkpoint key, parameter) for every weight array, in file order."""
    for i, cell in enumerate(model.stack.layers):
        for name in _CELL_FIELDS:
            yield f"gru.{i}.{name}", getattr(cell, name)
    yield "readout.weight", model.readout.weight
    yield "readout.bias", model.readout.bias


def save_checkpoint(model: UPropModel, path, seed: int,
                    final_loss: float | None = None) -> None:
    config = model.train_config
    if config is None:
        raise ValueError("model has no training configuration to checkpoint")
    weights = {key: value_of(param).ravel() for key, param in _named_weights(model)}
    doc = {
        "format_version": FORMAT_VERSION,
        "dims": model.dims,
        "hyperparameters": {name: getattr(config, name) for name in _HYPER_FIELDS},
        "normalization": {"mean": model.norm.mean, "std": model.norm.std},
        "weights": weights,
        "seed": int(seed),
        "final_loss": final_loss,
    }
    Path(path).write_text(_dump(doc) + "\n")


def load_checkpoint(path):
    """Load a checkpoint; returns (model, info dict with seed/final_loss)."""
    path = Path(path)
    if not path.exists():
        raise CheckpointNotFoundError(f"checkpoint not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid checkpoint JSON: {exc}") from None
    if doc.get("format_version") != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format_version {doc.get('format_version')!r}")

    def require(obj, key, where=""):
        if not isinstance(obj, dict) or key not in obj:
            raise DataError(f"{path}: missing checkpoint key {where}{key}")
        return obj[key]

    dims = int(require(doc, "dims"))
    seed = int(require(doc, "seed"))
    hypers = require(doc, "hyperparameters")
    config = TrainConfig(seed=seed, **{k: require(hypers, k, "hyperparameters.")
                                       for k in _HYPER_FIELDS})
    stats = require(doc, "normalization")
    norm = NormStats(mean=np.array(require(stats, "mean", "normalization.")),
                     std=np.array(require(stats, "std", "normalization.")))
    final_loss = require(doc, "final_loss")
    weights = require(doc, "weights")
    # shapes come from the config; weight values are overwritten below
    model = build_model(dims, config, norm, np.random.default_rng(0))
    for key, param in _named_weights(model):
        target = param.value
        flat = np.asarray(require(weights, key, "weights."), dtype=np.float64)
        if flat.size != target.size:
            raise DataError(f"{path}: weight {key} has {flat.size} values, "
                            f"expected {target.size}")
        target[...] = flat.reshape(target.shape)
    model.refresh_frozen()
    info = {"seed": seed, "final_loss": final_loss,
            "format_version": FORMAT_VERSION}
    return model, info
