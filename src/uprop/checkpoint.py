"""Model checkpoints as canonical JSON.

Weights are stored as named flat arrays (row-major) with every float
written with 17 significant digits, so save -> load -> save is
byte-identical and a loaded model reproduces forecasts bit-exactly.
"""

from __future__ import annotations

import json
import math
import typing
from pathlib import Path

import numpy as np

from .data import _KINDS, NormStats, _fmt, _is_a
from .errors import CheckpointNotFoundError, ConfigError, DataError
from .forecaster import TrainConfig, UPropModel, build_model
from .nn import GATE_NAMES, gate_blocks
from .tensor import value_of

FORMAT_VERSION = 1

_HYPER_FIELDS = ("n_layers", "hidden_size", "dropout", "lookahead", "epochs",
                 "learning_rate", "batch_size", "window_length", "sigma_floor")


def _dump(obj) -> str:
    """Canonical JSON: insertion-ordered keys, 17-significant-digit floats.
    ``save_checkpoint`` passes None, dicts, arrays, integers and floats,
    never a bool, which this would write as 1 or 0."""
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, np.ndarray):
        # every weight array: _fmt's text per float, from one %-format
        return ("[" + ", ".join(["%.17g"] * obj.size) + "]") % tuple(obj.tolist())
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return _fmt(obj)


def _weight_shapes(dims: int, config: TrainConfig):
    """(checkpoint key, shape) of every weight array, in file order."""
    h = config.hidden_size
    for i in range(config.n_layers):
        shapes = {"W": (h, 2 * dims if i == 0 else h), "U": (h, h), "b": (h,)}
        for name in GATE_NAMES:
            yield f"gru.{i}.{name}", shapes[name[0]]
    yield "readout.weight", (2 * dims, h)
    yield "readout.bias", (2 * dims,)


def _weight_arrays(model: UPropModel):
    """The model's weight arrays in file order: each layer's per-gate
    blocks (views of its fused weights), then the readout."""
    for cell in model.stack.layers:
        yield from gate_blocks(cell).values()
    yield value_of(model.readout.weight)
    yield value_of(model.readout.bias)


def save_checkpoint(model: UPropModel, path, final_loss: float | None = None) -> None:
    """Write the checkpoint: the model's ``train_config`` (its seed
    included), normalization and weights. A normalization array of
    another length than ``model.dims``, a weight array of another shape
    than the config names, or a non-finite value, any of which
    ``load_checkpoint`` would refuse, is a ``DataError`` that names its
    key; nothing is written."""
    config = model.train_config
    stats = {"mean": model.norm.mean, "std": model.norm.std}
    for key, array in stats.items():
        if array.shape != (model.dims,):
            raise DataError(f"{path}: checkpoint key normalization.{key} has shape "
                            f"{array.shape}, but the model has {model.dims} dims")
    weights = {}
    for (key, shape), array in zip(_weight_shapes(model.dims, config),
                                   _weight_arrays(model), strict=True):
        if array.shape != shape:
            raise DataError(f"{path}: checkpoint key weights.{key} has shape "
                            f"{array.shape}, but the model's config names {shape}")
        weights[key] = array.ravel()
    if final_loss is not None and not _is_a(final_loss, float):
        raise DataError(f"{path}: checkpoint key final_loss must be {_KINDS[float]} "
                        f"or None, got {final_loss!r}")
    for where, arrays in (("normalization.", stats), ("weights.", weights)):
        for key, array in arrays.items():
            if not np.all(np.isfinite(array)):
                raise DataError(f"{path}: checkpoint key {where}{key} has non-finite values")
    doc = {
        "format_version": FORMAT_VERSION,
        "dims": model.dims,
        "hyperparameters": {name: getattr(config, name) for name in _HYPER_FIELDS},
        "normalization": stats,
        "weights": weights,
        "seed": config.seed,
        "final_loss": final_loss,
    }
    Path(path).write_text(_dump(doc) + "\n")


def load_checkpoint(path):
    """Load a checkpoint; returns (model, info dict with seed/final_loss).

    A missing key, or a value of the wrong type, size or range, raises a
    ``DataError`` that names the key.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointNotFoundError(f"checkpoint not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid checkpoint JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: a checkpoint is a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format_version {version!r}")

    def bad(where, key, what):
        return DataError(f"{path}: checkpoint key {where}{key} {what}")

    def require(obj, key, where=""):
        if not isinstance(obj, dict):
            raise DataError(f"{path}: checkpoint key {where[:-1]} must be an object")
        if key not in obj:
            raise DataError(f"{path}: missing checkpoint key {where}{key}")
        return obj[key]

    def number(obj, key, where="", kind=float):
        value = require(obj, key, where)
        if not _is_a(value, kind):
            raise bad(where, key, f"must be {_KINDS[kind]}, got {value!r}")
        return value

    def array(obj, key, where, shape):
        try:
            flat = np.asarray(require(obj, key, where), dtype=np.float64)
        except (TypeError, ValueError):
            raise bad(where, key, "must be a list of numbers") from None
        size = math.prod(shape)
        if flat.ndim != 1 or flat.size != size:
            raise bad(where, key, f"has {flat.size} values, expected {size}")
        if not np.all(np.isfinite(flat)):
            raise bad(where, key, "has non-finite values")
        return flat.reshape(shape)

    dims = number(doc, "dims", kind=int)
    if dims < 1:
        raise bad("", "dims", f"must be >= 1, got {dims}")
    seed = number(doc, "seed", kind=int)
    hypers = require(doc, "hyperparameters")
    kinds = typing.get_type_hints(TrainConfig)
    try:
        config = TrainConfig(seed=seed, **{
            k: number(hypers, k, "hyperparameters.", kinds[k]) for k in _HYPER_FIELDS})
    except ConfigError as exc:
        raise DataError(f"{path}: invalid hyperparameters: {exc}") from None
    stats = require(doc, "normalization")
    norm = NormStats(mean=array(stats, "mean", "normalization.", (dims,)),
                     std=array(stats, "std", "normalization.", (dims,)))
    final_loss = require(doc, "final_loss")
    if final_loss is not None:
        final_loss = number(doc, "final_loss")
    weights = require(doc, "weights")
    values = [array(weights, key, "weights.", shape)
              for key, shape in _weight_shapes(dims, config)]
    # shapes come from the config; every weight is written below, so none
    # is drawn
    model = build_model(dims, config, norm, None)
    for array, value in zip(_weight_arrays(model), values):
        array[...] = value
    model.refresh_frozen()
    info = {"seed": seed, "final_loss": final_loss,
            "format_version": FORMAT_VERSION}
    return model, info
