"""Command-line surface: synthesize data, train, forecast, evaluate,
detect novelties.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 missing
checkpoint.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (_KINDS, DatasetSplit, _fmt, _is_a, load_csv, normalize,
                   save_csv, split, synth_cloud, window)
from .errors import CheckpointNotFoundError, ConfigError, DataError
from .evaluate import METHODS, evaluate_grid
from .forecaster import TrainConfig, train
from .novelty import calibrate_threshold, forecast_from_origin, score_series
from .prob import interval95

@dataclass
class RunConfig:
    """Validated JSON run configuration; unknown keys are rejected."""

    dims: int = 3
    layers: int = 3
    hidden: int = 64
    dropout: float = 0.2
    lookahead: int = 8
    epochs: int = 20
    lr: float = 0.001
    batch_size: int = 32
    window: int = 120
    sigma_floor: float = 1e-3
    seed: int = 0
    missing_rates: list[float] = field(default_factory=lambda: [0.05, 0.1, 0.2, 0.5])
    lookaheads: list[int] = field(default_factory=lambda: [2, 4, 8, 16])
    methods: list[str] = field(default_factory=lambda: list(METHODS))

    def __post_init__(self):
        if self.dims < 1:
            raise ConfigError(f"dims must be >= 1, got {self.dims}")
        # TrainConfig validates every training field
        self.train_config()
        for k in self.lookaheads:
            self.train_config(k)
        for rate in self.missing_rates:
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"missing rate must be in [0, 1), got {rate}")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object, "
                              f"got {type(doc).__name__}")
        hints = typing.get_type_hints(cls)
        unknown = set(doc) - set(hints)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        for key, value in doc.items():
            kind = hints[key]
            if typing.get_origin(kind) is list:
                (item,) = typing.get_args(kind)
                ok = isinstance(value, list) and all(_is_a(v, item) for v in value)
                want = f"a list, each entry {_KINDS[item]}"
            else:
                ok, want = _is_a(value, kind), _KINDS[kind]
            if not ok:
                raise ConfigError(f"{path}: {key} must be {want}, got {value!r}")
        return cls(**doc)

    def train_config(self, lookahead: int | None = None) -> TrainConfig:
        return TrainConfig(
            lookahead=lookahead if lookahead is not None else self.lookahead,
            epochs=self.epochs, learning_rate=self.lr,
            batch_size=self.batch_size, window_length=self.window,
            seed=self.seed, n_layers=self.layers, hidden_size=self.hidden,
            dropout=self.dropout, sigma_floor=self.sigma_floor)


def _load_series(path, dims: int | None = None) -> list:
    """A single CSV, or every non-sidecar CSV in a directory (sorted); when
    ``dims`` is given, each must have that many value columns."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"data path not found: {path}")
    files = [path]
    if path.is_dir():
        files = sorted(p for p in path.glob("*.csv") if not p.name.endswith(".mask.csv"))
        if not files:
            raise DataError(f"no CSV files in {path}")
    series = []
    for file in files:
        s = load_csv(file)
        if dims is not None and s.dims != dims:
            raise DataError(f"{file}: {s.dims} value columns, but the config's "
                            f"dims is {dims}")
        series.append(s)
    return series


def _dataset(config: RunConfig, data_path) -> DatasetSplit:
    windows = []
    for series in _load_series(data_path, config.dims):
        windows.extend(window(series, config.window))
    return split(windows, (0.8, 0.1, 0.1), seed=config.seed,
                 window_length=config.window)


def _write_table(dest, columns, rows, fmt="csv") -> None:
    """Write ``rows`` (sequences in ``columns`` order) to the file ``dest``,
    or to stdout when it is None or empty: CSV under a header line, or a
    JSON list of objects. Floats take 17 significant digits, a bool is
    0/1 in CSV and true/false in JSON, and ints and strings are written
    as they are."""
    def cell(v):
        if isinstance(v, bool):
            return v if fmt == "json" else int(v)
        if isinstance(v, (int, str)):
            return v
        return float(_fmt(v)) if fmt == "json" else _fmt(v)

    table = [[cell(v) for v in row] for row in rows]
    if fmt == "json":
        text = json.dumps([dict(zip(columns, row)) for row in table], indent=2) + "\n"
    else:
        text = "".join(",".join(map(str, row)) + "\n" for row in [columns, *table])
    if dest:
        Path(dest).write_text(text)
    else:
        sys.stdout.write(text)


def _check_outputs(*paths) -> None:
    """Refuse, before any work is done, an output file whose directory
    does not exist."""
    for path in paths:
        if path and not Path(path).parent.is_dir():
            raise ConfigError(f"output directory does not exist: {Path(path).parent}")


def cmd_synth(args) -> int:
    out = Path(args.out)
    series = synth_cloud(nodes=args.nodes, steps=args.steps, seed=args.seed,
                         dims=args.dims, period=args.period)
    out.mkdir(parents=True, exist_ok=True)
    for i, s in enumerate(series):
        save_csv(s, out / f"node_{i:03d}.csv")
    print(f"wrote {len(series)} series to {out}")
    return 0


def cmd_train(args) -> int:
    _check_outputs(args.model_out, args.loss_out)
    config = RunConfig.load(args.config)
    dataset = _dataset(config, args.data)
    for w in dataset.train:
        if not w.mask.all():
            raise DataError("training data contains missing values; "
                            "train on complete data only")
    model, history = train(dataset.train, config.train_config(args.lookahead))
    save_checkpoint(model, args.model_out, seed=config.seed,
                    final_loss=history[-1])
    loss_path = args.loss_out or Path(args.model_out).with_suffix(".loss.csv")
    _write_table(loss_path, ["epoch", "loss"], enumerate(history, start=1))
    print(f"checkpoint: {args.model_out}  final loss: {_fmt(history[-1])}")
    return 0


def cmd_forecast(args) -> int:
    _check_outputs(args.out)
    model, _ = load_checkpoint(args.model)
    series = _load_series(args.data)[0]
    idx = args.at - series.t0
    if not 0 <= idx < series.steps:
        raise DataError(f"--at {args.at} outside series range "
                        f"[{series.t0}, {series.t0 + series.steps - 1}]")
    normed = normalize(series, model.norm)
    fc = forecast_from_origin(model, normed, idx, args.horizon)
    fc = fc.denormalized(model.norm)
    rows = []
    for j, belief in enumerate(fc.steps):
        lower, upper = interval95(belief)
        for d in range(model.dims):
            rows.append((args.at + 1 + j, d, belief.mu[d], belief.sigma[d],
                         lower[d], upper[d]))
    _write_table(args.out, ["step", "dim", "mu", "sigma", "lower95", "upper95"],
                 rows, args.format)
    return 0


def cmd_evaluate(args) -> int:
    config = RunConfig.load(args.config)
    models = {}
    for k in config.lookaheads:
        path = Path(args.models_dir) / f"lookahead_{k}.json"
        model, _ = load_checkpoint(path)
        models[k] = model
    dataset = _dataset(config, args.data)
    grid = evaluate_grid(models, dataset.test, rates=config.missing_rates,
                         methods=config.methods, seed=config.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_table(name, table):
        _write_table(out_dir / f"{name}.csv", ["missing", *map(str, grid.lookaheads)],
                     [[rate, *row] for rate, row in zip(grid.rates, table)])

    for mi, method in enumerate(grid.methods):
        write_table(f"grid_{method}", grid.cells[:, :, mi])
        if method != "uprop":
            write_table(f"diff_{method}", grid.difference(method))
    print(f"wrote evaluation grid to {out_dir}")
    return 0


def cmd_detect(args) -> int:
    _check_outputs(args.out)
    model, _ = load_checkpoint(args.model)
    calib = normalize(_load_series(args.calibrate_on)[0], model.norm)
    target = normalize(_load_series(args.data)[0], model.norm)
    calib_scores = score_series(model, calib, args.method,
                                near_offset=args.near, far_offset=args.far)
    threshold = calibrate_threshold(calib_scores, args.quantile)
    scores = score_series(model, target, args.method, near_offset=args.near,
                          far_offset=args.far, threshold=threshold)
    _write_table(args.out, ["t", "kind", "value", "flagged"],
                 [(s.t, s.kind, s.value, s.flagged) for s in scores], args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uprop",
        description="Probabilistic multivariate time-series forecasting with "
                    "deterministic uncertainty propagation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic monitoring series")
    p.add_argument("--out", required=True)
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, default=3)
    p.add_argument("--period", type=int, default=240)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--loss-out")
    p.add_argument("--lookahead", type=int, help="override the config lookahead")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="multi-step forecast with 95%% intervals")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--at", type=int, required=True)
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="run the missing-rate x lookahead grid")
    p.add_argument("--models-dir", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("detect", help="novelty scores with a calibrated threshold")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("kl", "surprise", "volatility"),
                   default="kl")
    p.add_argument("--quantile", type=float, default=0.99)
    p.add_argument("--calibrate-on", required=True)
    p.add_argument("--near", type=int, default=1)
    p.add_argument("--far", type=int, default=8)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_detect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckpointNotFoundError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
