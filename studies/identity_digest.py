"""Identity digest: one SHA-256 over everything uprop computes.

Hashes the outputs of every inference entry point (``filter_series`` with
and without a prior and with its state, both imputed policies,
``forecast_from_origin``, a backtest sweep of it with a repeated origin,
a step back and in-place edits, ``rollout``, ``mc_rollout``, the three
``score_series`` kinds and ``kl_novelty`` in both directions) for a 1x16
and a 3x12 model on a series with 30% of its cells missing, then
``evaluate_grid``, the bytes of both models' checkpoints, and every file
written by the ``synth``, ``train``, ``forecast``, ``detect`` and
``evaluate`` CLI commands. A change that claims bit-identical outputs
prints the same digest as its parent.

Run from a checkout (a few seconds on one core):

    python3 studies/identity_digest.py              # uprop from ./src
    python3 studies/identity_digest.py --src DIR    # uprop from DIR
    python3 studies/identity_digest.py --expect HEX # exit 1 unless HEX

The last line of standard output is the overall digest; the lines above
it give one digest per entry, in a fixed order. With ``--expect`` a
different overall digest exits 1; when ``studies/identity_digest.txt``
(the recorded output, whose last line is the expected digest) lists HEX,
the message names the first entry that differs from it. A change that
moves the digest on purpose records the new output there:

    python3 studies/identity_digest.py > studies/identity_digest.txt
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).with_suffix(".txt")


def _update(h, obj) -> None:
    """Feed beliefs, records, forecasts, scores, arrays and numbers to ``h``."""
    if isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _update(h, item)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode() + str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):     # beliefs, records, forecasts, scores
        _update(h, [getattr(obj, f.name) for f in dataclasses.fields(obj)])
    elif isinstance(obj, (float, np.floating)):
        h.update(np.float64(obj).tobytes())
    elif isinstance(obj, (bool, int, str, np.integer)):
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _update(h, obj)
    return h.hexdigest()


def entries():
    """(name, sha256 hex) of every output, in a fixed order."""
    from uprop import (ImputePolicy, TrainConfig, emulate_missing,
                       evaluate_grid, filter_series, filter_series_imputed,
                       forecast_from_origin, kl_novelty, mc_rollout,
                       normalize, rollout, save_checkpoint, score_series,
                       split, synth_cloud, train, window)
    from uprop.cli import main
    from uprop.prob import DistVector

    series = synth_cloud(nodes=4, steps=480, seed=7)
    ds = split([w for s in series for w in window(s, 60)], seed=7)
    probe = emulate_missing(series[3], 0.3, seed=11)
    models = {}
    for name, layers, hidden in (("1x16", 1, 16), ("3x12", 3, 12)):
        config = TrainConfig(lookahead=4, epochs=2, window_length=60,
                             n_layers=layers, hidden_size=hidden, dropout=0.2,
                             seed=5, learning_rate=0.003, batch_size=8)
        models[name] = train(ds.train, config)[0]

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, model in models.items():
            x = normalize(probe, model.norm)
            prior = DistVector(mu=np.full(model.dims, 0.5),
                               sigma=np.full(model.dims, 2.0))
            context = [r.input for r in filter_series(model, x)[:40]]
            steps, h, pending = filter_series(model, x, return_state=True)
            out += [
                (f"{name}.filter_series", steps),
                (f"{name}.filter_series.prior", filter_series(model, x, prior)),
                (f"{name}.filter_series.state", (h, pending)),
                (f"{name}.filter_series_imputed.mean", filter_series_imputed(
                    model, x, ImputePolicy("mean", seed=3))),
                (f"{name}.filter_series_imputed.sample", filter_series_imputed(
                    model, x, ImputePolicy("sample", seed=3))),
                (f"{name}.forecast_from_origin",
                 [forecast_from_origin(model, x, o, 12) for o in (0, 57, 238)]),
                (f"{name}.forecast_from_origin.sweep",
                 _sweep(model, x)),
                (f"{name}.rollout", rollout(model, context, 16)),
                (f"{name}.mc_rollout", mc_rollout(model, context, 8, 20, seed=9)),
            ]
            for kind in ("volatility", "surprise", "kl"):
                out.append((f"{name}.score_series.{kind}",
                            score_series(model, x, kind, 2, 6)))
            out.append((f"{name}.kl_novelty", [
                kl_novelty(model, x, t, 2, 6, reverse=r)
                for t in (6, 100, 239) for r in (False, True)]))
            path = tmp / f"{name}.json"
            save_checkpoint(model, path, seed=5, final_loss=0.25)
            out.append((f"{name}.checkpoint", path.read_bytes()))
        grid = evaluate_grid({2: models["1x16"], 4: models["3x12"]}, ds.test,
                             rates=[0.0, 0.3], seed=4)
        out.append(("evaluate_grid", grid.cells))
        out += _cli_files(main, tmp)
    return [(name, hashlib.sha256(obj).hexdigest() if isinstance(obj, bytes)
             else digest(obj)) for name, obj in out]


def _sweep(model, series):
    """A backtest on a copy of ``series``: forecasts from every 5th row,
    then a repeated origin, a step back, and two origins after a consumed
    missing cell is filled and a consumed observed cell is masked, in
    place."""
    from uprop import TimeSeries, forecast_from_origin

    s = TimeSeries(values=series.values.copy(), mask=series.mask.copy(),
                   t0=series.t0)
    origins = list(range(4, 240, 5)) + [234, 234, 117]
    out = [forecast_from_origin(model, s, o, 6) for o in origins]
    s.values[50, 0], s.mask[50, 0] = 0.25, True
    s.mask[60, 1] = False
    out += [forecast_from_origin(model, s, o, 6) for o in (117, 239)]
    return out


def _cli_files(main, tmp: Path):
    """Run every CLI command once; (name, bytes) of each file written."""
    data, calib, models = tmp / "data", tmp / "calib", tmp / "models"
    models.mkdir()
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "dims": 3, "layers": 2, "hidden": 8, "dropout": 0.2, "lookahead": 4,
        "epochs": 2, "lr": 0.003, "batch_size": 8, "window": 60, "seed": 3,
        "missing_rates": [0.0, 0.2], "lookaheads": [4]}))
    ckpt = models / "lookahead_4.json"
    commands = [
        ["synth", "--out", str(data), "--nodes", "3", "--steps", "480", "--seed", "2"],
        ["synth", "--out", str(calib), "--nodes", "1", "--steps", "300", "--seed", "8"],
        ["train", "--data", str(data), "--config", str(config),
         "--model-out", str(ckpt)],
        ["forecast", "--model", str(ckpt), "--data", str(data / "node_001.csv"),
         "--at", "300", "--horizon", "8", "--out", str(tmp / "forecast.csv")],
        ["forecast", "--model", str(ckpt), "--data", str(data / "node_002.csv"),
         "--at", "479", "--horizon", "5", "--format", "json",
         "--out", str(tmp / "forecast.json")],
        ["evaluate", "--models-dir", str(models), "--data", str(data),
         "--config", str(config), "--out-dir", str(tmp / "eval")],
    ]
    for method in ("kl", "surprise", "volatility"):
        commands.append(["detect", "--model", str(ckpt),
                         "--data", str(data / "node_000.csv"),
                         "--calibrate-on", str(calib / "node_000.csv"),
                         "--method", method, "--near", "2", "--far", "6",
                         "--out", str(tmp / f"detect_{method}.csv")])
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"uprop {' '.join(argv)} exited {code}")
    files = [data, calib, models, tmp / "eval"]
    paths = sorted(p for d in files for p in d.iterdir())
    paths += sorted(tmp.glob("forecast.*")) + sorted(tmp.glob("detect_*.csv"))
    return [(f"cli.{p.relative_to(tmp)}", p.read_bytes()) for p in paths]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the uprop package to digest")
    parser.add_argument("--expect", metavar="HEX",
                        help="exit 1 unless the overall digest is HEX")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    total = hashlib.sha256()
    lines = []
    for name, hexdigest in entries():
        lines.append(f"{name} {hexdigest}")
        print(lines[-1])
        total.update(f"{lines[-1]}\n".encode())
    print(total.hexdigest())
    if args.expect is not None and total.hexdigest() != args.expect:
        sys.exit(f"digest {total.hexdigest()} != expected {args.expect}: "
                 + _first_difference(lines, args.expect))


def _first_difference(lines: list, expect: str) -> str:
    """Name the first entry that differs from the recorded output of
    ``expect``, or say why no entry can be named."""
    recorded = RECORDED.read_text().split("\n") if RECORDED.exists() else []
    if not recorded or recorded[-2:] != [expect, ""]:
        return f"{RECORDED.name} does not record {expect}, so no entry is named"
    want = dict(line.split(" ", 1) for line in recorded[:-2])
    for line in lines:
        name, hexdigest = line.split(" ", 1)
        if want.get(name) != hexdigest:
            return f"first entry that differs: {name}"
    return f"the entries of {RECORDED.name} differ in number or order"


if __name__ == "__main__":
    main()
