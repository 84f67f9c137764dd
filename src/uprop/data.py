"""Series ingestion, normalization, windowing, missingness, synthesis.

CSV format: header ``t,dim_0,...,dim_{N-1}``; t strictly increasing
consecutive integers; an empty field marks a missing cell, and every
other field must be a finite number. When a series with missing cells is
saved, a 0/1 observation-mask sidecar ``<name>.mask.csv`` of the same
shape is written next to it.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

STD_FLOOR = 1e-6


@dataclass
class TimeSeries:
    """T x N real matrix with a per-cell observation mask.

    ``values`` holds NaN in unobserved cells; ``mask`` is True where
    observed, and an observed value that is not finite is a
    ``DataError``. Steps are equispaced; ``t0`` is the integer index of
    row 0.
    """

    values: np.ndarray
    mask: np.ndarray
    t0: int = 0

    def __post_init__(self):
        if not _is_a(self.t0, int):
            raise DataError(f"t0 must be an integer, got {self.t0!r}")
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.shape != self.mask.shape or self.values.ndim != 2:
            raise DataError(
                f"values/mask must be 2-D and equal shape, got {self.values.shape} vs {self.mask.shape}"
            )
        _refuse_non_finite(self)

    @property
    def steps(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    @classmethod
    def complete(cls, values: np.ndarray, t0: int = 0) -> "TimeSeries":
        values = np.asarray(values, dtype=np.float64)
        return cls(values=values, mask=np.ones_like(values, dtype=bool), t0=t0)


@dataclass
class NormStats:
    """Per-dimension mean and population std (floored), from the train split."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise DataError("NormStats mean/std must be 1-D and equal length")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise DataError("NormStats mean/std entries must be finite")
        if np.any(self.std < STD_FLOOR):
            raise DataError(f"NormStats std entries must be >= {STD_FLOOR}")

    @classmethod
    def from_windows(cls, windows) -> "NormStats":
        if not windows:
            raise DataError("no windows to take normalization stats from")
        dims = windows[0].dims
        mean = np.empty(dims)
        std = np.empty(dims)
        for d in range(dims):
            cells = np.concatenate([w.values[w.mask[:, d], d] for w in windows])
            if cells.size == 0:
                raise DataError(f"dimension {d} has no observed cells")
            mean[d] = cells.mean()
            std[d] = max(cells.std(), STD_FLOOR)  # population std
        return cls(mean=mean, std=std)


@dataclass
class DatasetSplit:
    train: list
    val: list
    test: list


def load_csv(path) -> TimeSeries:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        n = len(header) - 1
        if n < 1 or header[0] != "t" or header[1:] != [f"dim_{d}" for d in range(n)]:
            raise DataError(f"{path}: bad header {header!r}, expected t,dim_0,...")
        rows, mask_rows, t_prev = [], [], None
        t0 = 0
        for i, row in enumerate(reader, start=1):
            if len(row) != n + 1:
                raise DataError(f"{path}: row {i} has {len(row)} fields, expected {n + 1}")
            try:
                t = int(row[0])
            except ValueError:
                raise DataError(f"{path}: row {i} has non-integer t {row[0]!r}") from None
            if t_prev is None:
                t0 = t
            elif t != t_prev + 1:
                raise DataError(f"{path}: row {i} breaks consecutive t ({t_prev} -> {t})")
            t_prev = t
            vals, obs = [], []
            for d, cell in enumerate(row[1:]):
                if cell == "":
                    vals.append(np.nan)
                    obs.append(False)
                else:
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {i} column dim_{d} is not numeric: {cell!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise DataError(
                            f"{path}: row {i} column dim_{d} is not finite: {cell!r} "
                            f"(leave the cell empty to mark it missing)")
                    vals.append(value)
                    obs.append(True)
            rows.append(vals)
            mask_rows.append(obs)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return TimeSeries(values=np.array(rows), mask=np.array(mask_rows), t0=t0)


def _fmt(x: float) -> str:
    """17 significant digits: every float64 round-trips through text."""
    return format(float(x), ".17g")


# what a JSON value of each field type must be
_KINDS = {int: "an integer", float: "a finite number", str: "a string"}


def _is_a(value, kind) -> bool:
    """JSON type check: a bool is no number, an integer (numpy's too) is
    an int or a float, and a float field also takes any finite float."""
    if isinstance(value, bool):
        return False
    if isinstance(value, numbers.Integral):
        return kind is int or kind is float
    if kind is float:
        return isinstance(value, float) and math.isfinite(value)
    return isinstance(value, kind)


def _check_seed(seed, owner: str) -> None:
    """The one seed rule: an integer >= 0, as numpy's generators take."""
    if not (_is_a(seed, int) and seed >= 0):
        raise DataError(f"{owner} needs an integer seed >= 0, got {seed!r}")


def _refuse_non_finite(series: TimeSeries, where: str = "") -> None:
    """``DataError`` naming the first observed cell that is not finite."""
    bad = series.mask & ~np.isfinite(series.values)
    if bad.any():
        i, d = np.argwhere(bad)[0]
        raise DataError(
            f"{where}row t={series.t0 + i}, column dim_{d}: observed value "
            f"{float(series.values[i, d])!r} is not finite (mark the cell missing instead)")


def save_csv(series: TimeSeries, path) -> None:
    """Write the series; adds a <name>.mask.csv sidecar if cells are missing.
    An observed cell that is not finite (written into ``values`` after the
    series was made) is a ``DataError``; nothing is written."""
    path = Path(path)
    _refuse_non_finite(series, f"{path}: ")
    header = ["t"] + [f"dim_{d}" for d in range(series.dims)]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(series.steps):
            row = [str(series.t0 + i)]
            for d in range(series.dims):
                row.append(_fmt(series.values[i, d]) if series.mask[i, d] else "")
            writer.writerow(row)
    if not series.mask.all():
        sidecar = (path.with_name(path.stem + ".mask.csv") if path.suffix == ".csv"
                   else Path(str(path) + ".mask.csv"))
        save_mask_csv(series, sidecar)


def save_mask_csv(series: TimeSeries, path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"dim_{d}" for d in range(series.dims)])
        for i in range(series.steps):
            writer.writerow([str(series.t0 + i)] + [str(int(m)) for m in series.mask[i]])


def normalize(series: TimeSeries, stats: NormStats) -> TimeSeries:
    """(values - mean) / std per dimension; missing cells stay NaN.

    Raises ``DataError`` naming the first observed cell whose normalized
    value is not finite (e.g. a huge value over a tiny std overflows).
    """
    if stats.mean.shape[0] != series.dims:
        raise DataError(f"stats dims {stats.mean.shape[0]} != series dims {series.dims}")
    with np.errstate(over="ignore"):
        values = (series.values - stats.mean) / stats.std
    bad = series.mask & ~np.isfinite(values)
    if bad.any():
        i, d = np.argwhere(bad)[0]
        raise DataError(
            f"row t={series.t0 + i}, column dim_{d}: observed value "
            f"{float(series.values[i, d])!r} is not finite once normalized "
            f"(mean {float(stats.mean[d])!r}, std {float(stats.std[d])!r})")
    values[~series.mask] = np.nan
    return TimeSeries(values=values, mask=series.mask.copy(), t0=series.t0)


def denormalize(series: TimeSeries, stats: NormStats) -> TimeSeries:
    if stats.mean.shape[0] != series.dims:
        raise DataError(f"stats dims {stats.mean.shape[0]} != series dims {series.dims}")
    values = series.values * stats.std + stats.mean
    values[~series.mask] = np.nan
    return TimeSeries(values=values, mask=series.mask.copy(), t0=series.t0)


def _check_missing_rate(rate: float) -> None:
    if not 0.0 <= rate < 1.0:
        raise DataError(f"missing rate must be in [0, 1), got {rate}")


def emulate_missing(series: TimeSeries, rate: float, seed: int) -> TimeSeries:
    """Mask each cell independently with probability ``rate``.

    The input must be fully observed; keep it around as ground truth.
    """
    _check_missing_rate(rate)
    _check_seed(seed, "emulate_missing")
    if not series.mask.all():
        raise DataError("emulate_missing expects a fully observed series")
    rng = np.random.default_rng(seed)
    drop = rng.random(series.values.shape) < rate
    values = series.values.copy()
    values[drop] = np.nan
    return TimeSeries(values=values, mask=~drop, t0=series.t0)


def window(series: TimeSeries, length: int, stride: int | None = None) -> list:
    """Contiguous windows of ``length`` rows at ``stride`` (default: disjoint)."""
    stride = stride if stride is not None else length
    if not (_is_a(length, int) and _is_a(stride, int)):
        raise DataError(f"window length and stride must be integers, "
                        f"got {length!r}, {stride!r}")
    if length < 1 or stride < 1:
        raise DataError(f"window length and stride must be >= 1, got {length}, {stride}")
    if length > series.steps:
        raise DataError(f"window length {length} exceeds series length {series.steps}")
    out = []
    for start in range(0, series.steps - length + 1, stride):
        out.append(TimeSeries(
            values=series.values[start:start + length].copy(),
            mask=series.mask[start:start + length].copy(),
            t0=series.t0 + start,
        ))
    return out


def split(windows: list, fractions=(0.8, 0.1, 0.1), seed: int = 0) -> DatasetSplit:
    """Shuffle windows with the seed, then partition by fractions."""
    if (len(fractions) != 3 or any(f < 0 for f in fractions)
            or not math.isclose(sum(fractions), 1.0, abs_tol=1e-9)):
        raise DataError(f"fractions must be 3 values >= 0 summing to 1, got {fractions}")
    _check_seed(seed, "split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(windows))
    n_train = int(len(windows) * fractions[0])
    n_val = int(len(windows) * fractions[1])
    shuffled = [windows[i] for i in order]
    return DatasetSplit(
        train=shuffled[:n_train],
        val=shuffled[n_train:n_train + n_val],
        test=shuffled[n_train + n_val:],
    )


def synth_cloud(nodes: int, steps: int, seed: int, dims: int = 3,
                period: int = 240) -> list:
    """Synthetic node-monitoring series: traffic channels plus a CPU channel.

    Per node, with a shared AR(1) load factor l and per-channel AR(1)
    idiosyncratic terms u (eps ~ N(0,1) throughout). The AR coefficients
    sit close to 1, so the series are near-random-walk: most of the
    step-to-step change is unpredictable innovation rather than
    deterministic seasonality.

        l_t = 0.99 l_{t-1} + 0.07 eps
        u_t = 0.98 u_{t-1} + 0.04 eps
        s_t = sin(2 pi t / period + phase)

    traffic channel c (c = 0 .. dims-2), heavy-tailed via the exponential:

        x^c_t = exp(b_c + 0.15 s_t + a_c l_t + u^c_t)

    CPU channel (last), bounded in [0, 1]:

        cpu_t = clip(0.45 + 0.1 s_t + 0.20 l_t + 0.08 u_t, 0, 1)
    """
    for name, value in (("nodes", nodes), ("steps", steps), ("dims", dims),
                        ("period", period)):
        if not _is_a(value, int):
            raise DataError(f"synth_cloud needs an integer {name}, got {value!r}")
    _check_seed(seed, "synth_cloud")
    if steps < 240:
        raise DataError(f"synth_cloud needs steps >= 240, got {steps}")
    if dims < 2:
        raise DataError("synth_cloud needs at least one traffic channel and a CPU channel")
    if nodes < 1:
        raise DataError(f"synth_cloud needs nodes >= 1, got {nodes}")
    if period < 1:
        raise DataError(f"synth_cloud needs period >= 1, got {period}")
    children = np.random.SeedSequence(seed).spawn(nodes)
    series = []
    t = np.arange(steps)
    for child in children:
        rng = np.random.default_rng(child)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        load = _ar1(steps, 0.99, 0.07, rng)
        season = np.sin(2.0 * np.pi * t / period + phase)
        cols = []
        for c in range(dims - 1):
            u = _ar1(steps, 0.98, 0.04, rng)
            base = rng.uniform(2.5, 3.5)
            coupling = rng.uniform(0.5, 0.9)
            cols.append(np.exp(base + 0.15 * season + coupling * load + u))
        u = _ar1(steps, 0.98, 0.04, rng)
        cols.append(np.clip(0.45 + 0.1 * season + 0.20 * load + 0.08 * u, 0.0, 1.0))
        series.append(TimeSeries.complete(np.column_stack(cols)))
    return series


def synth_random_walk(steps: int, seed: int, dims: int = 1,
                      step_sigma: float = 1.0) -> TimeSeries:
    """Gaussian random walk, one independent walk per dimension."""
    if not (_is_a(step_sigma, float) and step_sigma >= 0.0):
        raise DataError(f"synth_random_walk needs a finite step_sigma >= 0, "
                        f"got {step_sigma!r}")
    for name, value in (("steps", steps), ("dims", dims)):
        if not _is_a(value, int):
            raise DataError(f"synth_random_walk needs an integer {name}, got {value!r}")
        if value < 1:
            raise DataError(f"synth_random_walk needs {name} >= 1, got {value}")
    _check_seed(seed, "synth_random_walk")
    rng = np.random.default_rng(seed)
    increments = rng.normal(0.0, step_sigma, size=(steps, dims))
    return TimeSeries.complete(np.cumsum(increments, axis=0))


def _ar1(steps: int, phi: float, noise: float, rng: np.random.Generator) -> np.ndarray:
    eps = rng.normal(0.0, 1.0, size=steps)
    out = np.empty(steps)
    out[0] = eps[0] * noise / math.sqrt(1.0 - phi * phi)
    for i in range(1, steps):
        out[i] = phi * out[i - 1] + noise * eps[i]
    return out
