"""Diagonal-Gaussian belief vectors: squashing, NLL, KL, intervals.

A belief over an N-dimensional observation is a pair of length-N arrays
(mu, sigma). sigma[i] == 0 encodes a certain (observed) value; model
outputs always carry sigma >= floor. The flattened wire layout is
[mu_0..mu_{N-1}, sigma_0..sigma_{N-1}]. The batched inference paths pass
a batch of B beliefs as one unchecked ``DistVector`` of (B, N) arrays
(``DistVector._of_row`` of their rows); ``nll`` and ``kl`` then return
one value per row, each bitwise the value of that row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

LN_2PI = math.log(2.0 * math.pi)

# exact two-sided 95% normal quantile, pinned
Z95 = 1.9599640


@dataclass
class DistVector:
    """Per-dimension (location, scale) pairs; scale 0 means observed."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.mu.shape != self.sigma.shape or self.mu.ndim != 1:
            raise ShapeError(
                f"mu/sigma must be 1-D and equal length, got {self.mu.shape} vs {self.sigma.shape}"
            )
        if not np.isfinite(self.mu).all():
            raise ValueError("mu entries must be finite")
        if not (np.isfinite(self.sigma).all() and (self.sigma >= 0.0).all()):
            raise ValueError("sigma entries must be finite and nonnegative")

    @classmethod
    def _of_row(cls, row: np.ndarray) -> "DistVector":
        """The belief whose ``mu`` and ``sigma`` are views of the two halves
        of a float64 wire-layout row, (2N,), or of rows, (..., 2N), built
        without the checks of ``__post_init__``: only for a row whose
        sigma half is >= 0 (or NaN), such as a model's own readout."""
        n = row.shape[-1] // 2
        belief = cls.__new__(cls)
        belief.mu = row[..., :n]
        belief.sigma = row[..., n:]
        return belief

    @property
    def dims(self) -> int:
        return self.mu.shape[-1]

    def flat(self) -> np.ndarray:
        """Wire layout [mu..., sigma...], length 2N."""
        return np.concatenate([self.mu, self.sigma])

    @classmethod
    def observed(cls, values: np.ndarray) -> "DistVector":
        values = np.asarray(values, dtype=np.float64)
        return cls(mu=values, sigma=np.zeros_like(values))

    @classmethod
    def standard(cls, dims: int) -> "DistVector":
        return cls(mu=np.zeros(dims), sigma=np.ones(dims))


def squash_sigma(raw, floor: float):
    """softplus(raw) + floor; strictly positive and monotone in raw for a
    positive floor (a model's ``TrainConfig.sigma_floor``).

    Accepts scalars or numpy arrays.
    """
    return np.logaddexp(0.0, raw) + floor


def _per_row(total):
    """A float for one belief, an array of per-row values for a batch."""
    return float(total) if total.ndim == 0 else total


def nll(belief: DistVector, x: np.ndarray):
    """Negative log likelihood of x under the belief (sum over dimensions)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != belief.mu.shape:
        raise ShapeError(f"observation shape {x.shape} != belief dims {belief.mu.shape}")
    if np.any(belief.sigma == 0.0):
        raise ValueError("nll scored against a zero-scale belief (an observation)")
    z = (x - belief.mu) / belief.sigma
    return _per_row(np.sum(0.5 * LN_2PI + np.log(belief.sigma) + 0.5 * z * z, axis=-1))


def kl(p: DistVector, q: DistVector):
    """KL(p || q) between diagonal Gaussians (sum over dimensions)."""
    if p.dims != q.dims:
        raise ShapeError(f"kl: dimension mismatch {p.dims} vs {q.dims}")
    if np.any(p.sigma == 0.0) or np.any(q.sigma == 0.0):
        raise ValueError("kl requires strictly positive scales")
    var_ratio = (p.sigma / q.sigma) ** 2
    mean_term = ((p.mu - q.mu) / q.sigma) ** 2
    total = np.sum(np.log(q.sigma / p.sigma) + 0.5 * (var_ratio + mean_term) - 0.5,
                   axis=-1)
    # rounding takes near-equal pairs a few ulps below zero; NaN stays NaN
    return _per_row(np.maximum(total, 0.0))


def interval95(belief: DistVector):
    """Two-sided 95% interval (lower, upper) per dimension."""
    if np.any(belief.sigma <= 0.0):
        raise ValueError("interval95 requires strictly positive scales")
    half = Z95 * belief.sigma
    return belief.mu - half, belief.mu + half
