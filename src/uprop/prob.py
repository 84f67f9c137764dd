"""Diagonal-Gaussian belief vectors: squashing, NLL, KL, intervals.

A belief over an N-dimensional observation is a pair of length-N arrays
(mu, sigma). sigma[i] == 0 encodes a certain (observed) value; model
outputs always carry sigma >= floor. The flattened wire layout is
[mu_0..mu_{N-1}, sigma_0..sigma_{N-1}]. The batched inference paths pass
a batch of B beliefs as one unchecked ``DistVector`` of (B, N) arrays;
``nll`` and ``kl`` then return one value per row, each bitwise the value
of that row alone.
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
class SigmaSquash:
    """Softplus-plus-floor map from raw readout values to valid scales."""

    floor: float = 1e-3

    def __post_init__(self):
        if not self.floor > 0.0:
            raise ValueError(f"sigma floor must be positive, got {self.floor}")


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
        if (self.sigma < 0.0).any():
            raise ValueError("sigma entries must be nonnegative")

    @classmethod
    def _unchecked(cls, mu: np.ndarray, sigma: np.ndarray) -> "DistVector":
        """A belief built without the checks of ``__post_init__``; only for
        float64 ``mu``/``sigma`` of equal shape, (N,) or a batch (B, N),
        with ``sigma >= 0`` (or NaN), such as a model's own readout."""
        belief = cls.__new__(cls)
        belief.mu = mu
        belief.sigma = sigma
        return belief

    @property
    def dims(self) -> int:
        return self.mu.shape[-1]

    def flat(self) -> np.ndarray:
        """Wire layout [mu..., sigma...], length 2N."""
        return np.concatenate([self.mu, self.sigma])

    @classmethod
    def from_flat(cls, flat: np.ndarray) -> "DistVector":
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim != 1 or flat.shape[0] % 2 != 0:
            raise ShapeError(f"flat belief must have even length, got {flat.shape}")
        n = flat.shape[0] // 2
        return cls(mu=flat[:n], sigma=flat[n:])

    @classmethod
    def observed(cls, values: np.ndarray) -> "DistVector":
        values = np.asarray(values, dtype=np.float64)
        return cls(mu=values, sigma=np.zeros_like(values))

    @classmethod
    def standard(cls, dims: int) -> "DistVector":
        return cls(mu=np.zeros(dims), sigma=np.ones(dims))


def squash_sigma(raw, squash: SigmaSquash):
    """softplus(raw) + floor; strictly positive and monotone in raw.

    Accepts scalars or numpy arrays.
    """
    return np.logaddexp(0.0, raw) + squash.floor


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
