"""Forecasting with uncertainty propagation.

The model takes per-dimension (location, scale) pairs as input: observed
values enter with scale 0, missing values with the (mu, sigma) predicted
for them at the previous step. Multi-step forecasts feed each predicted
belief directly into the next step, with no sampling anywhere, so every
inference path is deterministic. Every inference path runs on one scan
(``_scan``); they differ only in the input policy (``_feed``) that turns
the previous step's belief into the next input. The scan steps one series,
or a batch of B independent rows at once ((B, N) beliefs, (B, hidden)
states): the offline paths (the evaluation grid, KL scoring, Monte-Carlo
rollouts) run batched, the streaming ones one series at a time. Each row
of a batch is bitwise the row stepped alone; ``nn`` says why.

Training runs on complete data only: a window's prefix is fed as observed
context (dropout on), then the model rolls out ``lookahead`` steps
self-fed (dropout off) and is scored by the mean per-point Gaussian NLL
against the ground truth. A batch of windows is one loss node over the
model's weights (``_batch_loss``): all windows step together, a per-row
mask picks the observation before each window's anchor and the fed-back
belief after it, and the gradients come from a hand-written backward
pass (``nn.window_batch_backward``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .data import NormStats, TimeSeries
from .errors import ConfigError, DataError, ShapeError
from .nn import (AdamState, GruStackParams, LinearParams,
                 adam_init, adam_step, dropout_mask, freeze_linear,
                 fuse_stack, fused_stack_step, init_gru_stack, init_linear,
                 linear_forward, window_batch_backward, window_batch_forward,
                 zero_grad, zero_hidden)
from .prob import DistVector, SigmaSquash, squash_sigma


@dataclass
class TrainConfig:
    """Training and architecture hyperparameters."""

    lookahead: int = 8
    epochs: int = 20
    learning_rate: float = 0.001
    batch_size: int = 32
    window_length: int = 120
    seed: int = 0
    n_layers: int = 3
    hidden_size: int = 64
    dropout: float = 0.2
    sigma_floor: float = 1e-3

    def __post_init__(self):
        if not 1 <= self.lookahead < self.window_length:
            raise ConfigError(
                f"lookahead must satisfy 1 <= k < window_length, got "
                f"k={self.lookahead}, L={self.window_length}"
            )
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
        for name in ("batch_size", "n_layers", "hidden_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.sigma_floor > 0.0:
            raise ConfigError(f"sigma_floor must be positive, got {self.sigma_floor}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Forecast:
    """A k-step sequence of belief vectors anchored at ``origin_t``.

    ``steps[j]`` is the belief for time origin_t + 1 + j, in normalized
    units.
    """

    origin_t: int
    steps: list

    @property
    def horizon(self) -> int:
        return len(self.steps)

    def denormalized(self, norm: NormStats) -> "Forecast":
        return Forecast(
            origin_t=self.origin_t,
            steps=[DistVector(mu=s.mu * norm.std + norm.mean, sigma=s.sigma * norm.std)
                   for s in self.steps],
        )


@dataclass
class FilterStep:
    """One online-filtering step: the input used at t, forecast for t+1."""

    t: int
    input: DistVector
    forecast: Forecast


@dataclass
class UPropModel:
    """GRU stack + affine readout mapping 2N belief inputs to 2N raw outputs."""

    dims: int
    stack: GruStackParams
    readout: LinearParams
    squash: SigmaSquash
    norm: NormStats
    train_config: TrainConfig | None = None
    _fstack: GruStackParams = field(init=False, repr=False, default=None)
    _freadout: LinearParams = field(init=False, repr=False, default=None)
    # forecast_from_origin's resume point; see that function
    _cursor: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.stack.layers[0].input_size != 2 * self.dims:
            raise ShapeError("stack input width must be 2 * dims")
        if tn.value_of(self.readout.bias).shape[0] != 2 * self.dims:
            raise ShapeError("readout output width must be 2 * dims")
        if self.norm.mean.shape[0] != self.dims:
            raise ShapeError("normalization stats must have exactly dims entries")
        self.refresh_frozen()

    def refresh_frozen(self) -> None:
        """Rebind the numpy inference views to the current parameter arrays,
        and drop the filter state kept under the old ones."""
        self._fstack = fuse_stack(self.stack)
        self._freadout = freeze_linear(self.readout)
        self._cursor = None

    def parameters(self) -> list:
        return self.stack.weights() + self.readout.weights()


def build_model(dims: int, config: TrainConfig, norm: NormStats,
                rng: np.random.Generator) -> UPropModel:
    stack = init_gru_stack(2 * dims, config.hidden_size, config.n_layers,
                           config.dropout, rng)
    # the scale half of the input starts with zero weight: an untrained
    # model treats a belief input exactly like an observation, and the
    # scale channels only gain influence through training
    stack.layers[0].w.value[:, dims:] = 0.0
    readout = init_linear(config.hidden_size, 2 * dims, rng)
    return UPropModel(dims=dims, stack=stack, readout=readout,
                      squash=SigmaSquash(config.sigma_floor), norm=norm,
                      train_config=config)


# imputed values are presented as certain observations; clamp keeps a
# pathological sample from destabilizing the recurrence
IMPUTE_CLAMP = 8.0


def encode_input(obs: np.ndarray, pending: DistVector | None = None,
                 prior: DistVector | None = None,
                 mask: np.ndarray | None = None) -> DistVector:
    """Build the model input for one time step.

    Observed dimensions enter as (value, 0). Missing dimensions take the
    pending one-step forecast for this step, or the prior when there is
    none. Missing entries of ``obs`` are NaN; ``mask`` overrides the NaN
    convention when given. A pending belief or prior whose length differs
    from ``obs`` raises ``ShapeError`` instead of being broadcast.
    """
    obs = np.asarray(obs, dtype=np.float64)
    if mask is None:
        mask = ~np.isnan(obs)
    fallback = pending if pending is not None else prior
    if fallback is None:
        fallback = DistVector.standard(obs.shape[0])
    elif fallback.dims != obs.shape[0]:
        raise ShapeError(f"belief dims {fallback.dims} != observation dims {obs.shape[0]}")
    mu = np.where(mask, obs, fallback.mu)
    sigma = np.where(mask, 0.0, fallback.sigma)
    return DistVector(mu=mu, sigma=sigma)


def step(model: UPropModel, inp: DistVector, h: list):
    """One recurrent step (dropout off): returns (belief for t+1, new hidden).

    ``inp`` is one belief, (N,) arrays, with one (hidden,) state per layer
    in ``h``, or a batch: (B, N) arrays and (B, hidden) states. The step
    is bare numpy on the frozen arrays. Its belief skips ``DistVector``'s
    checks: ``mu`` and ``sigma`` are equal-shape float64 slices of the
    readout, and ``sigma = softplus(raw) + floor`` is at least the floor
    (or NaN, which the checks let through too).
    """
    if inp.dims != model.dims:
        raise ShapeError(f"input dims {inp.dims} != model dims {model.dims}")
    x = np.concatenate([inp.mu, inp.sigma], axis=-1)
    top, h_next = fused_stack_step(model._fstack, x, h)
    raw = linear_forward(model._freadout, top)
    n = model.dims
    return (DistVector._unchecked(raw[..., :n], squash_sigma(raw[..., n:], model.squash)),
            h_next)


def _scan(model: UPropModel, n: int, policy=None, pending=None, h=None,
          snapshots: list | None = None):
    """The recurrence loop of inference: ``n`` steps from ``(pending, h)``.

    Step t's input is ``policy(t, pending)``, where ``pending`` is the
    belief the previous step emitted (None before the first step); with
    no policy that belief is fed back as is. ``pending`` and ``h`` hold
    one row or a batch (``h=None`` is the zero state of one row). Returns
    the per-step inputs and emitted beliefs, and the final hidden state.
    It calls :func:`step` once per step, batch or not. The hidden state
    after each step is appended to ``snapshots`` when one is given; only
    callers that resume from every row ask, since keeping them all slows
    the loop.
    """
    if h is None:
        h = zero_hidden(model.stack)
    inputs, preds = [], []
    with np.errstate(over="ignore"):   # exp(-x) in the gates may overflow to inf
        for t in range(n):
            inp = pending if policy is None else policy(t, pending)
            pending, h = step(model, inp, h)
            inputs.append(inp)
            preds.append(pending)
            if snapshots is not None:
                snapshots.append(h)
    return inputs, preds, h


def _feed(values: np.ndarray, mask: np.ndarray, prior: DistVector | None = None,
          kind="uprop", noise: np.ndarray | None = None):
    """The input policy over the rows ``values[t]``, ``mask[t]``: (N,) for
    one series, (B, N) for a batch.

    Observed cells enter as (value, 0). A missing cell takes the belief
    pending for it, or ``prior`` (default: standard) before the first
    step. ``kind`` names, for every row or per row, the method that turns
    that belief into the input: "uprop" (uncertainty propagation) feeds it
    as is, like :func:`encode_input`; "mean" feeds the certain value
    clip(mu), and "sample" the certain value clip(mu + sigma * noise[t]),
    where ``noise`` holds standard normals drawn ahead (``noise[t]`` is
    read on steps with a missing cell only). Imputed values are clamped
    to +-IMPUTE_CLAMP. The prior is checked here, once.
    """
    dims = values.shape[-1]
    if prior is None:
        prior = DistVector.standard(dims)
    elif prior.dims != dims:
        raise ShapeError(f"prior dims {prior.dims} != model dims {dims}")
    kind = np.asarray(kind)[..., None]
    imputed, sampled = kind != "uprop", kind == "sample"
    impute, sample = imputed.any(), sampled.any()

    def policy(t, pending):
        fallback = prior if pending is None else pending
        mu, sigma, observed = fallback.mu, fallback.sigma, mask[t]
        if impute:
            if sample:
                mu = np.where(sampled, mu + sigma * noise[t], mu)
            mu = np.where(imputed, np.clip(mu, -IMPUTE_CLAMP, IMPUTE_CLAMP), mu)
            sigma = np.where(imputed, 0.0, sigma)
        return DistVector._unchecked(np.where(observed, values[t], mu),
                                     np.where(observed, 0.0, sigma))
    return policy


def _filter(model: UPropModel, series: TimeSeries, prior: DistVector | None = None,
            kind: str = "uprop", noise: np.ndarray | None = None):
    """FilterStep records of one pass over ``series`` under the input
    policy of :func:`_feed`, and the final hidden state."""
    if series.dims != model.dims:
        raise ShapeError(f"series dims {series.dims} != model dims {model.dims}")
    inputs, preds, h = _scan(model, series.steps,
                             _feed(series.values, series.mask, prior, kind, noise))
    t0 = series.t0
    records = [FilterStep(t=t0 + t, input=inp,
                          forecast=Forecast(origin_t=t0 + t, steps=[pred]))
               for t, (inp, pred) in enumerate(zip(inputs, preds))]
    return records, h


def _filter_batch(model: UPropModel, values: np.ndarray, mask: np.ndarray,
                  kind="uprop", noise: np.ndarray | None = None):
    """One filter pass over B series of T rows at once: ``values``,
    ``mask`` and ``noise`` are (T, B, N), ``kind`` one method per row (see
    :func:`_feed`). Returns the one-step forecasts' ``mu`` and ``sigma``,
    (T, B, N) each; row b is bitwise the pass over series b alone."""
    _, preds, _ = _scan(model, values.shape[0], _feed(values, mask, kind=kind, noise=noise),
                        h=zero_hidden(model.stack, values.shape[1]))
    return np.stack([p.mu for p in preds]), np.stack([p.sigma for p in preds])


def _consume(model: UPropModel, context: list):
    """Feed a non-empty list of input beliefs; returns (belief, hidden)."""
    if not context:
        raise ValueError("a non-empty context is required")
    _, preds, h = _scan(model, len(context), lambda t, _: context[t])
    return preds[-1], h


def _self_feed(model: UPropModel, pending: DistVector, h: list, k: int,
               feed=None):
    """The k beliefs of a forecast whose first step is ``pending``.

    Each later step is fed ``feed(j, belief)`` (default: the belief
    itself). Returns the k - 1 fed inputs and the k beliefs.
    """
    if k < 1:
        raise ConfigError(f"horizon must be >= 1, got {k}")
    inputs, preds, _ = _scan(model, k - 1, feed, pending, h)
    return inputs, [pending] + preds


def rollout(model: UPropModel, context: list, k: int,
            origin_t: int | None = None) -> Forecast:
    """Consume ``context`` (DistVectors), then self-feed for ``k`` steps.

    Each prediction's (mu, sigma) is fed directly as the next input — no
    sampling.
    """
    pending, h = _consume(model, context)
    _, preds = _self_feed(model, pending, h, k)
    return Forecast(origin_t=origin_t if origin_t is not None else len(context) - 1,
                    steps=preds)


def filter_series(model: UPropModel, series: TimeSeries,
                  prior: DistVector | None = None,
                  return_state: bool = False):
    """Online pass over a (normalized) series with missing cells.

    At each step t the input mixes observed values (scale 0) with the
    previous step's forecast for t; the one-step forecast for t+1 is
    recorded. Returns the list of FilterStep records, plus the final
    hidden state and pending forecast when ``return_state`` is set.
    """
    steps, h = _filter(model, series, prior)
    if return_state:
        return steps, h, steps[-1].forecast.steps[0] if steps else None
    return steps


def _batch_loss(stack: GruStackParams, readout: LinearParams, squash: SigmaSquash,
                X: np.ndarray, anchors, k: int, masks=None):
    """Training loss of a batch of windows as one node over the weights.

    ``X`` is the normalized (B, L, N) batch; window b is fed rows
    0..anchor_b-1 as observations (dropout masks ``masks[b]``, one
    (anchor_b, gaps, h) array, or None for no dropout), then rolls out k
    steps self-fed and is scored against rows anchor_b..anchor_b+k-1 by
    mean per-point NLL. Returns the batch-mean loss as a ``Var`` whose
    parents are the ``Var`` leaves among the weights of ``stack`` and
    ``readout``, and the per-window losses as numpy. The forward is
    :func:`window_batch_forward`; the gradients come from one
    :func:`window_batch_backward` pass, run when ``backward`` first asks
    for them.
    """
    losses, cache = window_batch_forward(stack, readout, squash.floor, X,
                                         anchors, k, masks)
    weights = stack.weights() + readout.weights()
    grads = []

    def vjp(i):
        def apply(g):
            if not grads:
                grads.extend(window_batch_backward(cache))
            return g * grads[i]
        return apply

    tape = [(p, vjp(i)) for i, p in enumerate(weights) if isinstance(p, tn.Var)]
    loss = tn.Var(losses.mean(), tuple(p for p, _ in tape),
                  tuple(f for _, f in tape))
    return loss, losses


def _context_masks(stack: GruStackParams, anchor: int, rng: np.random.Generator):
    """Dropout masks of a window's context rows, (anchor, gaps, h), or None.

    Drawn row by row, gap by gap, from ``rng``.
    """
    n_gaps = len(stack.layers) - 1
    if stack.dropout_rate == 0.0 or n_gaps == 0:
        return None
    return dropout_mask((anchor, n_gaps, stack.layers[0].hidden_size),
                        stack.dropout_rate, rng)


def _window_loss(stack: GruStackParams, readout: LinearParams,
                 squash: SigmaSquash, x: np.ndarray, anchor: int, k: int,
                 rng: np.random.Generator):
    """Loss node of one training window: the batch of one of
    :func:`_batch_loss`, with its dropout masks drawn from ``rng``."""
    masks = _context_masks(stack, anchor, rng)
    loss, _ = _batch_loss(stack, readout, squash, x[None], [anchor], k,
                          None if masks is None else [masks])
    return loss


def train(windows: list, config: TrainConfig, norm: NormStats | None = None):
    """Train on complete windows; returns (model, per-epoch mean loss).

    Windows must be fully observed, of length ``config.window_length``
    and all of the same dims. Per window per epoch one anchor is drawn
    uniformly from [ceil(L/4), L-k]; identical seeds give identical
    trajectories.
    """
    if not windows:
        raise DataError("no training windows")
    L, k = config.window_length, config.lookahead
    dims = windows[0].dims
    for w in windows:
        if not w.mask.all():
            raise DataError("training data must not contain missing values")
        if w.steps != L:
            raise DataError(f"training window length {w.steps} != configured {L}")
        if w.dims != dims:
            raise DataError(f"training window dims {w.dims} != first window's {dims}")
    if norm is None:
        norm = NormStats.from_windows(windows)
    xs = np.stack([(w.values - norm.mean) / norm.std for w in windows])

    rng = np.random.default_rng(config.seed)
    model = build_model(dims, config, norm, rng)
    params = model.parameters()
    adam = adam_init(params, config.learning_rate)

    anchor_lo = math.ceil(L / 4)
    anchor_hi = L - k
    loss_history = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(xs))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            anchors, masks = [], []
            for _ in batch:
                anchor = int(rng.integers(anchor_lo, anchor_hi + 1))
                anchors.append(anchor)
                masks.append(_context_masks(model.stack, anchor, rng))
            batch_loss, losses = _batch_loss(
                model.stack, model.readout, model.squash, xs[batch], anchors, k,
                None if masks[0] is None else masks)
            if not np.all(np.isfinite(losses)):
                raise DataError(f"non-finite training loss in epoch {epoch + 1}, "
                                f"batch {start // config.batch_size + 1}")
            zero_grad(params)
            tn.backward(batch_loss)
            adam_step(adam, params)
            epoch_losses.extend(losses.tolist())
        loss_history.append(float(np.mean(epoch_losses)))
    model.refresh_frozen()
    return model, loss_history
