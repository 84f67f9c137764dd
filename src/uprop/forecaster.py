"""Forecasting with uncertainty propagation.

The model takes per-dimension (location, scale) pairs as input: observed
values enter with scale 0, missing values with the (mu, sigma) predicted
for them at the previous step. Multi-step forecasts feed each predicted
belief directly into the next step, with no sampling anywhere, so every
inference path is deterministic.

Every inference path runs on one scan (``_scan``) and differs only in the
input policy its caller passes: ``_feed`` turns the previous step's
belief and the observed cells into the next input, and a self-fed
forecast (``_self_feed``) feeds the belief back. The scan steps one
series, or a batch of B independent rows at once ((B, N) beliefs,
(B, hidden) states), each row bitwise the row stepped alone (``nn`` says
why). Inside the scan a belief is one row in the wire layout
``[mu..., sigma...]`` (``prob``). Each scan call makes its own work
buffers (``_step_buffers``), never the model, so two scans of one model
share no array they write: the stack's gate buffers, the readout's
weight arrays themselves, bound per scan as each cell's are, and the
squash's zeros and floor rows. Beliefs the API returns are
``DistVector._of_row`` views of the step's own rows, which no later step
writes.

Training runs on complete data only: a window's prefix is fed as observed
context (dropout on, at ``TrainConfig.dropout``), then the model rolls
out ``lookahead`` steps self-fed (dropout off) and is scored by the mean
per-point Gaussian NLL against the ground truth. A batch of windows is
one loss node over the model's weights (``_batch_loss``), whose
gradients come from a hand-written backward pass
(``nn.window_batch_backward``).
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .data import _KINDS, NormStats, TimeSeries, _is_a
from .errors import ConfigError, DataError, ShapeError
from .nn import (GruStackParams, LinearParams, TrainBuffers, adam_init, adam_step,
                 dropout_mask, fuse_stack, fused_stack_step, gate_buffers,
                 init_gru_stack, init_linear, matvec, train_buffers,
                 window_batch_backward, window_batch_forward, zero_grad,
                 zero_hidden)
from .prob import DistVector


@dataclass(frozen=True)
class TrainConfig:
    """Training and architecture hyperparameters, each of its annotated
    type under the JSON rule (``data._is_a``) that checkpoints load by.

    Frozen, so every value has passed the checks below: a changed setting
    is a new config (``dataclasses.replace``, which runs them again).
    """

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
        for name, kind in typing.get_type_hints(TrainConfig).items():
            value = getattr(self, name)
            if not _is_a(value, kind):
                raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")
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
    """GRU stack + affine readout mapping 2N belief inputs to 2N raw outputs.

    ``train_config`` holds every setting of the model, the sigma floor of
    its outputs among them, and is what a checkpoint saves.
    """

    dims: int
    stack: GruStackParams
    readout: LinearParams
    norm: NormStats
    train_config: TrainConfig
    _fstack: GruStackParams = field(init=False, repr=False, default=None)
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
        """Rebind the stack's numpy inference views to the current parameter
        arrays, and drop the filter state kept under the old ones."""
        self._fstack = fuse_stack(self.stack)
        self._cursor = None

    def parameters(self) -> list:
        return self.stack.weights() + self.readout.weights()


def build_model(dims: int, config: TrainConfig, norm: NormStats,
                rng: np.random.Generator) -> UPropModel:
    stack = init_gru_stack(2 * dims, config.hidden_size, config.n_layers, rng)
    # the scale half of the input starts with zero weight: an untrained
    # model treats a belief input exactly like an observation, and the
    # scale channels only gain influence through training
    stack.layers[0].w.value[:, dims:] = 0.0
    readout = init_linear(config.hidden_size, 2 * dims, rng)
    return UPropModel(dims=dims, stack=stack, readout=readout, norm=norm,
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


def _step_buffers(model: UPropModel, shape: tuple):
    """Work buffers of one scan for :func:`step` on rows of leading
    ``shape``: the stack's gate buffers (:func:`nn.gate_buffers`), the
    readout's weight and bias arrays themselves (not copies, as the gate
    buffers bind each cell's), then a zeros array and a floor array, each
    the shape of the readout's sigma half, that the squash reads. The
    floor is ``model.train_config``'s. Arrays rather than Python scalars
    round the same and dispatch faster.
    """
    sigma = shape + (model.dims,)
    return (gate_buffers(model._fstack.layers, shape), tn.value_of(model.readout.weight),
            tn.value_of(model.readout.bias), np.zeros(sigma),
            np.full(sigma, model.train_config.sigma_floor))


def step(model: UPropModel, x: np.ndarray, h: list, bufs: tuple | None = None):
    """One recurrent step (dropout off): returns (row for t+1, new hidden).

    ``x`` is one input row in the wire layout ``[mu..., sigma...]``, (2N,),
    with one (hidden,) state per layer in ``h``, or a batch: (B, 2N) rows
    and (B, hidden) states; a wrong width or number of states is a
    ``ShapeError``. ``bufs`` is :func:`_step_buffers` for that shape; a
    call without it makes a set for this step alone. The step is bare
    numpy on the frozen arrays. It returns a fresh row in the same layout,
    the readout with its sigma half squashed in place:
    ``sigma = softplus(raw) + floor``, with the floor of
    ``model.train_config``, is at least the floor (or NaN).
    ``DistVector._of_row`` views it as a belief without ``DistVector``'s
    checks.
    """
    if x.shape[-1] != 2 * model.dims:
        raise ShapeError(f"input width {x.shape[-1]} != 2 * model dims {model.dims}")
    if bufs is None:
        bufs = _step_buffers(model, x.shape[:-1])
    gates, weight, bias, zero, floor = bufs
    top, h_next = fused_stack_step(model._fstack, x, h, gates)
    row = matvec(weight, top)
    np.add(row, bias, row)
    sigma = row[..., model.dims:]
    np.logaddexp(zero, sigma, sigma)
    np.add(sigma, floor, sigma)
    return row, h_next


def _scan(model: UPropModel, n: int, policy, pending=None, h=None,
          snapshots: list | None = None):
    """The recurrence loop of inference: ``n`` steps from ``(pending, h)``.

    Every input and output is a row in the wire layout ``[mu..., sigma...]``.
    Step t's input is ``policy(t, pending)``, where ``pending`` is the row
    the previous step emitted (None before the first step). ``pending``
    and ``h`` hold one row or a batch (``h=None`` is the zero state of
    one row). Returns the per-step input rows and emitted rows, and the
    final hidden state. It calls :func:`step` once per step, batch or
    not, on work buffers made once per call for the shape of ``h``
    (:func:`_step_buffers`): per call, not per model, so concurrent scans
    of one model never share them. Each emitted row and each hidden state
    is a fresh array that no later step writes. The hidden state after
    each step is appended to ``snapshots`` when one is given; only
    callers that resume from every row ask, since keeping them all slows
    the loop.
    """
    if h is None:
        h = zero_hidden(model.stack)
    inputs, preds = [], []
    bufs = _step_buffers(model, h[0].shape[:-1])
    with np.errstate(over="ignore"):   # exp(-x) in the gates may overflow to inf
        for t in range(n):
            x = policy(t, pending)
            pending, h = step(model, x, h, bufs)
            inputs.append(x)
            preds.append(pending)
            if snapshots is not None:
                snapshots.append(h)
    return inputs, preds, h


def _feed(values: np.ndarray, mask: np.ndarray, prior: DistVector | None = None,
          kind="uprop", noise: np.ndarray | None = None):
    """The input policy over the rows ``values[t]``, ``mask[t]``: (N,) for
    one series, (B, N) for a batch. It returns wire-layout rows.

    Observed cells enter as (value, 0). A missing cell takes the belief
    pending for it, or ``prior`` (default: standard) before the first
    step. ``kind`` names, for every row or per row, the method that turns
    that belief into the input: "uprop" (uncertainty propagation) feeds it
    as is, like :func:`encode_input`; "mean" feeds the certain value
    clip(mu), and "sample" the certain value clip(mu + sigma * noise[t]),
    where ``noise`` holds standard normals drawn ahead (``noise[t]`` is
    read on steps with a missing cell only). Imputed values are clamped
    to +-IMPUTE_CLAMP. The prior is checked here, once, and the observed
    halves, ``[mask, mask]`` and ``[values, 0]``, are laid out here, so a
    "uprop" step is one copy and one ``np.copyto``.
    """
    dims = values.shape[-1]
    if prior is None:
        prior = DistVector.standard(dims)
    elif prior.dims != dims:
        raise ShapeError(f"prior dims {prior.dims} != model dims {dims}")
    prior = prior.flat()
    missing = ~np.concatenate([mask, mask], axis=-1)
    given = np.concatenate([values, np.zeros(values.shape)], axis=-1)
    kind = np.asarray(kind)[..., None]
    imputed, sampled = kind != "uprop", kind == "sample"
    impute, sample = imputed.any(), sampled.any()

    def policy(t, pending):
        fallback = prior if pending is None else pending
        if impute:
            mu, sigma = fallback[..., :dims], fallback[..., dims:]
            if sample:
                mu = np.where(sampled, mu + sigma * noise[t], mu)
            mu = np.where(imputed, np.clip(mu, -IMPUTE_CLAMP, IMPUTE_CLAMP), mu)
            fallback = np.concatenate([mu, np.where(imputed, 0.0, sigma)], axis=-1)
        # the row np.where(~missing, given, fallback) makes, at a third of
        # its cost; a batch's first step broadcasts the (2N,) prior
        x = given[t].copy()
        np.copyto(x, fallback, "same_kind", missing[t])
        return x
    return policy


def _filter(model: UPropModel, series: TimeSeries, prior: DistVector | None = None,
            kind: str = "uprop", noise: np.ndarray | None = None):
    """FilterStep records of one pass over ``series`` under the input
    policy of :func:`_feed`, and the final hidden state. Each record's
    input and forecast are views of the step's own rows."""
    if series.dims != model.dims:
        raise ShapeError(f"series dims {series.dims} != model dims {model.dims}")
    inputs, preds, h = _scan(model, series.steps,
                             _feed(series.values, series.mask, prior, kind, noise))
    # positional arguments: a record per step, at about 2 us each
    of_row = DistVector._of_row
    records = [FilterStep(t, of_row(x), Forecast(t, [of_row(row)]))
               for t, (x, row) in enumerate(zip(inputs, preds), series.t0)]
    return records, h


def _filter_batch(model: UPropModel, values: np.ndarray, mask: np.ndarray, kind,
                  noise: np.ndarray):
    """One filter pass over B series of T rows at once: ``values``,
    ``mask`` and ``noise`` are (T, B, N), ``kind`` one method per row (see
    :func:`_feed`). Returns the one-step forecasts as wire-layout rows,
    (T, B, 2N); row b is bitwise the pass over series b alone."""
    _, preds, _ = _scan(model, values.shape[0], _feed(values, mask, kind=kind, noise=noise),
                        h=zero_hidden(model.stack, values.shape[1]))
    return np.stack(preds)


def _consume(model: UPropModel, context: list):
    """Feed a non-empty list of input beliefs; returns (row, hidden)."""
    if not context:
        raise ValueError("a non-empty context is required")
    rows = [belief.flat() for belief in context]
    _, preds, h = _scan(model, len(rows), lambda t, _: rows[t])
    return preds[-1], h


def _check_horizon(k: int) -> None:
    if not _is_a(k, int):
        raise ConfigError(f"horizon must be an integer, got {k!r}")
    if k < 1:
        raise ConfigError(f"horizon must be >= 1, got {k}")


def _self_feed(model: UPropModel, pending: np.ndarray, h: list, k: int,
               feed=lambda _, row: row):
    """The k rows of a forecast whose first step is the row ``pending``.

    Each later step is fed ``feed(j, row)`` (default: the row itself).
    Returns the k - 1 fed inputs and the k rows.
    """
    _check_horizon(k)
    inputs, preds, _ = _scan(model, k - 1, feed, pending, h)
    return inputs, [pending] + preds


def rollout(model: UPropModel, context: list, k: int) -> Forecast:
    """Consume ``context`` (DistVectors), then self-feed for ``k`` steps.

    Each prediction's (mu, sigma) is fed directly as the next input — no
    sampling. The forecast's origin is the last context step.
    """
    _check_horizon(k)
    pending, h = _consume(model, context)
    _, rows = _self_feed(model, pending, h, k)
    return Forecast(origin_t=len(context) - 1,
                    steps=[DistVector._of_row(row) for row in rows])


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


def _batch_loss(model: UPropModel, X: np.ndarray, anchors, k: int, masks=None,
                work: TrainBuffers | None = None):
    """Training loss of a batch of windows as one node over the weights.

    ``X`` is the normalized (B, L, N) batch; window b is fed rows
    0..anchor_b-1 as observations (dropout masks ``masks[b]``, one
    (anchor_b, gaps, h) array, or None for no dropout), then rolls out k
    steps self-fed and is scored against rows anchor_b..anchor_b+k-1 by
    mean per-point NLL. Returns the batch-mean loss as a ``Var`` whose
    parents are the model's weights, and the per-window losses as numpy.
    The forward is :func:`window_batch_forward`; the gradients come from
    one :func:`window_batch_backward` pass, run when ``backward`` first
    asks for them. Both run on ``work`` (:func:`nn.train_buffers`), which
    the next forward on it overwrites, so ``backward`` must run on this
    loss before the next call on the set (else ``ShapeError``); a call
    without it makes a set for this batch alone.
    """
    if work is None:
        B, L = np.shape(X)[:2]
        work = train_buffers(model.stack.layers, B, L - 1)
    losses, cache = window_batch_forward(model.stack, model.readout,
                                         model.train_config.sigma_floor, X,
                                         anchors, k, masks, work)
    weights = model.parameters()
    grads = []

    def vjp(i):
        def apply(g):
            if not grads:
                grads.extend(window_batch_backward(cache))
            # the product in place: the backward's arrays are fresh, so
            # nothing else reads them and no copy is needed
            return np.multiply(grads[i], g, grads[i])
        return apply

    loss = tn.Var(losses.mean(), tuple(weights),
                  tuple(vjp(i) for i in range(len(weights))))
    return loss, losses


def _context_masks(model: UPropModel, anchor: int, rng: np.random.Generator):
    """Dropout masks of a window's context rows, (anchor, gaps, h), or None.

    Drawn row by row, gap by gap, from ``rng``, at the rate of
    ``model.train_config``.
    """
    rate, layers = model.train_config.dropout, model.stack.layers
    if rate == 0.0 or len(layers) == 1:
        return None
    return dropout_mask((anchor, len(layers) - 1, layers[0].hidden_size), rate, rng)


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
    elif norm.mean.shape[0] != dims:
        raise DataError(f"normalization stats of {norm.mean.shape[0]} dims do not fit "
                        f"training windows of {dims} dims")
    xs = np.stack([(w.values - norm.mean) / norm.std for w in windows])

    rng = np.random.default_rng(config.seed)
    model = build_model(dims, config, norm, rng)
    params = model.parameters()
    adam = adam_init(params, config.learning_rate)

    anchor_lo = math.ceil(L / 4)
    anchor_hi = L - k
    # one work set for every batch of this call, sized for the widest
    # batch and the longest window; its mapping goes when the call returns
    work = train_buffers(model.stack.layers, min(config.batch_size, len(xs)), L - 1)
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
                masks.append(_context_masks(model, anchor, rng))
            batch_loss, losses = _batch_loss(
                model, xs[batch], anchors, k, None if masks[0] is None else masks, work)
            if not np.all(np.isfinite(losses)):
                raise DataError(f"non-finite training loss in epoch {epoch + 1}, "
                                f"batch {start // config.batch_size + 1}")
            zero_grad(params)
            tn.backward(batch_loss)
            adam_step(adam, params, [p.grad for p in params])
            epoch_losses.extend(losses.tolist())
        loss_history.append(float(np.mean(epoch_losses)))
    model.refresh_frozen()
    return model, loss_history
