"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line. The desk-scale fixture in conftest
trains four models (lookaheads 2/4/8/16) once per session; table
magnitudes from large-scale runs are not reproducible at this scale, so
the grid checks are directional.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import DESK_LOOKAHEADS, desk_train_config
from uprop import tensor as tn
from uprop.baselines import ImputePolicy, filter_series_imputed
from uprop.checkpoint import load_checkpoint, save_checkpoint
from uprop.data import (TimeSeries, emulate_missing, load_csv, save_csv,
                        synth_random_walk, window)
from uprop.evaluate import evaluate_grid
from uprop.forecaster import (DistVector, TrainConfig, build_model,
                              filter_series, rollout, train)
from uprop.nn import zero_grad
from uprop.novelty import calibrate_threshold, score_series
from uprop.prob import interval95, kl, nll

from test_batch_loss import fresh_batch_loss
from test_forecaster import toy_windows


def report(name: str, ok: bool, detail: str = ""):
    print(f"\n{'PASS' if ok else 'FAIL'} [{name}] {detail}")
    assert ok, f"{name}: {detail}"


# --- 1. gradient oracle --------------------------------------------------

def test_criterion_1_gradient_oracle():
    import time
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        dims = int(rng.choice([2, 3]))
        hidden = int(rng.choice([4, 8]))
        layers = int(rng.choice([1, 2]))
        k = int(rng.choice([1, 2]))
        cfg = TrainConfig(lookahead=k, window_length=10, n_layers=layers,
                          hidden_size=hidden, dropout=0.0, seed=trial)
        from uprop.data import NormStats
        model = build_model(dims, cfg, NormStats(mean=np.zeros(dims),
                                                 std=np.ones(dims)), rng)
        x = rng.normal(size=(5, dims))
        anchor = 5 - k
        params = model.parameters()

        def loss_value():
            return float(fresh_batch_loss(model, x[None], [anchor], k, None)[0].value)

        zero_grad(params)
        loss = fresh_batch_loss(model, x[None], [anchor], k, None)[0]
        tn.backward(loss)
        eps = 1e-5
        for p in params:
            flat, grad = p.value.ravel(), p.grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss_value()
                flat[i] = orig - eps
                lm = loss_value()
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                # the 1e-6 denominator floor keeps central-difference
                # roundoff on near-zero gradients (|g| ~ 1e-8, fd noise
                # ~ 1e-11) from masquerading as relative error
                rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6)
                worst = max(worst, rel)
    elapsed = time.time() - t0
    report("criterion 1: gradient oracle",
           worst <= 1e-4 and elapsed < 60.0,
           f"20 models, worst relative error {worst:.2e}, {elapsed:.1f}s")


# --- 2. closed-form oracles ----------------------------------------------

def _kl_quadrature(mu_p, s_p, mu_q, s_q):
    p, q = stats.norm(mu_p, s_p), stats.norm(mu_q, s_q)
    val, _ = integrate.quad(lambda x: p.pdf(x) * (p.logpdf(x) - q.logpdf(x)),
                            mu_p - 12 * s_p, mu_p + 12 * s_p, limit=200)
    return val


def test_criterion_2_closed_form_oracles():
    rng = np.random.default_rng(2)
    worst_nll, worst_kl = 0.0, 0.0
    for _ in range(100):
        mu, mu_q = rng.normal(size=2)
        s, s_q = rng.uniform(0.2, 2.5, size=2)
        x = rng.normal()
        got = nll(DistVector(mu=np.array([mu]), sigma=np.array([s])),
                  np.array([x]))
        worst_nll = max(worst_nll, abs(got - (-stats.norm(mu, s).logpdf(x))))
        got = kl(DistVector(mu=np.array([mu]), sigma=np.array([s])),
                 DistVector(mu=np.array([mu_q]), sigma=np.array([s_q])))
        worst_kl = max(worst_kl, abs(got - _kl_quadrature(mu, s, mu_q, s_q)))
    v1 = nll(DistVector(mu=np.zeros(1), sigma=np.ones(1)), np.zeros(1))
    v2 = kl(DistVector(mu=np.zeros(1), sigma=np.ones(1)),
            DistVector(mu=np.ones(1), sigma=np.full(1, 2.0)))
    ok = (worst_nll < 1e-6 and worst_kl < 1e-6
          and abs(v1 - 0.918939) < 1e-6 and abs(v2 - 0.443147) < 1e-6)
    report("criterion 2: closed-form oracles", ok,
           f"max |nll err| {worst_nll:.1e}, max |kl err| {worst_kl:.1e}, "
           f"worked values {v1:.6f} / {v2:.6f}")


# --- 3. no-missing equivalence -------------------------------------------

def test_criterion_3_no_missing_equivalence(desk):
    model = desk["models"][2]
    test_windows = desk["split"].test
    identical = True
    for w in test_windows[:4]:
        from uprop.data import normalize
        series = normalize(w, model.norm)
        ref = filter_series(model, series)
        for kind in ("mean", "sample"):
            got = filter_series_imputed(model, series, ImputePolicy(kind, seed=1))
            for a, b in zip(got, ref):
                if not (np.array_equal(a.forecast.steps[0].mu,
                                       b.forecast.steps[0].mu)
                        and np.array_equal(a.forecast.steps[0].sigma,
                                           b.forecast.steps[0].sigma)):
                    identical = False
    grid = evaluate_grid({2: model}, test_windows, rates=[0.0], seed=0)
    dmean = grid.difference("mean")
    dsample = grid.difference("sample")
    zero_diff = np.all(dmean == 0.0) and np.all(dsample == 0.0)
    report("criterion 3: no-missing equivalence", identical and zero_diff,
           f"bit-identical forecasts: {identical}; max |diff| "
           f"{max(np.abs(dmean).max(), np.abs(dsample).max()):.1e}")


# --- 4. directional grid -------------------------------------------------

RATES = [0.05, 0.1, 0.2, 0.5]


@pytest.fixture(scope="session")
def grid(desk):
    return evaluate_grid(desk["models"], desk["split"].test, rates=RATES,
                         seed=42)


def _inversions(column) -> int:
    return int(sum(column[i + 1] < column[i] for i in range(len(column) - 1)))


def test_criterion_4_directional_grid(desk, grid):
    budget_ok = desk["train_seconds"] < 900.0
    diffs = {m: grid.difference(m) for m in ("mean", "sample")}

    floor_ok = all(d.min() >= -0.02 for d in diffs.values())
    counts = {m: int((d >= 0.005).sum()) for m, d in diffs.items()}
    count_ok = all(c >= 12 for c in counts.values())

    max_inv = max(_inversions(d[:, ki]) for d in diffs.values()
                  for ki in range(d.shape[1]))
    mono_ok = max_inv <= 1

    sample_beats_mean = int((diffs["sample"] > diffs["mean"]).sum())
    order_ok = sample_beats_mean >= 12

    detail = (f"train {desk['train_seconds']:.0f}s; "
              f"min diff {min(d.min() for d in diffs.values()):+.4f}; "
              f"cells >= +0.005: mean {counts['mean']}/16, "
              f"sample {counts['sample']}/16; "
              f"max column inversions {max_inv}; "
              f"sample > mean in {sample_beats_mean}/16")
    report("criterion 4: directional grid",
           budget_ok and floor_ok and count_ok and mono_ok and order_ok,
           detail)


# --- 5. calibration ------------------------------------------------------

def _coverage(model, windows, rate, method, seed=0):
    from uprop.data import normalize
    inside, total = 0, 0
    for wi, w in enumerate(windows):
        truth = normalize(w, model.norm)
        degraded = truth if rate == 0.0 else normalize(
            emulate_missing(w, rate, seed=seed + wi), model.norm)
        if method == "uprop":
            steps = filter_series(model, degraded)
        else:
            steps = filter_series_imputed(model, degraded,
                                          ImputePolicy(method, seed=seed + wi))
        for t in range(1, truth.steps):
            lower, upper = interval95(steps[t - 1].forecast.steps[0])
            x = truth.values[t]
            inside += int(np.sum((lower <= x) & (x <= upper)))
            total += truth.dims
    return inside / total


def test_criterion_5_calibration(desk):
    # the coverage gap needs a model whose widening response to uncertain
    # inputs is fully learned; the 10-epoch grid models are only half way
    # there, so this criterion trains its own longer-schedule model on the
    # same data
    config = TrainConfig(lookahead=4, epochs=40, window_length=120,
                         n_layers=1, hidden_size=32, dropout=0.0, seed=42,
                         learning_rate=0.01, batch_size=8)
    model, _ = train(desk["split"].train, config)
    test_windows = desk["split"].test
    cov_full = _coverage(model, test_windows, 0.0, "uprop")
    cov_uprop_50 = _coverage(model, test_windows, 0.5, "uprop", seed=900)
    cov_mean_50 = _coverage(model, test_windows, 0.5, "mean", seed=900)
    in_range = 0.88 <= cov_full <= 0.99
    gap_ok = cov_uprop_50 - cov_mean_50 >= 0.05
    report("criterion 5: calibration",
           in_range and gap_ok,
           f"one-step coverage {cov_full:.3f} (fully observed); at 50% "
           f"missing: uprop {cov_uprop_50:.3f} vs mean {cov_mean_50:.3f}")


# --- 6. uncertainty growth -----------------------------------------------

def test_criterion_6_uncertainty_growth():
    # short windows keep the per-step innovation large relative to the
    # pooled normalization, so the step-wise growth signal is strong; the
    # model is trained to convergence since a half-fit mu estimate leaves
    # sigma pinned at the overall error level with no growth along steps
    train_windows = [synth_random_walk(40, seed=3000 + i, dims=1)
                     for i in range(128)]
    test_windows = [synth_random_walk(40, seed=4000 + i, dims=1)
                    for i in range(104)]
    config = TrainConfig(lookahead=8, epochs=30, window_length=40,
                         n_layers=2, hidden_size=16, dropout=0.0, seed=42,
                         learning_rate=0.01, batch_size=8)
    model, _ = train(train_windows, config)
    sig1, sig8 = [], []
    for w in test_windows:
        x = (w.values - model.norm.mean) / model.norm.std
        context = [DistVector.observed(v) for v in x[:20]]
        fc = rollout(model, context, k=8)
        sig1.append(float(fc.steps[0].sigma.mean()))
        sig8.append(float(fc.steps[7].sigma.mean()))
    m1, m8 = float(np.mean(sig1)), float(np.mean(sig8))
    report("criterion 6: uncertainty growth", m8 > m1,
           f"mean sigma step 1 = {m1:.4f}, step 8 = {m8:.4f} "
           f"over {len(test_windows)} test windows")


# --- 7. novelty detection ------------------------------------------------

def test_criterion_7_novelty_detection(desk):
    from uprop.data import normalize
    model = desk["models"][8]
    calib_scores = []
    for w in desk["split"].val + desk["split"].train[:8]:
        calib_scores.extend(score_series(model, normalize(w, model.norm), "kl"))
    threshold = calibrate_threshold(calib_scores, quantile=0.99)

    onset = 70
    hits, false_pos, clean_count = 0, 0, 0
    test_windows = desk["split"].test
    for wi, w in enumerate(test_windows):
        series = normalize(w, model.norm)
        # clean pass: count false positives
        clean = score_series(model, series, "kl", threshold=threshold)
        false_pos += sum(s.flagged for s in clean)
        clean_count += len(clean)
        # inject a 6-sigma level shift (normalized units)
        shifted = series.values.copy()
        shifted[onset:, :] += 6.0
        scores = score_series(model, TimeSeries.complete(shifted, t0=0), "kl",
                              threshold=threshold)
        if any(s.flagged for s in scores if onset <= s.t <= onset + 4):
            hits += 1
    recall = hits / len(test_windows)
    fp_rate = false_pos / clean_count
    report("criterion 7: novelty detection",
           recall >= 0.9 and fp_rate <= 0.03,
           f"recall {recall:.2f} over {len(test_windows)} injected shifts; "
           f"clean false-positive rate {fp_rate:.4f} at q=0.99")


# --- 8. determinism and round-trips --------------------------------------

def test_criterion_8_determinism_and_round_trips(desk, tmp_path):
    # same-seed retraining -> byte-identical checkpoints
    cfg = TrainConfig(lookahead=2, epochs=2, window_length=40, n_layers=2,
                      hidden_size=6, batch_size=8, seed=80)
    m1, h1 = train(toy_windows(seed=80), cfg)
    m2, h2 = train(toy_windows(seed=80), cfg)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(m1, p1, final_loss=h1[-1])
    save_checkpoint(m2, p2, final_loss=h2[-1])
    retrain_ok = p1.read_bytes() == p2.read_bytes()

    # checkpoint round trip reproduces forecasts bit-exactly
    loaded, _ = load_checkpoint(p1)
    rng = np.random.default_rng(80)
    ctx = [DistVector.observed(rng.normal(size=2)) for _ in range(10)]
    fa, fb = rollout(m1, ctx, k=4), rollout(loaded, ctx, k=4)
    ckpt_ok = all(np.array_equal(a.mu, b.mu) and np.array_equal(a.sigma, b.sigma)
                  for a, b in zip(fa.steps, fb.steps))

    # CSV round trip is exact
    values = rng.normal(size=(30, 3)) * 1e5
    s = emulate_missing(TimeSeries.complete(values), 0.3, seed=81)
    csv_path = tmp_path / "s.csv"
    save_csv(s, csv_path)
    back = load_csv(csv_path)
    csv_ok = (np.array_equal(back.mask, s.mask)
              and np.array_equal(back.values[back.mask], s.values[s.mask]))

    # filtering an all-missing tail equals rollout exactly
    model = desk["models"][8]
    from uprop.data import normalize
    w = normalize(desk["split"].test[0], model.norm)
    mask = np.ones_like(w.values, dtype=bool)
    mask[100:, :] = False
    steps = filter_series(model, TimeSeries(values=w.values, mask=mask))
    fc = rollout(model, [DistVector.observed(v) for v in w.values[:100]], k=20)
    tail_ok = all(
        np.array_equal(steps[99 + j].forecast.steps[0].mu, fc.steps[j].mu)
        and np.array_equal(steps[99 + j].forecast.steps[0].sigma,
                           fc.steps[j].sigma)
        for j in range(20))

    report("criterion 8: determinism and round-trips",
           retrain_ok and ckpt_ok and csv_ok and tail_ok,
           f"retrain byte-identical: {retrain_ok}; checkpoint bit-exact: "
           f"{ckpt_ok}; csv exact: {csv_ok}; tail == rollout: {tail_ok}")
