"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` patches ``uprop`` names where their callers look
them up, and reports a per-layer metric as absent when a patch point is
gone. A rename in ``src/`` would therefore turn metrics into "absent"
without failing anything; this test makes it fail here instead, and a
traced filter pass must record one span per step at each layer the
``stream`` workload counts. It only reads ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import uprop as U

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_exists_and_uninstall_restores_it():
    tracer_mod = load_tracer()
    # a span name may list more bindings than still exist; the tracer
    # patches the ones it finds and needs at least one per name
    originals = {(module, attr): getattr(importlib.import_module(module), attr)
                 for points in tracer_mod.PATCH_POINTS.values()
                 for module, attr in points
                 if callable(getattr(importlib.import_module(module), attr, None))}
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
        wrapped = {b: getattr(importlib.import_module(b[0]), b[1]) for b in originals}
    finally:
        tracer.uninstall()
    assert all(wrapped[b] is not originals[b] for b in originals)
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_a_traced_filter_pass_records_one_span_per_step():
    tracer_mod = load_tracer()
    rng = np.random.default_rng(3)
    values = rng.normal(size=(9, 2))
    mask = rng.random((9, 2)) >= 0.3
    values[~mask] = np.nan
    series = U.TimeSeries(values=values, mask=mask)
    windows = [U.TimeSeries.complete(rng.normal(size=(6, 2))) for _ in range(2)]
    model, _ = U.train(windows, U.TrainConfig(lookahead=1, epochs=1, window_length=6,
                                              n_layers=2, hidden_size=4))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        U.filter_series(model, series)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("forecaster.filter_series") == 1
    assert names.count("forecaster.step") == series.steps
    assert names.count("nn.fused_stack_step.frozen") == series.steps
    assert "nn.fused_stack_step.tape" not in names


def test_a_traced_train_records_one_backward_and_adam_span_per_batch():
    # the per-batch backward, Adam and forward self times of the
    # train_desk workload are read from these spans
    tracer_mod = load_tracer()
    rng = np.random.default_rng(5)
    windows = [U.TimeSeries.complete(rng.normal(size=(6, 2))) for _ in range(5)]
    config = U.TrainConfig(lookahead=1, epochs=2, window_length=6, batch_size=2,
                           n_layers=2, hidden_size=3)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        U.train(windows, config)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    batches = 2 * 3   # two epochs of batches of 2, 2 and 1 windows
    assert names.count("forecaster.train") == 1
    assert names.count("tensor.backward") == batches
    assert names.count("nn.adam_step") == batches
