"""Property test for the resume cursor of ``forecast_from_origin``.

Random small models serve random sequences of calls that mix ascending,
repeated and descending origins on two interleaved series (the second
shares a prefix with the first), in-place edits of values and mask cells,
and weight changes followed by ``refresh_frozen``. Every forecast must
equal, bit for bit, filtering from a zero state written out as a loop
over ``step``, whichever state the call resumed from, also when threads
race for the cursor of one shared model.
"""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uprop.data import TimeSeries
from uprop.novelty import forecast_from_origin

from test_forecaster import small_model
from test_scan_properties import assert_same_belief, reference_forecast


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_forecast_equals_filtering_from_zero(data):
    dims = data.draw(st.integers(1, 3), label="dims")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    model = small_model(dims=dims, hidden=data.draw(st.integers(1, 5)),
                        layers=data.draw(st.integers(1, 3)), seed=seed % 1000)
    rng = np.random.default_rng(seed)

    def new_weights():
        for p in model.parameters():
            p.value[...] = rng.normal(scale=0.7, size=p.value.shape)
        model.refresh_frozen()

    new_weights()
    steps = data.draw(st.integers(2, 12), label="steps")
    shared = data.draw(st.integers(0, steps), label="shared rows")
    # every value is finite, so editing a mask cell alone changes an input
    values = rng.normal(size=(2, steps, dims))
    mask = rng.random((2, steps, dims)) >= data.draw(st.sampled_from([0.0, 0.3, 0.7]))
    values[1, :shared], mask[1, :shared] = values[0, :shared], mask[0, :shared]
    series = [TimeSeries(values=values[i], mask=mask[i], t0=3 * i) for i in (0, 1)]

    last = 0    # the last origin called: edits hit rows it consumed
    for _ in range(data.draw(st.integers(4, 24), label="actions")):
        kind = data.draw(st.sampled_from(["call"] * 4 + ["value", "mask", "weights"]))
        s = series[data.draw(st.integers(0, 1))]
        if kind == "call":
            origin = data.draw(st.integers(0, steps - 1))
            k = data.draw(st.integers(1, 4))
            fc = forecast_from_origin(model, s, origin, k)
            assert fc.origin_t == s.t0 + origin and fc.horizon == k
            for got, want in zip(fc.steps, reference_forecast(model, s, origin, k),
                                 strict=True):
                assert_same_belief(got, want)
            # the caller owns the result: scribbling on it changes nothing later
            for belief in fc.steps:
                belief.mu[...] = belief.sigma[...] = 9.0
            last = origin
        elif kind == "weights":
            new_weights()
            # the filter state of the old weights is released at once
            assert model._cursor is None
        else:
            t = data.draw(st.integers(0, last))
            d = data.draw(st.integers(0, dims - 1))
            if kind == "value":
                s.values[t, d] += rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            else:
                s.mask[t, d] = not s.mask[t, d]


def test_threads_racing_for_one_cursor_get_filtering_from_zero():
    model = small_model(dims=2, hidden=4, layers=2, seed=3)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(6, 40, 2))
    values[1::2, :20] = values[0, :20]    # half the walks share a prefix
    mask = rng.random((6, 40, 2)) >= 0.3
    mask[1::2, :20] = mask[0, :20]
    series = [TimeSeries(values=v, mask=m) for v, m in zip(values, mask)]
    origins = [4, 9, 9, 3, 14, 19, 24, 24, 29, 34, 39]
    want = [[reference_forecast(model, s, o, 3) for o in origins] for s in series]
    wrong = []

    def walk(i):
        for _ in range(3):
            for o, beliefs in zip(origins, want[i]):
                got = forecast_from_origin(model, series[i], o, 3).steps
                if not all(np.array_equal(a.mu, b.mu) and np.array_equal(a.sigma, b.sigma)
                           for a, b in zip(got, beliefs, strict=True)):
                    wrong.append((i, o))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
