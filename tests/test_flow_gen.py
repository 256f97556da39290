import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dcflow.errors import UnstableRegularizerError
from dcflow.flow_gen import (
    FLOW,
    ArrivalStream,
    FlowType,
    _poisson_times,
    _substream,
    flow_array,
    gen_poisson,
    regularize,
    rows,
)
from regularizer_oracle import regularize_loop


def test_zero_rate_gives_empty_stream():
    stream = gen_poisson([FlowType(0, 1.0, 0.0)], horizon=100.0, seed=1)
    assert stream.events.dtype == FLOW and len(stream.events) == 0


def test_count_matches_rate():
    rate, horizon = 2.0, 500_000.0
    stream = gen_poisson([FlowType(0, 1.0, rate)], horizon, seed=3)
    n = len(stream.events)
    expect = rate * horizon
    assert abs(n - expect) <= 3 * math.sqrt(expect)


def test_determinism():
    types = [FlowType(0, 1.0, 0.5), FlowType(1, 2.0, 0.25)]
    a = gen_poisson(types, 1000.0, seed=9)
    b = gen_poisson(types, 1000.0, seed=9)
    assert a.events.tobytes() == b.events.tobytes()
    c = gen_poisson(types, 1000.0, seed=10)
    assert a.events.tobytes() != c.events.tobytes()


def test_adding_a_type_keeps_other_substreams():
    t0 = FlowType(0, 1.0, 0.5)
    t1 = FlowType(1, 2.0, 0.25)
    solo = gen_poisson([t0], 1000.0, seed=4)
    both = gen_poisson([t0, t1], 1000.0, seed=4)
    both_times = both.events["t"][both.events["ti"] == 0]
    assert solo.events["t"].tolist() == both_times.tolist()


def test_times_sorted_uids_sequential():
    types = [FlowType(0, 1.0, 1.0), FlowType(1, 1.0, 1.0)]
    stream = gen_poisson(types, 5000.0, seed=5)
    times = stream.events["t"].tolist()
    assert times == sorted(times)
    assert stream.events["uid"].tolist() == list(range(len(times)))
    assert stream.t_arrive.tolist() == times


def test_interarrival_moments():
    stream = gen_poisson([FlowType(0, 1.0, 1.0)], 1_000_000.0, seed=6)
    gaps = np.diff(stream.events["t"])
    assert abs(gaps.mean() - 1.0) < 0.01
    cv2 = gaps.var() / gaps.mean() ** 2
    assert abs(cv2 - 1.0) < 0.05


def test_merged_dispersion():
    types = [FlowType(0, 1.0, 0.7), FlowType(1, 1.0, 0.3)]
    stream = gen_poisson(types, 200_000.0, seed=7)
    times = stream.events["t"]
    counts, _ = np.histogram(times, bins=10_000)
    dispersion = counts.var() / counts.mean()
    assert 0.95 <= dispersion <= 1.05


def test_duplicate_type_rejected():
    with pytest.raises(ValueError):
        gen_poisson([FlowType(0, 1.0, 0.1), FlowType(0, 1.0, 0.2)], 10.0, seed=0)


def test_regularizer_requires_headroom():
    stream = gen_poisson([FlowType(0, 1.0, 0.5)], 100.0, seed=1)
    with pytest.raises(UnstableRegularizerError):
        regularize(stream, [0.5])


def test_regularizer_empty_input_is_all_dummies():
    stream = gen_poisson([FlowType(0, 1.0, 0.0)], 10_000.0, seed=2)
    out = regularize(stream, [0.4])
    assert len(out.events)
    assert out.events["uid"].tolist() == list(range(-1, -len(out.events) - 1, -1))
    assert abs(len(out.events) - 0.4 * 10_000) <= 3 * math.sqrt(0.4 * 10_000)


def test_regularizer_preserves_fifo_and_rate():
    stream = gen_poisson([FlowType(0, 1.0, 0.5)], 100_000.0, seed=8)
    out = regularize(stream, [0.7])
    is_real = out.events["uid"] >= 0
    real = out.events[is_real]
    # FIFO: real flows emitted in uid (arrival) order
    assert np.all(np.diff(real["uid"]) > 0)
    # every real flow emitted no earlier than it arrived, when it arrived
    assert np.all(real["t"] >= out.t_arrive[is_real])
    assert out.t_arrive[is_real].tolist() == stream.events["t"][real["uid"]].tolist()
    # long-run real rate tracks the arrival rate
    assert len(real) >= 0.95 * len(stream.events)
    # total emissions at the regularizer rate
    assert abs(len(out.events) - 0.7 * 100_000) <= 4 * math.sqrt(0.7 * 100_000)


def test_regularized_output_is_poisson_for_periodic_input():
    # deterministic arrivals, period 2; emissions must still look exponential
    t0 = FlowType(0, 1.0, 0.5)
    events = flow_array(2.0 * np.arange(1, 40_001), 0, np.arange(40_000))
    stream = ArrivalStream(horizon=2.0 * 40_001, rng_seed=13, types=(t0,), events=events,
                           t_arrive=events["t"])
    out = regularize(stream, [0.8])
    gaps = np.diff(out.events["t"])
    # Kolmogorov-Smirnov distance against Exp(0.8)
    n = len(gaps)
    sorted_gaps = np.sort(gaps)
    cdf = 1.0 - np.exp(-0.8 * sorted_gaps)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    ks = max(np.abs(emp_hi - cdf).max(), np.abs(emp_lo - cdf).max())
    assert ks * math.sqrt(n) < 1.95  # ~alpha 0.001



@st.composite
def regularized_streams(draw):
    """Streams with ties the closed-form FIFO must keep: arrivals exactly
    at emission epochs, more arrivals than epochs, a type with no
    arrivals, a zero-rate type; and the emission rates to apply."""
    n_types = draw(st.integers(1, 3))
    rates = draw(st.lists(st.sampled_from((0.0, 0.05, 0.3)), min_size=n_types, max_size=n_types))
    types = tuple(FlowType(k, 1.0, r) for k, r in enumerate(rates))
    reg = [r + draw(st.sampled_from((0.01, 0.2, 1.0))) for r in rates]
    horizon = draw(st.sampled_from((5.0, 20.0, 40.0)))
    seed = draw(st.integers(0, 2**16))
    times, tis = [], []
    for k, ftype in enumerate(types):
        if ftype.rate == 0.0:
            continue
        epochs = _poisson_times(_substream(seed, ftype, salt=1), reg[k], horizon).tolist()
        grid = [horizon * i / 64 for i in range(64)]
        picks = draw(st.lists(st.sampled_from(epochs + grid) if epochs else st.sampled_from(grid),
                              min_size=0, max_size=2 * len(epochs) + 5))
        times += picks
        tis += [k] * len(picks)
    order = np.lexsort((tis, times))
    t = np.array(times, dtype=np.float64)[order]
    events = flow_array(t, np.array(tis, dtype=np.int64)[order], np.arange(len(t)))
    stream = ArrivalStream(horizon=horizon, rng_seed=seed, types=types, events=events,
                           t_arrive=events["t"])
    return stream, reg


@pytest.mark.oracle_property
@settings(max_examples=300, deadline=None)
@given(regularized_streams())
def test_closed_form_regularizer_matches_the_loop(case):
    # the same events, bit for bit, and the same arrival instants
    stream, reg = case
    got, want = regularize(stream, reg), regularize_loop(stream, reg)
    assert got.events.tobytes() == want.events.tobytes()
    assert got.t_arrive.tobytes() == want.t_arrive.tobytes()
    real = got.events["uid"] >= 0
    event(f"a flow still waiting at the horizon: {real.sum() < len(stream.events)}")
    event(f"an arrival at an emission epoch: "
          f"{bool(np.isin(stream.events['t'], got.events['t']).any())}")


def test_rows_cross_chunk_boundaries():
    # the virtual net and the writers read columns through `rows`, so a
    # chunk boundary must drop, repeat and reorder nothing
    t, ti, uid = np.arange(10) * 0.5, np.arange(10) % 3, np.arange(10) - 4
    want = list(zip(t.tolist(), ti.tolist(), uid.tolist()))
    for chunk in (1, 3, 4, 10, 4096):
        assert list(rows((t, ti, uid), chunk=chunk)) == want
    assert list(rows((t[:0], ti[:0]))) == []
