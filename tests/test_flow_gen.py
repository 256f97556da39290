import math

import numpy as np
import pytest

from dcflow.errors import UnstableRegularizerError
from dcflow.flow_gen import (
    ArrivalStream,
    FlowType,
    gen_poisson,
    regularize,
)


def test_zero_rate_gives_empty_stream():
    stream = gen_poisson([FlowType(0, 1.0, 0.0)], horizon=100.0, seed=1)
    assert stream.events == []


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
    assert a.events == b.events
    c = gen_poisson(types, 1000.0, seed=10)
    assert a.events != c.events


def test_adding_a_type_keeps_other_substreams():
    t0 = FlowType(0, 1.0, 0.5)
    t1 = FlowType(1, 2.0, 0.25)
    solo = gen_poisson([t0], 1000.0, seed=4)
    both = gen_poisson([t0, t1], 1000.0, seed=4)
    solo_times = [t for t, ti, _ in solo.events]
    both_times = [t for t, ti, _ in both.events if ti == 0]
    assert solo_times == both_times


def test_times_sorted_uids_sequential():
    types = [FlowType(0, 1.0, 1.0), FlowType(1, 1.0, 1.0)]
    stream = gen_poisson(types, 5000.0, seed=5)
    times = [t for t, _, _ in stream.events]
    uids = [u for _, _, u in stream.events]
    assert times == sorted(times)
    assert uids == list(range(len(uids)))


def test_interarrival_moments():
    stream = gen_poisson([FlowType(0, 1.0, 1.0)], 1_000_000.0, seed=6)
    gaps = np.diff([t for t, _, _ in stream.events])
    assert abs(gaps.mean() - 1.0) < 0.01
    cv2 = gaps.var() / gaps.mean() ** 2
    assert abs(cv2 - 1.0) < 0.05


def test_merged_dispersion():
    types = [FlowType(0, 1.0, 0.7), FlowType(1, 1.0, 0.3)]
    stream = gen_poisson(types, 200_000.0, seed=7)
    times = np.array([t for t, _, _ in stream.events])
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
    assert out.events
    assert all(uid < 0 for _, _, uid in out.events)
    assert abs(len(out.events) - 0.4 * 10_000) <= 3 * math.sqrt(0.4 * 10_000)


def test_regularizer_preserves_fifo_and_rate():
    stream = gen_poisson([FlowType(0, 1.0, 0.5)], 100_000.0, seed=8)
    out = regularize(stream, [0.7])
    real = [(t, uid) for t, _, uid in out.events if uid >= 0]
    # FIFO: real flows emitted in uid (arrival) order
    assert [uid for _, uid in real] == sorted(uid for _, uid in real)
    # every real flow emitted no earlier than it arrived
    for t_emit, uid in real:
        assert t_emit >= out.external_times[uid]
    # long-run real rate tracks the arrival rate
    assert len(real) >= 0.95 * len(stream.events)
    # total emissions at the regularizer rate
    assert abs(len(out.events) - 0.7 * 100_000) <= 4 * math.sqrt(0.7 * 100_000)


def test_regularized_output_is_poisson_for_periodic_input():
    # deterministic arrivals, period 2; emissions must still look exponential
    t0 = FlowType(0, 1.0, 0.5)
    events = [(2.0 * (k + 1), 0, k) for k in range(40_000)]
    stream = ArrivalStream(horizon=2.0 * 40_001, rng_seed=13, types=(t0,), events=events)
    out = regularize(stream, [0.8])
    times = np.array([t for t, _, _ in out.events])
    gaps = np.diff(times)
    # Kolmogorov-Smirnov distance against Exp(0.8)
    n = len(gaps)
    sorted_gaps = np.sort(gaps)
    cdf = 1.0 - np.exp(-0.8 * sorted_gaps)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    ks = max(np.abs(emp_hi - cdf).max(), np.abs(emp_lo - cdf).max())
    assert ks * math.sqrt(n) < 1.95  # ~alpha 0.001

