import numpy as np
import pytest

from dcflow.ct_network import choose_epsilon, run_ct
from dcflow.dt_network import COLUMNS, run_dt
from dcflow.flow_gen import FlowType, gen_poisson
from dcflow.metrics import (
    compare_distribution,
    summarize,
    test_poisson,
    window_count_correlation,
)
from dcflow.sfa_core import BandwidthNetworkSpec, stationary_pi
from dcflow.topology import compute_loads


def small_run(two_hop_route, rate=0.4, horizon=2_000.0, seed=51):
    types = (FlowType(0, 1.0, rate),)
    stream = gen_poisson(types, horizon, seed=seed)
    profile = compute_loads([two_hop_route], {(0, 1.0): rate})
    eps = choose_epsilon(profile, 2.0)
    ct = run_ct(stream.events, [two_hop_route], types, eps)
    dt = run_dt(ct, [two_hop_route], types)
    return profile, eps, dt.ledger


def test_summarize_decomposition_and_oracles(two_hop_route):
    profile, eps, ledger = small_run(two_hop_route)
    stats = summarize(ledger, burn_in=0.0, profile=profile, eps=eps)
    assert len(stats) == 1
    s = stats[0]
    assert s.count == len(ledger)
    assert ledger.d == pytest.approx(ledger.d_w + ledger.d_s)
    # oracle columns are pure functions of the config
    assert s.oracle_dw == pytest.approx(1.0 / (1 - 0.4) * 2)
    assert s.bound_dw == pytest.approx(1.0 * 2 / (1 - 0.4))
    assert s.bound_d == pytest.approx(s.bound_dw + s.bound_ds)
    # bounds dominate oracles when both exist
    assert s.bound_dw >= s.oracle_dw
    assert s.bound_ds >= s.oracle_ds


def test_summarize_burn_in_and_absent_types(two_hop_route):
    profile, eps, ledger = small_run(two_hop_route)
    stats = summarize(ledger, burn_in=10_000.0, profile=profile, eps=eps)
    s = stats[0]
    assert s.count == 0
    assert s.mean_dw is None and s.mean_ds is None and s.mean_d is None
    assert s.within_bounds  # absent stats never fail bounds
    assert s.oracle_dw > 0


def test_summarize_permutation_invariant(two_hop_route):
    profile, eps, ledger = small_run(two_hop_route)
    stats_a = summarize(ledger, 100.0, profile, eps)
    perm = np.random.default_rng(7).permutation(len(ledger))
    assert not np.array_equal(perm, np.arange(len(ledger)))
    shuffled = ledger[perm]
    for name in COLUMNS:
        assert np.array_equal(getattr(shuffled, name), getattr(ledger, name)[perm]), name
    stats_b = summarize(shuffled, 100.0, profile, eps)
    assert stats_a == stats_b


def test_poisson_report_on_synthetic_poisson():
    rng = np.random.Generator(np.random.PCG64(8))
    times = np.cumsum(rng.exponential(0.5, size=200_000))
    rep = test_poisson(times.tolist(), rate=2.0)
    assert rep.conclusive
    assert 0.95 <= rep.cv2 <= 1.05
    assert abs(rep.mean_ratio - 1.0) < 0.02
    assert 0.9 <= rep.dispersion <= 1.1


def test_poisson_report_flags_deterministic_input():
    times = [0.5 * k for k in range(1, 50_001)]
    rep = test_poisson(times, rate=2.0)
    assert rep.cv2 < 0.01  # clearly non-Poisson


def test_poisson_report_inconclusive_when_small():
    rep = test_poisson([1.0, 2.0, 3.0], rate=1.0)
    assert not rep.conclusive
    assert rep.cv2 is None


def test_window_correlation_of_independent_processes():
    rng = np.random.Generator(np.random.PCG64(9))
    a = np.cumsum(rng.exponential(1.0, size=100_000))
    b = np.cumsum(rng.exponential(1.0, size=100_000))
    r = window_count_correlation(a.tolist(), b.tolist())
    assert abs(r) < 0.05


def test_compare_distribution_self_is_zero():
    spec = BandwidthNetworkSpec(1, ((0,), (0,)))
    law = stationary_pi(spec, (0.25, 0.25))
    hist = {}
    for n1 in range(12):
        for n2 in range(12 - n1):
            hist[(n1, n2)] = law.pi((n1, n2))
    cmp = compare_distribution(hist, law, support_cap=11)
    assert cmp.tv_distance == pytest.approx(0.0, abs=1e-12)
    assert not cmp.truncation_warning


def test_compare_distribution_truncation_warning():
    spec = BandwidthNetworkSpec(1, ((0,),))
    law = stationary_pi(spec, (0.9,))
    hist = {(n,): law.pi((n,)) for n in range(3)}
    cmp = compare_distribution(hist, law, support_cap=2)
    assert cmp.truncation_warning  # cap keeps < 80% of the analytic mass
