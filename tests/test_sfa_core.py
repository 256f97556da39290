import math
from fractions import Fraction

import numpy as np
import pytest

from dcflow import sfa_core
from dcflow.ct_network import choose_epsilon
from dcflow.errors import EnumerationLimitError, StabilityViolationError
from dcflow.metrics import oracle_table
from dcflow.selftest import random_admissible_network, random_spec
from dcflow.sfa_core import (
    BandwidthNetworkSpec,
    expected_occupancy,
    occupancies_within,
    phi_big,
    phi_big_bruteforce,
    phi_rate,
    stationary_pi,
)
from dcflow.topology import compute_loads, make_route
from dcflow.virtual_bandwidth_net import bandwidth_spec_for

CHAIN2 = BandwidthNetworkSpec(2, ((0, 1),))          # one route over two resources
SHARED = BandwidthNetworkSpec(1, ((0,), (0,)))       # two routes, one resource
MM1 = BandwidthNetworkSpec(1, ((0,),))


def test_phi_at_zero_is_one():
    for spec in (CHAIN2, SHARED, MM1):
        assert phi_big(spec, (0,) * spec.n_routes) == 1.0


def test_phi_negative_component_is_zero():
    assert phi_big(SHARED, (-1, 2)) == 0.0
    assert phi_big(SHARED, (-1, 2), exact=True) == 0


def test_phi_chain_counts_split_points():
    for n in range(12):
        assert phi_big(CHAIN2, (n,)) == pytest.approx(n + 1)


def test_phi_shared_is_binomial():
    for n1 in range(8):
        for n2 in range(8):
            assert phi_big(SHARED, (n1, n2)) == pytest.approx(math.comb(n1 + n2, n1))


def test_rate_chain():
    for n in range(1, 10):
        phi = phi_rate(CHAIN2, (n,))
        assert phi[0] == pytest.approx(n / (n + 1))


def test_rate_processor_sharing_exact():
    for n1 in range(13):
        for n2 in range(13):
            if n1 + n2 == 0:
                continue
            phi = phi_rate(SHARED, (n1, n2), exact=True)
            assert phi[0] == Fraction(n1, n1 + n2)
            assert phi[1] == Fraction(n2, n1 + n2)


def test_rate_zero_for_empty_route():
    phi = phi_rate(SHARED, (0, 3))
    assert phi[0] == 0.0
    assert phi[1] == pytest.approx(1.0)


def test_phi_matches_bruteforce_on_random_specs():
    rng = np.random.Generator(np.random.PCG64(99))
    for _ in range(30):
        spec = random_spec(rng)
        for n in occupancies_within(spec.n_routes, 4):
            want = phi_big_bruteforce(spec, n)
            got = phi_big(spec, n)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            assert phi_big(spec, n, exact=True) == phi_big_bruteforce(spec, n, exact=True)


def test_phi_matches_bruteforce_on_tree_specs():
    # the specs the simulator builds: the queue paths of routes on a tree
    rng = np.random.Generator(np.random.PCG64(5))
    checked = 0
    for _ in range(40):
        profile, _ = random_admissible_network(rng)
        spec = bandwidth_spec_for(list(profile.routes.values()))
        for n in occupancies_within(spec.n_routes, 3):
            assert phi_big(spec, n, exact=True) == phi_big_bruteforce(spec, n, exact=True), (spec, n)
            checked += 1
    assert checked > 300


def test_allocation_respects_capacities():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(60):
        spec = random_spec(rng)
        for n in occupancies_within(spec.n_routes, 6):
            phi = phi_rate(spec, n)
            # every occupied route gets bandwidth, every empty one none
            assert all(x > 0.0 for x, nj in zip(phi, n) if nj), (spec, n)
            assert all(x == 0.0 for x, nj in zip(phi, n) if not nj), (spec, n)
            # the routes sharing a resource use at most its unit capacity
            for l in range(spec.n_resources):
                assert sum(phi[j] for j in spec.routes_using(l)) <= 1.0 + 1e-9, (spec, n, l)


def test_per_route_rate_never_exceeds_capacity_ratio():
    # every resource has capacity 1 and every route consumes 1 of it,
    # so the capacity ratio bounding a route's rate is 1
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(20):
        spec = random_spec(rng)
        for n in occupancies_within(spec.n_routes, 3):
            phi = phi_rate(spec, n)
            for j in range(spec.n_routes):
                assert spec.route_resources[j], (spec, j)
                assert 0.0 <= phi[j] <= 1.0 + 1e-9, (spec, n, j)


def test_normalizer_monotone_on_unit_specs():
    for spec in (CHAIN2, SHARED, MM1):
        for n in occupancies_within(spec.n_routes, 8):
            for j in range(spec.n_routes):
                if n[j] == 0:
                    continue
                m = list(n)
                m[j] -= 1
                assert phi_big(spec, n) >= phi_big(spec, tuple(m)) - 1e-12


def test_enumeration_budget_error(monkeypatch):
    monkeypatch.setattr(sfa_core, "_EVALUATORS", {})
    monkeypatch.setattr(sfa_core, "MAX_MEMO_ENTRIES", 5)
    assert phi_big(MM1, (4,)) == 1.0  # five entries: 0 .. 4
    with pytest.raises(EnumerationLimitError, match=r"1 routes .* 5 entries at occupancy \(6,\)"):
        phi_big(MM1, (6,))


def test_stationary_pi_mm1():
    law = stationary_pi(MM1, (0.5,))
    for n in range(10):
        assert law.pi((n,)) == pytest.approx(0.5 * 0.5**n)
    assert law.pi((0,)) == pytest.approx(0.5)


def test_stationary_pi_truncated_mass_is_geometric():
    law = stationary_pi(MM1, (0.5,))
    total = sum(law.pi((n,)) for n in range(41))
    assert abs(total - (1 - 0.5**41)) < 1e-9


def test_stationary_pi_no_traffic_concentrates_at_zero():
    law = stationary_pi(MM1, (0.0,))
    assert law.pi((0,)) == pytest.approx(1.0)
    assert law.pi((1,)) == 0.0


def test_stationary_pi_two_routes_shared():
    law = stationary_pi(SHARED, (0.25, 0.25))
    for n1, n2 in [(0, 0), (1, 0), (2, 1), (3, 3)]:
        want = 0.5 * math.comb(n1 + n2, n1) * 0.25 ** (n1 + n2)
        assert law.pi((n1, n2)) == pytest.approx(want)


def test_stationary_pi_far_tail_matches_log_closed_form(monkeypatch):
    # Phi(600, 600) = C(1200, 600) ~ 1e360 overflows a float, pi does not
    monkeypatch.setattr(sfa_core, "_EVALUATORS", {})
    law = stationary_pi(SHARED, (0.45, 0.45))
    log_want = (math.lgamma(1201) - 2 * math.lgamma(601) + 1200 * math.log(0.45)
                + math.log(0.1))
    got = law.pi((600, 600))
    assert got > 0.0
    assert math.log(got) == pytest.approx(log_want, abs=1e-9)


def test_stationary_pi_rejects_overload():
    with pytest.raises(StabilityViolationError):
        stationary_pi(MM1, (1.0,))
    with pytest.raises(StabilityViolationError):
        stationary_pi(SHARED, (0.6, 0.5))


def test_expected_occupancy_forms():
    assert expected_occupancy(MM1, (0.5,))[0] == pytest.approx(1.0)
    for d in (1, 2, 4):
        spec = BandwidthNetworkSpec(d, (tuple(range(d)),))
        for a in (0.1, 0.5, 0.8):
            assert expected_occupancy(spec, (a,))[0] == pytest.approx(d * a / (1 - a))
    assert expected_occupancy(MM1, (0.0,))[0] == 0.0


def test_expected_flow_delay(chain_tree):
    # the virtual network's mean sojourn, the waiting oracle of `oracle_table`
    def waiting_oracle(profile, j, x):
        return oracle_table(profile, choose_epsilon(profile, 2.0))[(j, x)].oracle_dw

    route = make_route(chain_tree, "g", "r", route_id=0)
    profile = compute_loads([route], {(0, 1.0): 0.5})
    assert waiting_oracle(profile, 0, 1.0) == pytest.approx(4.0)

    light = compute_loads([route], {(0, 3.0): 1e-9})
    assert waiting_oracle(light, 0, 3.0) == pytest.approx(3.0 * 2, rel=1e-6)

    # never exceeds the route-level bound x*d/(1-rho)
    for lam_ in (0.1, 0.5, 0.9):
        p = compute_loads([route], {(0, 1.0): lam_})
        val = waiting_oracle(p, 0, 1.0)
        assert val <= 1.0 * 2 / (1 - p.rho[0]) + 1e-12


def test_spec_validation():
    with pytest.raises(ValueError, match="route 0 uses no resource"):
        BandwidthNetworkSpec(1, ((),))
    with pytest.raises(ValueError, match="route 0 lists a resource twice"):
        BandwidthNetworkSpec(1, ((0, 0),))
    with pytest.raises(ValueError, match="route 0 references an unknown resource"):
        BandwidthNetworkSpec(1, ((1,),))
