"""Acceptance suite.

One test per criterion, each printing a PASS line with the measured
numbers next to its stated tolerance (run with `pytest -s` to see them
as they complete).  The heavyweight simulations are shared through
module-scoped fixtures.
"""

import statistics
import time

import numpy as np
import pytest

from dcflow.ct_network import choose_epsilon, run_ct
from dcflow.dt_network import run_dt
from dcflow.flow_gen import FlowType, gen_poisson
from dcflow.harness import ExperimentConfig, run_experiment
from dcflow.metrics import (
    compare_distribution,
    oracle_table,
    summarize,
    test_poisson,
    window_count_correlation,
)
from dcflow.selftest import (
    check_epsilon_rule,
    check_normalizer_oracle,
    check_processor_sharing,
)
from dcflow.sfa_core import expected_occupancy, stationary_pi
from dcflow.topology import TreeSpec, compute_loads, make_route
from dcflow.virtual_bandwidth_net import (
    bandwidth_spec_for,
    departure_process,
    run_emulation,
)


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d} PASS  {detail}")


# ---------------------------------------------------------------- topology --

def chain_tree():
    return TreeSpec(nodes=("r", "a", "g"), root="r", parent={"a": "r", "g": "a"})


def star_tree():
    return TreeSpec(nodes=("r", "a", "b"), root="r", parent={"a": "r", "b": "r"})


# ------------------------------------------------------------- shared runs --

@pytest.fixture(scope="module")
def product_form_run():
    """Two routes over the same two queues, f_v = 0.6, one million events."""
    tree = chain_tree()
    routes = [make_route(tree, "g", "r", route_id=0), make_route(tree, "g", "r", route_id=1)]
    types = (FlowType(0, 1.0, 0.3), FlowType(1, 1.0, 0.3))
    horizon = 1_000_000 / 1.2  # two events per flow
    t0 = time.monotonic()
    stream = gen_poisson(types, horizon, seed=11)
    nb = run_emulation(stream, routes)
    elapsed = time.monotonic() - t0
    return {
        "routes": routes,
        "types": types,
        "horizon": horizon,
        "nb": nb,
        "elapsed": elapsed,
    }


SWEEP_RHOS = (0.5, 0.8, 0.9)


@pytest.fixture(scope="module")
def sweep_runs():
    """Full pipeline on a shared-root tree, two routes, sizes {1, 2},
    C0 = 2, at loads 0.5 / 0.8 / 0.9; the 0.9 point carries over 1e5
    flows and doubles as the adversarial high-load run."""
    tree = star_tree()
    routes = [make_route(tree, "r", "a", route_id=0), make_route(tree, "r", "b", route_id=1)]
    out = {}
    for rho in SWEEP_RHOS:
        types = (
            FlowType(0, 1.0, rho / 4),
            FlowType(0, 2.0, rho / 8),
            FlowType(1, 1.0, rho / 4),
            FlowType(1, 2.0, rho / 8),
        )
        lam = {(t.route, t.size): t.rate for t in types}
        profile = compute_loads(routes, lam)
        horizon = 150_000.0
        stream = gen_poisson(types, horizon, seed=5)
        nb = run_emulation(stream, routes)
        eps = choose_epsilon(profile, 2.0)
        injections, t_arrive = nb.schedule()
        ct = run_ct(injections, routes, types, eps)
        dt = run_dt(ct, routes, types, arrive_times=t_arrive)
        stats = summarize(dt.ledger, 0.2 * horizon, profile, eps)
        out[rho] = {
            "profile": profile,
            "eps": eps,
            "ledger": dt.ledger,
            "stats": stats,
            "n_flows": len(nb),
            "routes": routes,
        }
    return out


# -------------------------------------------------------------- criteria ----

def test_criterion_01_normalizer_oracle_equivalence():
    t0 = time.monotonic()
    result = check_normalizer_oracle(n_specs=200, max_total=6)
    elapsed = time.monotonic() - t0
    assert result.passed, result.detail
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    report(1, f"{result.detail} in {elapsed:.1f}s (< 60s)")


def test_criterion_02_processor_sharing_recovery():
    result = check_processor_sharing(max_total=30)
    assert result.passed, result.detail
    report(2, result.detail)


def test_criterion_03_product_form_match(product_form_run):
    run = product_form_run
    nb = run["nb"]
    assert nb.n_events >= 1_000_000
    assert run["elapsed"] < 120.0, f"simulation took {run['elapsed']:.1f}s"

    spec = bandwidth_spec_for(run["routes"])
    law = stationary_pi(spec, (0.3, 0.3))
    cmp = compare_distribution(nb.state_time, law, support_cap=20)
    assert not cmp.truncation_warning
    assert cmp.tv_distance <= 0.02, f"TV = {cmp.tv_distance:.4f}"

    want = expected_occupancy(spec, (0.3, 0.3))
    for j in range(2):
        rel = abs(nb.occupancy_time_avg[j] - want[j]) / want[j]
        assert rel <= 0.05, f"occupancy class {j}: {rel:.3%}"
    report(
        3,
        f"TV={cmp.tv_distance:.4f} (<=0.02), occupancy within "
        f"{max(abs(nb.occupancy_time_avg[j] - want[j]) / want[j] for j in range(2)):.2%} "
        f"(<=5%), {nb.n_events} events in {run['elapsed']:.1f}s (< 120s)",
    )


def test_criterion_04_poisson_departures(product_form_run):
    run = product_form_run
    nb = run["nb"]
    burn = 0.2 * run["horizon"]
    reports = []
    for ti, rate in ((0, 0.3), (1, 0.3)):
        deps = departure_process(nb, ti, burn_in=burn)
        assert len(deps) >= 100_000
        rep = test_poisson(deps, rate=rate)
        assert rep.conclusive
        assert 0.95 <= rep.cv2 <= 1.05, f"type {ti} cv2 = {rep.cv2:.4f}"
        assert abs(rep.mean_ratio - 1.0) <= 0.02, f"type {ti} mean ratio {rep.mean_ratio:.4f}"
        reports.append(rep)
    corr = window_count_correlation(
        departure_process(nb, 0, burn_in=burn), departure_process(nb, 1, burn_in=burn)
    )
    assert abs(corr) <= 0.05, f"cross-type correlation {corr:.4f}"
    report(
        4,
        f"cv2={reports[0].cv2:.3f}/{reports[1].cv2:.3f} (in [0.95,1.05]), "
        f"mean ratio {reports[0].mean_ratio:.4f}/{reports[1].mean_ratio:.4f} (2%), "
        f"|corr|={abs(corr):.3f} (<=0.05), n>=1e5 per type",
    )


def test_criterion_05_waiting_delay_law_and_bound():
    tree = chain_tree()
    route = make_route(tree, "g", "r", route_id=0)
    results = []
    for rho in (0.3, 0.5, 0.7, 0.8):
        for x in (1.0, 2.0):
            lam_ = rho / x
            types = (FlowType(0, x, lam_),)
            n_target = 30_000 if rho < 0.8 else 60_000
            horizon = n_target / lam_
            stream = gen_poisson(types, horizon, seed=map_seed(rho, x))
            nb = run_emulation(stream, [route])
            burn = 0.2 * horizon
            waits = (nb.t_inject - nb.t_arrive)[nb.t_enter >= burn]
            mean = statistics.mean(waits.tolist())
            bound = x * route.hop_count / (1.0 - rho)
            assert mean <= bound * 1.05, f"rho={rho} x={x}: {mean:.3f} > {bound:.3f}"
            results.append((rho, x, mean, bound))
            if rho == 0.5 and x == 1.0:
                assert abs(mean - 4.0) / 4.0 <= 0.05, f"mean {mean:.3f} vs 4.0"
    anchor = next(m for r, x, m, _ in results if r == 0.5 and x == 1.0)
    report(
        5,
        f"anchor mean={anchor:.3f} (4.0 +-5%); all {len(results)} grid points "
        "within (1+5%) of the waiting bound",
    )


def map_seed(rho: float, x: float) -> int:
    return int(rho * 100) * 10 + int(x)


def test_criterion_06_reference_network_delay_law():
    tree = chain_tree()
    one_hop = make_route(tree, "a", "r", route_id=0)
    two_hop = make_route(tree, "g", "r", route_id=0)
    worst = 0.0
    for route in (one_hop, two_hop):
        for f_target in (0.3, 0.5, 0.7):
            types = (FlowType(0, 1.0, f_target),)
            profile = compute_loads([route], {(0, 1.0): f_target})
            eps = choose_epsilon(profile, 2.0, override=0.25)  # x_eps exactly 1.0
            assert eps.f_eps[route.queue_path[0]] == pytest.approx(f_target)
            horizon = 120_000 / f_target
            stream = gen_poisson(types, horizon, seed=int(f_target * 100) + route.hop_count)
            ct = run_ct(stream.events, [route], types, eps)
            burn = 0.2 * horizon
            hops = ct.hop_records()
            sample = (hops.delta[hops.offsets[1:] - 1] - ct.t_inject)[ct.t_inject >= burn]
            assert len(sample) >= 90_000
            oracle = oracle_table(profile, eps)[(0, 1.0)].oracle_ds
            rel = abs(sample.mean() - oracle) / oracle
            worst = max(worst, rel)
            assert rel <= 0.05, f"hops={route.hop_count} f={f_target}: off by {rel:.2%}"
    report(6, f"six load points, worst deviation {worst:.2%} (<=5%), ~1e5 flows each")


def test_criterion_07_emulation_invariants(sweep_runs):
    adversarial = sweep_runs[0.9]
    assert adversarial["n_flows"] >= 100_000
    # the engines raise on any violation; re-verify from the recorded
    # ledgers' hop trails as exact slot-integer comparisons, independent
    # of the engine, on every flow-hop at once
    checked = 0
    for rho in SWEEP_RHOS:
        run = sweep_runs[rho]
        ledger = run["ledger"]
        ct = ledger.ct
        hops = ct.hop_records()
        offsets = hops.offsets
        # the ledger's rows hold every flow of the reference run once
        assert np.array_equal(np.sort(ledger.flow), np.arange(len(ct.uid)))
        assert np.array_equal(ct.uid[ledger.flow], ledger.uid)
        d_slot = hops.delta_slot
        assert np.all(d_slot <= ct.slot(hops.delta_key))
        # a flow arrives downstream in the slot it departs upstream
        onward = np.ones(len(d_slot), dtype=bool)
        onward[offsets[:-1]] = False
        assert np.all(d_slot[:-1][onward[1:]] <= ct.slot(hops.tau_key)[onward])
        # and the ledger's D_S reads each flow's last departure slot
        assert np.array_equal(ct.last_slot, d_slot[offsets[1:] - 1])
        checked += len(d_slot)
    # no upward backlog trend at the bottleneck of the adversarial run:
    # compare time-average occupancy between the two halves.  Every flow
    # is present at the shared root queue, its first, from its injection
    # to the end of its departure slot there; at one instant departures
    # count first
    ledger = adversarial["ledger"]
    hops = ledger.ct.hop_records()
    first = hops.offsets[ledger.flow]
    epsv = adversarial["eps"].epsilon
    leave = hops.delta_slot[first] * epsv
    at = np.concatenate((ledger.t_inject, leave))
    step = np.repeat([1, -1], len(ledger))
    order = np.lexsort((step, at))
    at, step = at[order], step[order]
    half = at[-1] / 2
    since = np.concatenate(([0.0], at[:-1]))
    level = np.concatenate(([0], np.cumsum(step)[:-1]))   # flows present since the last mark
    first_half = np.sum(level * np.maximum(0.0, np.minimum(at, half) - np.minimum(since, half)))
    second_half = np.sum(level * np.maximum(0.0, at - np.maximum(since, half)))
    ratio = second_half / first_half
    assert ratio < 2.0, f"backlog grew: second half {ratio:.2f}x the first"
    report(
        7,
        f"0 violations over {checked} flow-hops across loads {SWEEP_RHOS}, "
        f"adversarial 0.9 run has {adversarial['n_flows']} flows (>=1e5), "
        f"bottleneck backlog ratio {ratio:.2f}",
    )


def test_criterion_08_end_to_end_bound_and_trend(sweep_runs):
    d = 2
    worst_ratio = 0.0
    for rho in SWEEP_RHOS:
        for s in sweep_runs[rho]["stats"]:
            assert s.count > 0
            bound = 3 * s.size * d / (1.0 - rho) + 2 * d
            assert s.mean_d <= bound, (
                f"rho={rho} route={s.route} x={s.size}: {s.mean_d:.2f} > {bound:.2f}"
            )
            worst_ratio = max(worst_ratio, s.mean_d / bound)
    # growth trend: every type's mean delay increases with load
    for idx in range(4):
        means = [sweep_runs[rho]["stats"][idx].mean_d for rho in SWEEP_RHOS]
        assert means[0] < means[1] < means[2], f"type {idx}: {means}"
    report(
        8,
        f"all types at all loads within 3xd/(1-rho)+2d (worst ratio "
        f"{worst_ratio:.2f}); mean delay grows with load for every type",
    )


def test_criterion_09_slot_rule_inequalities():
    result = check_epsilon_rule(n_configs=100)
    assert result.passed, result.detail
    report(9, result.detail)


def test_criterion_10_determinism(tmp_path):
    config = ExperimentConfig(
        name="determinism",
        topology_nodes=("r", "a", "b"),
        topology_root="r",
        topology_parent={"a": "r", "b": "r"},
        routes=(("r", "a"), ("r", "b")),
        types=((0, 1.0, 0.25), (0, 2.0, 0.125), (1, 1.0, 0.25), (1, 2.0, 0.125)),
        horizon=5_000.0,
        seed=29,
        sweep=(0.5, 0.8, 0.9),
    )
    a, b = tmp_path / "first", tmp_path / "second"
    run_experiment(config, out_dir=str(a))
    run_experiment(config, out_dir=str(b))
    compared = []
    for i in range(3):
        name = f"point_{i:02d}/ledger.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
        compared.append(name)
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    report(10, f"byte-identical {', '.join(compared)} and summary.csv across two executions")
