import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcflow.ct_network import choose_epsilon, lcfs_pr, run_ct, slot_ceil
from dcflow.dt_network import run_dt
from dcflow.errors import ConfigError, StabilityViolationError
from dcflow.flow_gen import FlowType, gen_poisson
from dcflow.metrics import oracle_table
from dcflow.topology import compute_loads, make_route
from columns import as_flows, assert_same_run, per_flow
from lcfs_oracle import lcfs_sweep
from slot_oracle import run_dt_per_slot


def single_queue_profile(chain_tree, rate=0.5, size=1.0):
    route = make_route(chain_tree, "a", "r", route_id=0)
    return compute_loads([route], {(0, size): rate}), [route]


def reference_oracle(eps, profile, j, x):
    """The reference network's mean sojourn, the scheduling oracle of
    `oracle_table`."""
    return oracle_table(profile, eps)[(j, x)].oracle_ds


def test_slot_ceil_basics():
    assert slot_ceil(0.0, 0.5) == 0
    assert slot_ceil(1.0, 0.5) == 2
    assert slot_ceil(1.01, 0.5) == 3
    assert slot_ceil(-1.0, 0.5) == 0
    assert type(slot_ceil(1.0, 0.5)) is int


def test_slot_ceil_guard_band():
    # 0.1 * 3 is slightly above 0.3 in floats; must still land on slot 3
    assert slot_ceil(0.30000000000000004, 0.1) == 3
    assert slot_ceil(0.1 + 0.1 + 0.1, 0.1) == 3
    assert slot_ceil(0.301, 0.1) == 4


def test_choose_epsilon_worked_example(chain_tree):
    profile, _ = single_queue_profile(chain_tree, rate=0.5)
    eps = choose_epsilon(profile, 2.0)
    # gap rule: min{ (1/2) * (0.5 / 0.5), 1 - 0.5 } = 0.5
    assert eps.epsilon == pytest.approx(0.5)
    assert eps.x_eps[1.0] == pytest.approx(1.0)
    assert eps.n_slots[1.0] == 2
    (fe,) = eps.f_eps.values()
    assert fe == pytest.approx(0.5)
    assert 1 - fe >= 0.5 * (1 - 0.5) - 1e-12


def test_rounding_up_sizes(chain_tree):
    profile, _ = single_queue_profile(chain_tree, rate=0.5)
    eps = choose_epsilon(profile, 2.0, override=0.4)
    assert eps.n_slots[1.0] == 3
    assert eps.x_eps[1.0] == pytest.approx(1.2)


def test_epsilon_rejects_bad_inputs(chain_tree):
    profile, _ = single_queue_profile(chain_tree, rate=0.5)
    with pytest.raises(ConfigError):
        choose_epsilon(profile, 1.0)
    heavy, _ = single_queue_profile(chain_tree, rate=1.5)
    with pytest.raises(StabilityViolationError):
        choose_epsilon(heavy, 2.0)


def test_override_must_keep_rounded_load_feasible(chain_tree):
    profile, _ = single_queue_profile(chain_tree, rate=0.9)
    # eps = 0.7 rounds size 1.0 to 1.4, pushing the load to 1.26
    with pytest.raises(StabilityViolationError):
        choose_epsilon(profile, 2.0, override=0.7)


def test_ct_delay_oracle_single_node(chain_tree):
    profile, _ = single_queue_profile(chain_tree, rate=0.5)
    eps = choose_epsilon(profile, 2.0)
    assert reference_oracle(eps, profile, 0, 1.0) == pytest.approx(2.0)


def test_ct_delay_oracle_light_load_and_bound(chain_tree, two_hop_route):
    profile = compute_loads([two_hop_route], {(0, 1.0): 1e-6})
    eps = choose_epsilon(profile, 2.0, override=0.25)
    val = reference_oracle(eps, profile, 0, 1.0)
    assert val == pytest.approx(2 * 1.0, rel=1e-4)
    # never beyond the load-inflation factor applied to unrounded gaps
    heavy = compute_loads([two_hop_route], {(0, 1.0): 0.7})
    eps2 = choose_epsilon(heavy, 2.0)
    v = reference_oracle(eps2, heavy, 0, 1.0)
    cap = (2.0 / 1.0) * sum(eps2.x_eps[1.0] / (1 - heavy.f[q]) for q in two_hop_route.queue_path)
    assert v <= cap + 1e-12


@pytest.mark.parametrize("t", [-0.3, 2.0 ** 62])
def test_an_injection_off_the_int64_lattice_is_refused(chain_tree, t):
    # lattice keys count slots from 0, and a flow 2**63 slots out has none
    profile, routes = single_queue_profile(chain_tree, rate=0.5)
    eps = choose_epsilon(profile, 2.0)
    assert eps.epsilon == 0.5
    flows = as_flows([(0.0, 0, 0), (0.3, 0, 1), (t, 0, 2)])
    with pytest.raises(ConfigError, match="int64 keys"):
        run_ct(flows, routes, (FlowType(0, 1.0, 0.5),), eps)


def test_lone_flow_hops(two_hop_route):
    types = (FlowType(0, 1.0, 0.1),)
    profile = compute_loads([two_hop_route], {(0, 1.0): 0.1})
    eps = choose_epsilon(profile, 2.0, override=0.5)   # x_eps = 1.0
    ct = run_ct(as_flows([(0.0, 0, 0)]), [two_hop_route], types, eps)
    rec = ct.hop_records()
    assert per_flow(rec, rec.tau) == {0: [0.0, 1.0]}
    assert per_flow(rec, rec.delta) == {0: [1.0, 2.0]}
    assert ct.t_inject.tolist() == [0.0]


def test_preemption_resume(chain_tree):
    route = make_route(chain_tree, "a", "r", route_id=0)
    types = (FlowType(0, 1.0, 0.1),)
    profile = compute_loads([route], {(0, 1.0): 0.1})
    eps = choose_epsilon(profile, 2.0, override=0.5)
    # flow 0 starts at 0; flow 1 lands at 0.6 and preempts (remaining 0.4)
    ct = run_ct(as_flows([(0.0, 0, 0), (0.6, 0, 1)]), [route], types, eps)
    rec = ct.hop_records()
    deltas = per_flow(rec, rec.delta)
    assert deltas[1][0] == pytest.approx(1.6)
    assert deltas[0][0] == pytest.approx(2.0)  # 0.6 + 1.0 + 0.4


def test_simultaneous_events_order(star_tree):
    # a completion at an instant comes before an arrival at it: flow 1
    # lands as flow 0 leaves and does not preempt it
    routes = [make_route(star_tree, "a", "r", route_id=0)]
    types = (FlowType(0, 1.0, 0.1),)
    eps = choose_epsilon(compute_loads(routes, {(0, 1.0): 0.1}), 2.0, override=0.5)
    ct = run_ct(as_flows([(0.0, 0, 0), (1.0, 0, 1)]), routes, types, eps)
    rec = ct.hop_records()
    assert per_flow(rec, rec.delta) == {0: [1.0], 1: [2.0]}

    # equal arrivals at a queue stack in uid order: both flows leave
    # their first queue at 1.0 and meet at r/down, where flow 1, the
    # larger uid, goes on top and preempts flow 0
    routes = [make_route(star_tree, "a", "b", route_id=0), make_route(star_tree, "b", "a", route_id=1)]
    types = (FlowType(0, 1.0, 0.1), FlowType(1, 1.0, 0.1))
    profile = compute_loads(routes, {(0, 1.0): 0.1, (1, 1.0): 0.1})
    eps = choose_epsilon(profile, 2.0, override=0.5)
    ct = run_ct(as_flows([(0.0, 1, 1), (0.0, 0, 0)]), routes, types, eps)
    rec = ct.hop_records()
    assert per_flow(rec, rec.tau) == {0: [0.0, 1.0, 3.0], 1: [0.0, 1.0, 2.0]}
    assert per_flow(rec, rec.delta) == {0: [1.0, 3.0, 4.0], 1: [1.0, 2.0, 3.0]}


def test_equal_arrivals_from_two_queues_stack_by_uid(star_tree):
    # flows 5 and 3 leave a/up and b/up at 1.0 and meet at r/down: flow
    # 5, the larger uid, goes on top in both networks, so the slot
    # engine's tie order reproduces the reference run
    routes = [make_route(star_tree, "a", "b", route_id=0), make_route(star_tree, "b", "a", route_id=1)]
    types = (FlowType(0, 1.0, 0.1), FlowType(1, 0.5, 0.1))
    eps = choose_epsilon(compute_loads(routes, {(0, 1.0): 0.1, (1, 0.5): 0.1}), 2.0,
                         override=0.5)
    ct = run_ct(as_flows([(0.0, 0, 5), (0.5, 1, 3)]), routes, types, eps)
    rec = ct.hop_records()
    assert per_flow(rec, rec.tau) == {5: [0.0, 1.0, 2.0], 3: [0.5, 1.0, 2.5]}
    assert per_flow(rec, rec.delta) == {5: [1.0, 2.0, 3.0], 3: [1.0, 2.5, 3.0]}
    dt = run_dt(ct, routes, types)
    s_slots = per_flow(rec, ct.slot(rec.tau_key))
    d_slots = per_flow(rec, rec.delta_slot)
    at_r_down = {uid: (s_slots[uid][1], d_slots[uid][1]) for uid in (5, 3)}
    assert at_r_down == {5: (2, 4), 3: (2, 5)}
    oracle, _ = run_dt_per_slot(ct, routes, types, eps)
    assert_same_run(dt, oracle)


def test_completion_at_an_arrival_instant_departs(chain_tree):
    # flow 2 finishes its work at a/up at 1.0, the instant flow 1 arrives
    # there from g/up: it departs, and is not preempted with no work left
    routes = [make_route(chain_tree, "g", "r", route_id=0), make_route(chain_tree, "a", "r", route_id=1)]
    types = (FlowType(0, 1.0, 0.1), FlowType(1, 0.5, 0.1))
    eps = choose_epsilon(compute_loads(routes, {(0, 1.0): 0.1, (1, 0.5): 0.1}), 2.0,
                         override=0.5)
    ct = run_ct(as_flows([(0.0, 0, 1), (0.5, 1, 2)]), routes, types, eps)
    rec = ct.hop_records()
    assert per_flow(rec, rec.delta) == {1: [1.0, 2.0], 2: [1.0]}


def test_float_noise_keeps_a_completion_tie(star_tree):
    # three flows of work 0.995 injected together: in exact arithmetic
    # flow 1 finishes at b/down at 3.98, the instant flow 0 arrives there,
    # so it departs first.  Float sums along the two paths would land a
    # unit in the last place apart; on the slot lattice both are 4 slots
    # after the injection, so the tie holds exactly
    routes = [make_route(star_tree, "a", "b", route_id=0)]
    types = (FlowType(0, 0.5, 0.1),)
    eps = choose_epsilon(compute_loads(routes, {(0, 0.5): 0.1}), 2.0, override=0.995)
    ct = run_ct(as_flows([(0.0, 0, uid) for uid in range(3)]), routes, types, eps)
    rec = ct.hop_records()
    taus, deltas = per_flow(rec, rec.tau), per_flow(rec, rec.delta)
    assert taus[0][2] == pytest.approx(3.98, rel=1e-12)
    # departs at the arrival it did not wait for
    assert per_flow(rec, rec.delta_key)[1][2] == per_flow(rec, rec.tau_key)[0][2]
    assert deltas[1][2] == taus[0][2]
    assert deltas[0][2] == pytest.approx(4.975, rel=1e-12)


LCFS_NETWORKS = {
    # one two-hop route over the chain's up-queues
    "chain": ((("g", "r"),), ((0, 1.0, 0.6),)),
    # two routes, one size each, merging at r/down
    "star": ((("a", "b"), ("b", "a")), ((0, 1.0, 0.3), (1, 0.5, 0.6))),
}


def lcfs_network(name, chain_tree, star_tree):
    pairs, specs = LCFS_NETWORKS[name]
    tree = chain_tree if name == "chain" else star_tree
    routes = [make_route(tree, s, d, route_id=i) for i, (s, d) in enumerate(pairs)]
    types = tuple(FlowType(*spec) for spec in specs)
    profile = compute_loads(routes, {(t.route, t.size): t.rate for t in types})
    return routes, types, choose_epsilon(profile, 2.0)


def queue_logs(ct, routes, types, injections):
    """Each queue's (key, "arr" | "dep", uid) events, rebuilt from the
    per-hop lattice keys; at one instant departures come first, then
    arrivals in uid order, as in run_ct."""
    by_id = {r.id: r for r in routes}
    rec = ct.hop_records()
    taus, deltas = per_flow(rec, rec.tau_key), per_flow(rec, rec.delta_key)
    logs = {}
    for _, ti, uid in injections.tolist():
        path = by_id[types[ti].route].queue_path
        for q, tau, delta in zip(path, taus[uid], deltas[uid]):
            logs.setdefault(q, []).extend([(tau, 1, uid), (delta, 0, uid)])
    return {q: [(t, "arr" if k else "dep", uid) for t, k, uid in sorted(log)]
            for q, log in logs.items()}


@pytest.mark.parametrize("network", sorted(LCFS_NETWORKS))
def test_lcfs_pr_sample_path(network, chain_tree, star_tree):
    routes, types, eps = lcfs_network(network, chain_tree, star_tree)
    inj = gen_poisson(types, 2_000.0, seed=31).events
    ct = run_ct(inj, routes, types, eps)
    # replay each queue's log as a pure stack: every departure must pop
    # the most recent arrival among still-present flows
    for q, log in queue_logs(ct, routes, types, inj).items():
        stack = []
        for t, kind, uid in log:
            if kind == "arr":
                stack.append(uid)
            else:
                assert stack and stack[-1] == uid, f"non-LCFS departure at {q}"
                stack.pop()
        assert not stack


@pytest.mark.parametrize("network", sorted(LCFS_NETWORKS))
def test_busy_cycle_identity(network, chain_tree, star_tree):
    # within one busy cycle the opener departs last, after the summed
    # rounded sizes of every flow in the cycle, exactly on the lattice
    routes, types, eps = lcfs_network(network, chain_tree, star_tree)
    inj = gen_poisson(types, 3_000.0, seed=32).events
    ct = run_ct(inj, routes, types, eps)
    slots = {uid: eps.n_slots[types[ti].size] * len(ct.residue) for _, ti, uid in inj.tolist()}
    for q, log in queue_logs(ct, routes, types, inj).items():
        depth = 0
        opener = None
        work = 0
        start = None
        for t, kind, uid in log:
            if kind == "arr":
                if depth == 0:
                    opener, start, work = uid, t, 0
                depth += 1
                work += slots[uid]
            else:
                depth -= 1
                if depth == 0:
                    assert uid == opener
                    assert t == start + work


def test_work_conservation_per_hop(two_hop_route):
    types = (FlowType(0, 1.0, 0.5),)
    profile = compute_loads([two_hop_route], {(0, 1.0): 0.5})
    eps = choose_epsilon(profile, 2.0)
    stream = gen_poisson(types, 1_000.0, seed=33)
    ct = run_ct(stream.events, [two_hop_route], types, eps)
    rec = ct.hop_records()
    assert np.all(rec.delta_key - rec.tau_key >= eps.n_slots[1.0] * len(ct.residue))


def test_ergodic_sojourn_matches_oracle(chain_tree):
    profile, routes = single_queue_profile(chain_tree, rate=0.5)
    types = (FlowType(0, 1.0, 0.5),)
    eps = choose_epsilon(profile, 2.0, override=0.25)
    stream = gen_poisson(types, 40_000.0, seed=34)
    ct = run_ct(stream.events, routes, types, eps)
    burn = 8_000.0
    rec = ct.hop_records()
    soj = (rec.delta[rec.offsets[1:] - 1] - ct.t_inject)[ct.t_inject >= burn]
    want = reference_oracle(eps, profile, 0, 1.0)
    assert soj.mean() == pytest.approx(want, rel=0.08)


def stack_run(arrive, work):
    """Departures of the stack sweep."""
    out = list(work)
    lcfs_sweep(range(len(arrive)), arrive, out)
    return out


def kernel_run(arrive, work):
    """Departures of the closed form."""
    return lcfs_pr(np.array(arrive, dtype=np.int64), np.array(work, dtype=np.int64)).tolist()


@pytest.mark.parametrize("arrive, work, departs", [
    # a completion at an arrival instant departs first
    ([0, 1], [1, 1], [1, 2]),
    # equal arrivals stack in priority order, the later on top
    ([0, 0], [1, 1], [2, 1]),
    # both at once: flow 0 finishes at 2, as flows 1 and 2 arrive
    ([0, 2, 2], [2, 1, 3], [2, 6, 5]),
], ids=["completion-first", "equal-arrivals-stack", "both-at-once"])
def test_lcfs_kernel_tie_cases(arrive, work, departs):
    assert stack_run(arrive, work) == departs
    assert kernel_run(arrive, work) == departs


def priority_order(flows):
    """Flows (arrival, work) in priority order: the sort is stable, so
    equal arrivals keep their drawn order, which stands for uid order."""
    flows = sorted(flows, key=lambda f: f[0])
    return [t for t, _ in flows], [w for _, w in flows]


@pytest.mark.oracle_property
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 4)), min_size=1, max_size=40))
@example([(0, 1), (1, 1)])
@example([(0, 1), (0, 1)])
def test_lcfs_kernel_matches_stack_on_integers(flows):
    # a coarse grid and short works: equal arrivals and completions at
    # an arrival instant are common
    arrive, work = priority_order(flows)
    assert kernel_run(arrive, work) == stack_run(arrive, work)
