import statistics

import numpy as np
import pytest

from dcflow.errors import InternalConsistencyError, StabilityViolationError
from dcflow.flow_gen import ArrivalStream, FlowType, gen_poisson
from dcflow.sfa_core import (
    BandwidthNetworkSpec,
    _evaluator,
    _PhiEvaluator,
    expected_occupancy,
    occupancies_within,
    phi_rate,
)
from dcflow.topology import TreeSpec, make_route
from dcflow.virtual_bandwidth_net import (
    NbState,
    bandwidth_spec_for,
    departure_process,
    run_emulation,
)


def manual_stream(types, events, horizon=1e9):
    return ArrivalStream(horizon=horizon, rng_seed=0, types=tuple(types), events=list(events))


def test_single_flow_unit_resource_departs_at_one(chain_tree):
    route = make_route(chain_tree, "a", "r", route_id=0)  # one queue
    types = (FlowType(0, 1.0, 0.1),)
    stream = manual_stream(types, [(0.0, 0, 0)])
    nb = run_emulation(stream, [route])
    assert nb.injections[0] == pytest.approx(1.0)


def test_two_flows_shared_resource_both_depart_at_two(star_tree):
    # two classes whose routes share one queue; each gets half the rate
    r0 = make_route(star_tree, "a", "r", route_id=0)
    r1 = make_route(star_tree, "a", "r", route_id=1)
    types = (FlowType(0, 1.0, 0.1), FlowType(1, 1.0, 0.1))
    stream = manual_stream(types, [(0.0, 0, 0), (0.0, 1, 1)])
    nb = run_emulation(stream, [r0, r1])
    assert nb.injections[0] == pytest.approx(2.0)
    assert nb.injections[1] == pytest.approx(2.0)
    # tie resolved by uid: flow 0 recorded first
    assert [uid for _, uid in nb.departures_by_type[0]] == [0]
    assert [uid for _, uid in nb.departures_by_type[1]] == [1]


def test_lone_flow_two_hop_route_departs_at_two(two_hop_route):
    # a single flow on a 2-queue route is allocated rate 1/2
    types = (FlowType(0, 1.0, 0.1),)
    stream = manual_stream(types, [(5.0, 0, 0)])
    nb = run_emulation(stream, [two_hop_route])
    assert nb.injections[0] == pytest.approx(7.0)
    assert nb.waiting_delay(0) == pytest.approx(2.0)


def test_zero_size_limit(two_hop_route):
    types = (FlowType(0, 1e-12, 0.1),)
    stream = manual_stream(types, [(1.0, 0, 0)])
    nb = run_emulation(stream, [two_hop_route])
    assert nb.waiting_delay(0) <= 1e-10


def test_next_departure_closed_form():
    # one class over four unit resources: allocated rate 1/4
    spec = BandwidthNetworkSpec.unit(4, [(0, 1, 2, 3)])
    state = NbState(spec)
    state.apply_arrival(0.0, 0, 0, 1.0)
    state.advance(2.0)  # served 0.5 at rate 1/4
    t, j, uid = state.next_departure()
    assert t == pytest.approx(4.0)  # clock + remaining 0.5 / 0.25


def test_next_departure_equal_sharing_within_class():
    # one class, one unit resource: phi = 1 shared between two flows
    spec = BandwidthNetworkSpec.unit(1, [(0,)])
    state = NbState(spec)
    state.apply_arrival(0.0, 0, 0, 2.0)
    state.advance(1.0)                    # flow 0 has remaining 1
    state.apply_arrival(1.0, 0, 1, 2.0)   # flow 1 remaining 2
    t, j, uid = state.next_departure()
    assert uid == 0
    assert t == pytest.approx(3.0)  # remaining 1 at per-flow rate 1/2


def test_next_departure_tie_breaks_by_uid():
    spec = BandwidthNetworkSpec.unit(1, [(0,)])
    state = NbState(spec)
    state.apply_arrival(0.0, 0, 5, 1.0)
    state.apply_arrival(0.0, 0, 3, 1.0)
    t, j, uid = state.next_departure()
    assert uid == 3
    assert t == pytest.approx(2.0)


def test_arrival_only_increments_occupancy():
    spec = BandwidthNetworkSpec.unit(1, [(0,)])
    state = NbState(spec)
    state.apply_arrival(0.5, 0, 0, 1.0)
    assert state.n == [1]
    assert state.phi[0] == pytest.approx(1.0)


def test_work_conservation_from_event_log(two_hop_route):
    types = (FlowType(0, 1.0, 0.4),)
    stream = gen_poisson(types, 500.0, seed=21)
    spec = bandwidth_spec_for([two_hop_route])
    state = NbState(spec, record_states=False)
    # step the state through the run's events, logging each flow set and
    # per-flow rate, then integrate the rate over each flow's residence
    log: list[tuple[float, frozenset[int], float]] = []
    active: set[int] = set()
    arrivals = list(stream.events)
    while True:
        nd = state.next_departure()
        if arrivals and (nd is None or arrivals[0][0] < nd[0]):
            t, ti, uid = arrivals.pop(0)
            state.apply_arrival(t, ti, uid, 1.0)
            active.add(uid)
        elif nd is not None:
            t, j, uid = nd
            state.apply_departure(t, j, uid)
            active.remove(uid)
        else:
            break
        rate = state.phi[0] / state.n[0] if state.n[0] else 0.0
        log.append((t, frozenset(active), rate))
    served: dict[int, float] = {}
    for (t, flows, rate), (t_next, _, _) in zip(log, log[1:]):
        for u in flows:
            served[u] = served.get(u, 0.0) + rate * (t_next - t)
    assert len(served) == len(stream.events) > 0
    for uid, work in served.items():
        assert work == pytest.approx(1.0, rel=1e-6)


def test_occupancy_matches_closed_form(two_hop_route):
    types = (FlowType(0, 1.0, 0.5),)
    stream = gen_poisson(types, 40_000.0, seed=22)
    nb = run_emulation(stream, [two_hop_route])
    want = expected_occupancy(nb.spec, (0.5,))[0]
    assert nb.occupancy_time_avg[0] == pytest.approx(want, rel=0.10)


def test_mean_waiting_delay_two_hop_half_load(two_hop_route):
    types = (FlowType(0, 1.0, 0.5),)
    stream = gen_poisson(types, 40_000.0, seed=23)
    nb = run_emulation(stream, [two_hop_route])
    burn = 8_000.0
    waits = [nb.waiting_delay(u) for u, t in nb.enter_times.items()
             if t >= burn and u in nb.injections]
    assert statistics.mean(waits) == pytest.approx(4.0, rel=0.05)


def test_wait_equals_sojourn(two_hop_route):
    types = (FlowType(0, 1.0, 0.3),)
    stream = gen_poisson(types, 500.0, seed=24)
    nb = run_emulation(stream, [two_hop_route])
    for uid, t_out in nb.injections.items():
        assert nb.waiting_delay(uid) == t_out - nb.enter_times[uid]


def test_departure_process_empty_run(two_hop_route):
    types = (FlowType(0, 1.0, 0.0),)
    stream = manual_stream(types, [])
    nb = run_emulation(stream, [two_hop_route])
    assert departure_process(nb, 0) == []


def test_departure_process_filters(two_hop_route):
    types = (FlowType(0, 1.0, 0.3),)
    stream = gen_poisson(types, 2_000.0, seed=25)
    nb = run_emulation(stream, [two_hop_route])
    after = departure_process(nb, 0, burn_in=500.0)
    assert all(t >= 500.0 for t in after)
    assert len(after) < len(nb.departures_by_type[0])


def test_inadmissible_load_refused(two_hop_route):
    types = (FlowType(0, 1.0, 1.1),)
    stream = gen_poisson(types, 10.0, seed=26)
    with pytest.raises(StabilityViolationError):
        run_emulation(stream, [two_hop_route])


def test_flow_entering_before_its_arrival_is_refused(two_hop_route):
    # a regularizer that emitted a flow before its external arrival
    types = (FlowType(0, 1.0, 0.1),)
    stream = manual_stream(types, [(1.0, 0, 0), (2.0, 0, 1)])
    stream.external_times[1] = 2.5
    with pytest.raises(InternalConsistencyError, match="flow 1 entered"):
        run_emulation(stream, [two_hop_route])


def test_bandwidth_spec_mapping(star_tree):
    r0 = make_route(star_tree, "a", "b", route_id=0)   # 3 queues
    r1 = make_route(star_tree, "r", "b", route_id=1)   # 2 queues, both shared with r0
    spec = bandwidth_spec_for([r1, r0])
    assert spec.n_routes == 2     # one class per route, indexed by route id
    assert spec.n_resources == 3  # a/up, r/down, b/down
    assert len(spec.route_resources[0]) == 3
    assert set(spec.route_resources[1]) < set(spec.route_resources[0])
    with pytest.raises(ValueError):
        bandwidth_spec_for([r1])  # ids must be 0 .. n-1


def per_type_spec(routes, types):
    """One class per type, each consuming its route's queues."""
    by_route = bandwidth_spec_for(routes)
    return BandwidthNetworkSpec.unit(
        by_route.n_resources, [by_route.route_resources[t.route] for t in types]
    )


STAR = TreeSpec(nodes=("r", "a", "b"), root="r", parent={"a": "r", "b": "r"})
TREE = TreeSpec(nodes=("r", "a1", "a2", "h1", "h2", "h3", "h4"), root="r",
                parent={"a1": "r", "a2": "r", "h1": "a1", "h2": "a1", "h3": "a2", "h4": "a2"})
LUMPING_CASES = {
    # two routes sharing r/down, sizes {1, 2} on each
    "star": (STAR, (("r", "a"), ("r", "b")), ((0, 1.0), (0, 2.0), (1, 1.0), (1, 2.0)), 8),
    # routes 0 and 1 share three queues, routes 0 and 2 share h1/up
    "tree": (TREE, (("h1", "h3"), ("h2", "h4"), ("h1", "h2")),
             ((0, 1.0), (0, 2.0), (1, 1.0), (2, 0.5), (2, 2.0)), 6),
}


@pytest.mark.parametrize("case", sorted(LUMPING_CASES))
def test_route_classes_lump_type_classes_exactly(case):
    # classes with identical resources lump: a type-j flow on route r gets
    # phi_j(n) / n_j = Phi_r(N - e_r) / (N_r Phi_r(N)) at every occupancy
    tree, pairs, sizes, cap = LUMPING_CASES[case]
    routes = [make_route(tree, s, d, route_id=i) for i, (s, d) in enumerate(pairs)]
    types = tuple(FlowType(j, x, 0.1) for j, x in sizes)
    by_route = bandwidth_spec_for(routes)
    by_type = per_type_spec(routes, types)
    checked = 0
    for n in occupancies_within(len(types), cap):
        totals = [0] * len(routes)
        for t, nj in zip(types, n):
            totals[t.route] += nj
        per_type = phi_rate(by_type, n, exact=True).phi
        per_route = phi_rate(by_route, tuple(totals), exact=True).phi
        for t, nj, phi_j in zip(types, n, per_type):
            if nj:
                assert phi_j / nj == per_route[t.route] / totals[t.route], (n, t)
                checked += 1
    assert checked > 1000


def test_route_classes_drive_mixed_sizes_like_type_classes(star_tree):
    routes = [make_route(star_tree, "r", "a", route_id=0),
              make_route(star_tree, "r", "b", route_id=1)]
    types = (FlowType(0, 1.0, 0.15), FlowType(0, 2.0, 0.075),
             FlowType(1, 1.0, 0.15), FlowType(1, 2.0, 0.075))
    stream = gen_poisson(types, 3_000.0, seed=27)

    def departures(spec, class_of):
        state = NbState(spec, record_states=False)
        arrivals = list(stream.events)
        out, i = [], 0
        while True:
            nd = state.next_departure()
            if i < len(arrivals) and (nd is None or arrivals[i][0] < nd[0]):
                t, ti, uid = arrivals[i]
                i += 1
                state.apply_arrival(t, class_of[ti], uid, types[ti].size)
            elif nd is not None:
                t, j, uid = nd
                state.apply_departure(t, j, uid)
                out.append((uid, t))
            else:
                return out

    want = departures(per_type_spec(routes, types), list(range(len(types))))
    got = departures(bandwidth_spec_for(routes), [t.route for t in types])
    assert len(got) == len(stream.events) > 1000
    assert [uid for uid, _ in got] == [uid for uid, _ in want]
    for (_, t_got), (_, t_want) in zip(got, want):
        assert abs(t_got - t_want) <= 1e-9 * t_want
    # run_emulation uses the route classes and still reports per type
    nb = run_emulation(stream, routes, record_states=False)
    assert nb.injections == dict(got)
    type_of = {uid: ti for _, ti, uid in stream.events}
    assert nb.type_of == type_of
    assert [[uid for _, uid in deps] for deps in nb.departures_by_type] == [
        [uid for uid, _ in got if type_of[uid] == ti] for ti in range(len(types))
    ]
    # four types on two routes: the normalizer memo is 2-D, one axis per route
    memo = _evaluator(bandwidth_spec_for(routes), exact=False)._memo
    assert memo and {len(n) for n in memo} == {len(routes)}


@pytest.fixture(scope="module")
def tree5hop_far():
    """Evaluator of the two 5-queue tree routes filled up to (600, 600),
    past where a float Phi overflows.  It is private, so its 361k-entry
    memo goes with the module."""
    routes = [make_route(TREE, "h1", "h3", route_id=0), make_route(TREE, "h2", "h4", route_id=1)]
    ev = _PhiEvaluator(bandwidth_spec_for(routes), exact=False)
    ev.rates((600, 600))
    return ev


def test_far_occupancy_rates_stay_symmetric(tree5hop_far):
    x = tree5hop_far.rates((600, 600))
    assert 0.49 < x[0] < 0.5
    assert x[0] == pytest.approx(x[1], rel=1e-15, abs=0.0)


def test_far_occupancy_rates_positive_and_feasible(tree5hop_far):
    spec = tree5hop_far.spec
    memo = tree5hop_far._memo
    n = np.array(list(memo))
    x = np.array([rates for rates, _ in memo.values()])
    assert len(n) == 601 * 601
    # every active route gets bandwidth, every empty one none
    assert np.array_equal(x > 0.0, n > 0)
    uses = np.array([[l in res for res in spec.route_resources] for l in range(spec.n_resources)])
    assert (x @ uses.T).max() <= 1.0 + 1e-12


class _OverAllocating:
    """Gives each active route rate 1 until two flows are present, then
    rate 2, which no unit resource can carry."""

    def rates(self, n):
        scale = 2.0 if sum(n) >= 2 else 1.0
        return tuple(scale if nj else 0.0 for nj in n)


def test_infeasible_allocation_names_its_resource(two_hop_route, monkeypatch):
    # the first occupancy is feasible and checked once; the second, a new
    # occupancy, must be checked too
    monkeypatch.setattr("dcflow.virtual_bandwidth_net._evaluator",
                        lambda spec, exact: _OverAllocating())
    types = (FlowType(0, 1.0, 0.1),)
    stream = manual_stream(types, [(0.0, 0, 0), (0.25, 0, 1)])
    with pytest.raises(InternalConsistencyError,
                       match=r"allocation violates capacity of resource 0: 2\.0"):
        run_emulation(stream, [two_hop_route])
