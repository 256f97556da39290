import statistics

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from dcflow.errors import InternalConsistencyError, StabilityViolationError
from dcflow.flow_gen import FLOW, ArrivalStream, FlowType, gen_poisson
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
    bandwidth_spec_for,
    departure_process,
    run_emulation,
    serve,
)
from vnet_oracle import serve_stepwise


def manual_stream(types, events, horizon=1e9):
    """A stream of (t, ti, uid) rows, each flow arriving when it enters."""
    events = np.array(list(events), dtype=FLOW)
    return ArrivalStream(horizon=horizon, rng_seed=0, types=tuple(types), events=events,
                         t_arrive=events["t"].copy())


def columns(events):
    """A `FLOW` array's three columns, as `serve` takes them."""
    return [events[c] for c in ("t", "ti", "uid")]


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
    assert (nb.uid.tolist(), nb.type.tolist()) == ([0, 1], [0, 1])
    assert departure_process(nb, 0) == [nb.injections[0]]
    assert departure_process(nb, 1) == [nb.injections[1]]


def test_lone_flow_two_hop_route_departs_at_two(two_hop_route):
    # a single flow on a 2-queue route is allocated rate 1/2
    types = (FlowType(0, 1.0, 0.1),)
    stream = manual_stream(types, [(5.0, 0, 0)])
    nb = run_emulation(stream, [two_hop_route])
    assert nb.injections[0] == pytest.approx(7.0)
    assert nb.t_inject[0] - nb.t_arrive[0] == pytest.approx(2.0)


def test_zero_size_limit(two_hop_route):
    types = (FlowType(0, 1e-12, 0.1),)
    stream = manual_stream(types, [(1.0, 0, 0)])
    nb = run_emulation(stream, [two_hop_route])
    assert nb.t_inject[0] - nb.t_arrive[0] <= 1e-10


def test_next_departure_closed_form():
    # one flow on a four-queue route is allocated rate 1/4; a flow of size
    # 1 arriving at 0 has 0.5 left at 2 and departs at 2 + 0.5 / 0.25
    route = make_route(TREE, "h1", "a2", route_id=0)
    assert route.hop_count == 4
    nb = run_emulation(manual_stream((FlowType(0, 1.0, 0.1),), [(0.0, 0, 0)]), [route])
    assert nb.injections == {0: pytest.approx(4.0)}


def test_next_departure_equal_sharing_within_class(chain_tree):
    # one route over one queue: phi = 1, shared equally by its flows.
    # Flow 0 has 1 left when flow 1 arrives at 1, so it departs at
    # 1 + 1 / (1/2) = 3; flow 1 then has 1 left at rate 1 and departs at 4
    route = make_route(chain_tree, "a", "r", route_id=0)
    stream = manual_stream((FlowType(0, 2.0, 0.1),), [(0.0, 0, 0), (1.0, 0, 1)])
    nb = run_emulation(stream, [route])
    assert nb.injections == {0: pytest.approx(3.0), 1: pytest.approx(4.0)}


def test_next_departure_tie_breaks_by_uid(chain_tree):
    # equal thresholds: uid 3 is served out first, uid 5 in the same instant
    route = make_route(chain_tree, "a", "r", route_id=0)
    stream = manual_stream((FlowType(0, 1.0, 0.1),), [(0.0, 0, 5), (0.0, 0, 3)])
    nb = run_emulation(stream, [route])
    assert nb.injections == {5: pytest.approx(2.0), 3: pytest.approx(2.0)}
    assert nb.t_inject.tolist() == serve_stepwise(nb.spec, [0], [1.0], *columns(stream.events)).tolist()


def test_arrival_only_increments_occupancy(chain_tree):
    # a lone flow on one queue gets the whole rate from its arrival on
    route = make_route(chain_tree, "a", "r", route_id=0)
    nb = run_emulation(manual_stream((FlowType(0, 1.0, 0.1),), [(0.5, 0, 0)]), [route])
    assert nb.injections == {0: pytest.approx(1.5)}
    assert nb.state_time == {(0,): pytest.approx(0.5), (1,): pytest.approx(1.0)}


def test_work_conservation_from_event_log(two_hop_route):
    # integrate each flow's allocated rate over its stay, with the
    # occupancy read off the enter and inject columns and the rates from
    # the evaluator: every unit-size flow receives exactly its size
    types = (FlowType(0, 1.0, 0.4),)
    stream = gen_poisson(types, 500.0, seed=21)
    nb = run_emulation(stream, [two_hop_route])
    at = np.concatenate((nb.t_enter, nb.t_inject))
    order = np.argsort(at, kind="stable")
    at = at[order]
    held = np.cumsum(np.repeat([1, -1], len(nb))[order])[:-1]   # flows during each gap
    per_flow = np.array([phi_rate(nb.spec, (n,))[0] / n if n else 0.0 for n in held])
    served = np.concatenate(([0.0], np.cumsum(per_flow * np.diff(at))))
    work = (served[np.searchsorted(at, nb.t_inject)] - served[np.searchsorted(at, nb.t_enter)])
    assert len(work) == len(stream.events) > 100
    assert work == pytest.approx(np.ones(len(work)), rel=1e-6)


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
    waits = (nb.t_inject - nb.t_arrive)[nb.t_enter >= burn]
    assert statistics.mean(waits.tolist()) == pytest.approx(4.0, rel=0.05)


def test_wait_equals_sojourn(two_hop_route):
    # with no regularizer a flow enters the virtual net when it arrives,
    # so its wait for injection is its virtual sojourn
    types = (FlowType(0, 1.0, 0.3),)
    stream = gen_poisson(types, 500.0, seed=24)
    nb = run_emulation(stream, [two_hop_route])
    assert nb.t_arrive.tolist() == nb.t_enter.tolist() == stream.events["t"].tolist()
    assert np.all(nb.t_inject > nb.t_enter)


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
    assert len(after) < len(departure_process(nb, 0))
    assert after == sorted(after)


def test_inadmissible_load_refused(two_hop_route):
    types = (FlowType(0, 1.0, 1.1),)
    stream = gen_poisson(types, 10.0, seed=26)
    with pytest.raises(StabilityViolationError):
        run_emulation(stream, [two_hop_route])


def test_flow_entering_before_its_arrival_is_refused(two_hop_route):
    # a regularizer that emitted a flow before its external arrival
    types = (FlowType(0, 1.0, 0.1),)
    stream = manual_stream(types, [(1.0, 0, 0), (2.0, 0, 1)])
    stream.t_arrive[1] = 2.5
    with pytest.raises(InternalConsistencyError, match="flow 1 entered"):
        run_emulation(stream, [two_hop_route])


def test_stream_out_of_time_order_is_refused(two_hop_route):
    types = (FlowType(0, 1.0, 0.1),)
    stream = manual_stream(types, [(1.0, 0, 0), (3.0, 0, 1), (2.0, 0, 2)])
    with pytest.raises(InternalConsistencyError, match=r"at flow 2: 3\.0 -> 2\.0"):
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
    return BandwidthNetworkSpec(
        by_route.n_resources, tuple(by_route.route_resources[t.route] for t in types)
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
        per_type = phi_rate(by_type, n, exact=True)
        per_route = phi_rate(by_route, tuple(totals), exact=True)
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
    sizes = [t.size for t in types]
    flows = columns(stream.events)
    want = serve(per_type_spec(routes, types), range(len(types)), sizes, *flows)
    got = serve(bandwidth_spec_for(routes), [t.route for t in types], sizes, *flows)
    assert len(got) == len(stream.events) > 1000
    # the same departure order, at the same instants up to rounding
    assert np.array_equal(np.lexsort((np.arange(len(got)), got)),
                          np.lexsort((np.arange(len(want)), want)))
    assert np.all(np.abs(got - want) <= 1e-9 * want)
    # run_emulation uses the route classes and still reports per type
    nb = run_emulation(stream, routes)
    assert nb.t_inject.tolist() == got.tolist()
    assert nb.type.tolist() == stream.events["ti"].tolist()
    assert nb.uid.tolist() == stream.events["uid"].tolist()
    for ti in range(len(types)):
        assert departure_process(nb, ti) == sorted(got[nb.type == ti].tolist())
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


NETWORKS = {
    "star": (STAR, (("a", "b"), ("b", "a"), ("r", "a"), ("b", "r"))),
    "tree": (TREE, (("h1", "h3"), ("h2", "h4"), ("h1", "h2"), ("h3", "r"), ("r", "h2"))),
}


@st.composite
def virtual_runs(draw):
    """A random network, flow types and stream, tie-heavy: instants on a
    coarse grid, often equal within and across routes; sizes from a small
    set, so thresholds tie, mixed on one route; dummy flows with negative
    uids, and real flows of a regularized stream that arrived earlier.
    Grids and sizes that are not dyadic leave rounding in the cumulative
    service, which is where the order of simultaneous events shows."""
    tree, pairs = NETWORKS[draw(st.sampled_from(sorted(NETWORKS)))]
    n_routes = draw(st.integers(1, len(pairs)))
    routes = [make_route(tree, s, d, route_id=i) for i, (s, d) in enumerate(pairs[:n_routes])]
    kinds = draw(st.lists(st.tuples(st.integers(0, n_routes - 1),
                                    st.sampled_from((0.5, 1.0, 2.0, 0.1, 0.3, 1 / 3, 2 / 3, 1.7))),
                          min_size=1, max_size=4, unique=True))
    types = tuple(FlowType(j, x, 0.01) for j, x in kinds)
    n = draw(st.integers(1, 30))
    grid = draw(st.sampled_from((0.25, 0.1, 1 / 3)))
    times = sorted(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)))
    uids = draw(st.lists(st.integers(-30, 60), min_size=n, max_size=n, unique=True))
    tis = draw(st.lists(st.integers(0, len(types) - 1), min_size=n, max_size=n))
    # a stream's order: time, then type index
    events = sorted(((grid * t, ti, uid) for t, ti, uid in zip(times, tis, uids)),
                    key=lambda e: (e[0], e[1]))
    stream = manual_stream(types, events)
    for k, (t, _, uid) in enumerate(events):
        if uid >= 0 and draw(st.booleans()):
            stream.t_arrive[k] = t - draw(st.sampled_from((0.0, grid, 3.0)))
    return routes, types, stream


@pytest.mark.oracle_property
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(virtual_runs())
def test_event_loop_matches_stepwise_oracle(run):
    # the flat loop performs the oracle's float operations in its order,
    # so every instant is equal, not close, through every tie
    routes, types, stream = run
    sizes = [t.size for t in types]
    nb = run_emulation(stream, routes)
    flows = columns(stream.events)
    want = serve_stepwise(nb.spec, [t.route for t in types], sizes, *flows)
    assert nb.t_inject.tolist() == want.tolist()
    assert nb.n_events == 2 * len(stream.events)
    event(f"equal departures: {len(want) - len(set(want.tolist())) > 0}")
    # classes per type, which lump to the route classes
    spec = per_type_spec(routes, types)
    got = serve(spec, range(len(types)), sizes, *flows)
    assert got.tolist() == serve_stepwise(spec, range(len(types)), sizes, *flows).tolist()
    assert np.all(np.abs(got - want) <= 1e-9 * want)


# Simultaneous events whose order shows only in rounding, found by a
# search against the oracle: (star routes used, types as (route, size),
# events).  At one float instant a departure goes before an arrival, and
# of two departures the smaller uid goes first.
TIE_CASES = {
    "departure before arrival, one queue": (
        4, ((3, 0.3), (3, 0.1)), ((0.4, 1, -23), (0.5, 0, 32))),
    "departure before arrival, same type": (
        3, ((2, 0.1),), ((0.4, 0, 28), (0.6000000000000001, 0, 1))),
    "equal departures in uid order": (
        4, ((2, 2 / 3), (2, 0.5), (3, 1.0)), ((0.0, 0, -21), (2 / 3, 1, -9), (2 / 3, 2, 22))),
}


@pytest.mark.parametrize("case", sorted(TIE_CASES))
def test_event_loop_orders_simultaneous_events_like_the_oracle(case):
    n_routes, kinds, events = TIE_CASES[case]
    pairs = NETWORKS["star"][1][:n_routes]
    routes = [make_route(STAR, s, d, route_id=i) for i, (s, d) in enumerate(pairs)]
    types = tuple(FlowType(j, x, 0.01) for j, x in kinds)
    stream = manual_stream(types, events)
    nb = run_emulation(stream, routes)
    want = serve_stepwise(nb.spec, [t.route for t in types], [t.size for t in types],
                          *columns(stream.events))
    assert nb.t_inject.tolist() == want.tolist()


def test_serve_runs_a_valid_stream_at_large_instants():
    # past a clock of about 1e7 one ulp of the clock exceeds 1e-9, so a
    # class that is not departing overshoots its head's threshold by a few
    # ulps; an absolute residual tolerance refused this stream with
    # "negative residual work -3.97e-09 in class 1", but ran it shifted down
    spec = BandwidthNetworkSpec(2, ((0,), (0, 1), (1,)))
    classes, sizes = [0, 1, 2], [1.9, 0.1, 0.1]
    times = np.array([150000001.3, 150000003.0, 150000004.5, 150000007.9, 150000008.3,
                      150000009.2, 150000009.6, 150000014.8, 150000015.1, 150000018.3])
    types = np.array([0, 1, 2, 0, 1, 2, 1, 2, 1, 2])
    uids = np.arange(10)
    got = serve(spec, classes, sizes, times, types, uids)
    assert got.tolist() == serve_stepwise(spec, classes, sizes, times, types, uids).tolist()
    assert np.all(got >= times)
    shifted = serve(spec, classes, sizes, times - 1.4e8, types, uids)
    assert np.allclose(got - 1.4e8, shifted, rtol=0, atol=1e-6)
