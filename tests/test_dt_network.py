import contextlib
import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from dcflow import ct_network
from dcflow.ct_network import choose_epsilon, lcfs_pr, run_ct
from dcflow.dt_network import COLUMNS, column_tokens, hop_columns, run_dt, write_ledger_csv
from dcflow.errors import ConfigError, DcflowError, EmulationInfeasibilityError
from dcflow.flow_gen import FlowType, gen_poisson
from dcflow.harness import ExperimentConfig, run_point
from dcflow.metrics import oracle_table
from dcflow.topology import TreeSpec, compute_loads, make_route
from dcflow.virtual_bandwidth_net import run_emulation
from columns import as_flows, assert_same_run, per_flow
from lcfs_oracle import lattice_instants, run_ct_stack
from slot_oracle import run_dt_per_slot


def pipeline(routes, types, injections, c0=2.0, override=None, **kwargs):
    lam = {(t.route, t.size): t.rate for t in types}
    profile = compute_loads(routes, lam)
    eps = choose_epsilon(profile, c0, override=override)
    ct = run_ct(as_flows(injections), routes, types, eps)
    dt = run_dt(ct, routes, types, **kwargs)
    return profile, eps, ct, dt


def test_lone_flow_single_node_base_case(chain_tree):
    # service two slots; injection at 0 gives schedule slot 0 and
    # departure exactly at the rounded reference departure
    route = make_route(chain_tree, "a", "r", route_id=0)
    types = (FlowType(0, 1.0, 0.1),)
    _, eps, ct, dt = pipeline([route], types, [(0.0, 0, 0)], override=0.5)
    hops = hop_columns(dt.ledger)
    assert hops.s_slot.tolist() == [0]
    assert hops.delta_slot.tolist() == [2]
    assert hops.delta[0] == pytest.approx(1.0)
    assert hops.delta_slot.tolist() == ct.slot(ct.hop_records().delta_key).tolist()
    assert dt.ledger.d_s[0] == pytest.approx(1.0)


def test_injection_just_after_slot_zero_is_scheduled_in_slot_one():
    # an instant 1.5e-9 past slot 0's start is not on its boundary, however
    # large the slot: the flow is injected after slot 0 begins, so its
    # schedule slot is 1, and every later instant keeps that residual
    tree = TreeSpec(nodes=("r", "a"), root="r", parent={"a": "r"})
    route = make_route(tree, "r", "a", route_id=0)
    types = (FlowType(0, 1.0, 0.1),)
    _, eps, ct, dt = pipeline([route], types, [(1.5e-9, 0, 0)], override=2.0)
    assert ct.residue.tolist() == [0.0, 1.5e-9]
    ledger = dt.ledger
    # two queues, r/down and a/down, one two-unit slot each
    assert [getattr(ledger, c).tolist() for c in COLUMNS] == [
        [0], [0], [1.0], [1.5e-9], [1.5e-9], [0.0], [6.0 - 1.5e-9], [6.0 - 1.5e-9]]
    hops = hop_columns(ledger)
    assert (hops.s_slot.tolist(), hops.delta_slot.tolist()) == ([1, 2], [2, 3])
    assert ct.slot(ct.hop_records().delta_key).tolist() == [2, 3]


def test_two_flow_busy_cycle_case_two(chain_tree):
    # opener size 2 (slots at eps=1: 2 packets), a size-1 flow lands inside
    # the cycle with a strictly smaller schedule offset: it departs as its
    # own one-flow cycle and the opener resumes and exits on the rounded
    # reference boundary
    route = make_route(chain_tree, "a", "r", route_id=0)
    types = (FlowType(0, 2.0, 0.01), FlowType(0, 1.0, 0.01))
    injections = [(0.5, 0, 1), (1.7, 1, 2)]
    _, eps, ct, dt = pipeline([route], types, injections, override=1.0)
    assert eps.epsilon == 1.0
    # reference run: opener departs at 3.5, the short flow at 2.7
    rec = ct.hop_records()
    deltas = per_flow(rec, rec.delta)
    assert deltas[1][0] == pytest.approx(3.5)
    assert deltas[2][0] == pytest.approx(2.7)
    d_slots = per_flow(rec, rec.delta_slot)
    assert d_slots[2] == [3]   # short flow leaves in slot 3
    assert d_slots[1] == [4]   # opener: S=1 plus both sizes
    assert per_flow(rec, ct.slot(rec.tau_key))[1] == [1]   # schedule slot of opener
    assert d_slots[1] == per_flow(rec, ct.slot(rec.delta_key))[1] == [4]


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_lcfs_ties_at_one_schedule_slot(chain_tree, order):
    # three one-packet flows share schedule slot 1 at one queue: the
    # larger tau goes first, and at equal tau the larger uid
    route = make_route(chain_tree, "a", "r", route_id=0)
    types = (FlowType(0, 1.0, 0.1),)
    flows = [(0.25, 0, 5), (0.5, 0, 3), (0.5, 0, 7)]
    injections = [flows[i] for i in order]
    _, eps, ct, dt = pipeline([route], types, injections, override=1.0)
    hops = hop_columns(dt.ledger)
    assert dict(zip(hops.uid.tolist(), hops.s_slot.tolist())) == {5: 1, 3: 1, 7: 1}
    assert dict(zip(hops.uid.tolist(), hops.delta_slot.tolist())) == {7: 2, 3: 3, 5: 4}
    oracle, _ = run_dt_per_slot(ct, [route], types, eps)
    assert_same_run(dt, oracle)


def test_random_run_invariants_and_capacity(star_tree):
    r0 = make_route(star_tree, "r", "a", route_id=0)
    r1 = make_route(star_tree, "r", "b", route_id=1)
    types = (FlowType(0, 1.0, 0.2), FlowType(0, 2.0, 0.1),
             FlowType(1, 1.0, 0.2), FlowType(1, 2.0, 0.1))
    stream = gen_poisson(types, 3_000.0, seed=41)
    lam = {(t.route, t.size): t.rate for t in types}
    profile = compute_loads([r0, r1], lam)
    eps = choose_epsilon(profile, 2.0)
    ct = run_ct(stream.events, [r0, r1], types, eps)
    dt = run_dt(ct, [r0, r1], types)
    oracle, transmissions = run_dt_per_slot(ct, [r0, r1], types, eps)
    assert_same_run(dt, oracle)

    # slot capacity: one packet per queue per slot
    seen = set()
    for slot, q, uid, idx in transmissions:
        assert (slot, q) not in seen
        seen.add((slot, q))
    assert dt.n_slots_processed == len({slot for slot, _, _, _ in transmissions})

    # flow conservation: every hop moved exactly ceil(x/eps) packets
    per_flow_hop: dict[tuple[int, str], int] = {}
    for slot, q, uid, idx in transmissions:
        key = (uid, str(q))
        per_flow_hop[key] = per_flow_hop.get(key, 0) + 1
    by_id = {r.id: r for r in [r0, r1]}
    ledger = dt.ledger
    for uid, route, size in zip(ledger.uid.tolist(), ledger.route.tolist(), ledger.size.tolist()):
        for q in by_id[route].queue_path:
            assert per_flow_hop[(uid, str(q))] == eps.n_slots[size]
    assert dt.n_transmissions == len(transmissions)
    assert dt.flow_hops_checked == len(per_flow_hop)

    # ledger invariants, exact in slot units
    hops = hop_columns(ledger)
    assert np.all(hops.a <= hops.s_slot * eps.epsilon + 1e-9)
    rec = ct.hop_records()
    assert np.all(rec.delta_slot <= ct.slot(rec.delta_key))


def test_node_iteration_order_is_immaterial(star_tree):
    r0 = make_route(star_tree, "a", "b", route_id=0)
    r1 = make_route(star_tree, "b", "a", route_id=1)
    types = (FlowType(0, 1.0, 0.2), FlowType(1, 1.0, 0.2))
    stream = gen_poisson(types, 1_000.0, seed=42)
    lam = {(t.route, t.size): t.rate for t in types}
    profile = compute_loads([r0, r1], lam)
    eps = choose_epsilon(profile, 2.0)
    ct = run_ct(stream.events, [r0, r1], types, eps)

    queues = []
    for route in (r0, r1):
        for q in route.queue_path:
            if q not in queues:
                queues.append(q)
    fwd, _ = run_dt_per_slot(ct, [r0, r1], types, eps, node_order=queues)
    rev, _ = run_dt_per_slot(ct, [r0, r1], types, eps, node_order=queues[::-1])
    assert_same_run(fwd, rev)
    assert_same_run(run_dt(ct, [r0, r1], types), fwd)


def test_rerun_is_deterministic(two_hop_route):
    types = (FlowType(0, 1.0, 0.5),)
    stream = gen_poisson(types, 500.0, seed=43)
    lam = {(0, 1.0): 0.5}
    profile = compute_loads([two_hop_route], lam)
    eps = choose_epsilon(profile, 2.0)
    ct = run_ct(stream.events, [two_hop_route], types, eps)
    a = run_dt(ct, [two_hop_route], types)
    b = run_dt(ct, [two_hop_route], types)
    assert_same_run(a, b)


def test_delay_decomposition_rows(two_hop_route):
    types = (FlowType(0, 1.0, 0.4),)
    stream = gen_poisson(types, 300.0, seed=44)
    arrive = stream.events["t"]
    lam = {(0, 1.0): 0.4}
    profile = compute_loads([two_hop_route], lam)
    eps = choose_epsilon(profile, 2.0)
    # inject later than arrival to give every flow a waiting component
    injections = stream.events.copy()
    injections["t"] += 0.75
    ct = run_ct(injections, [two_hop_route], types, eps)
    dt = run_dt(ct, [two_hop_route], types, arrive_times=arrive)
    ledger = dt.ledger
    assert ledger.d_w == pytest.approx(np.full(len(ledger), 0.75))
    assert ledger.d == pytest.approx(ledger.d_w + ledger.d_s)
    assert np.all(ledger.d_s > 0)


def test_dt_delay_bound_values(two_hop_route):
    profile_half = compute_loads([two_hop_route], {(0, 1.0): 0.5})
    eps = choose_epsilon(profile_half, 2.0)
    bound = oracle_table(profile_half, eps)[(0, 1.0)].bound_ds
    assert bound == pytest.approx(2 * (1 * 2 / 0.5 + 2))  # 12

    light = compute_loads([two_hop_route], {(0, 1.0): 1e-9})
    eps_l = choose_epsilon(light, 2.0, override=0.25)
    b = oracle_table(light, eps_l)[(0, 1.0)].bound_ds
    assert b == pytest.approx(2 * (1 * 2 + 2), rel=1e-6)


def test_ledger_csv_format(two_hop_route, tmp_path):
    types = (FlowType(0, 1.0, 0.3),)
    stream = gen_poisson(types, 100.0, seed=45)
    lam = {(0, 1.0): 0.3}
    profile = compute_loads([two_hop_route], lam)
    eps = choose_epsilon(profile, 2.0)
    ct = run_ct(stream.events, [two_hop_route], types, eps)
    dt = run_dt(ct, [two_hop_route], types)
    path = tmp_path / "ledger.csv"
    write_ledger_csv(dt.ledger, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# dcflow ledger v1"
    assert lines[1] == "uid,route,size,t_arrive,t_inject,D_W,D_S,D"
    assert len(lines) == 2 + len(dt.ledger)
    first = lines[2].split(",")
    assert int(first[0]) == dt.ledger.uid[0]


# Where orjson's float text could part from repr's: zero, the least
# subnormal, both ends of the span written without repr, the largest double.
EDGE_FLOATS = [0.0, 5e-324, 1e-4, float(np.nextafter(1e-4, 0.0)), 1e16,
               float(np.nextafter(1e16, 0.0)), 1.7976931348623157e308]
INT64 = np.iinfo(np.int64)


@pytest.mark.oracle_property
@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
@example(EDGE_FLOATS + [-x for x in EDGE_FLOATS] + [float("nan"), float("inf"), -float("inf")])
def test_column_tokens_are_repr_of_each_float(values):
    # a future orjson that writes other digits or another exponent form
    # would change every file the writers make
    column = np.array(values, dtype=np.float64)
    assert column_tokens(column) == [repr(float(x)) for x in column]
    # and json.dumps's text, NaN and Infinity included, for hops.jsonl
    assert column_tokens(column, json.dumps) == [json.dumps(float(x)) for x in column]


@pytest.mark.oracle_property
@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(int(INT64.min), int(INT64.max)), max_size=40))
@example([int(INT64.min), int(INT64.max), 0, -1])
def test_column_tokens_are_str_of_each_integer(values):
    column = np.array(values, dtype=np.int64)
    assert column_tokens(column) == [str(int(x)) for x in column]


@contextlib.contextmanager
def departures_pulled_earlier(late):
    """Serve the queues with the reference departures at `late`, (uid,
    hop) -> slots, pulled that many whole slots earlier as each queue is
    served.  The next queue on the route takes the moved departure as its
    arrival, in both networks, so the run stays whole; only its check can
    fail."""
    sweep = ct_network._sweep

    def tampered(ct):
        for run in sweep(ct):
            hop = dict(run.pairs)
            for i, f in enumerate(run.flow.tolist()):
                run.depart[i] -= late.get((int(ct.uid[f]), hop[int(ct.ti[f])]), 0) * len(ct.residue)
            yield run

    with mock.patch.object(ct_network, "_sweep", tampered):
        yield


def _late_run(routes, types, injections, late):
    """`run_ct` at slot length 0.5 with the departures at `late`, uid ->
    hops, each pulled one slot earlier."""
    profile = compute_loads(routes, {(t.route, t.size): t.rate for t in types})
    eps = choose_epsilon(profile, 2.0, override=0.5)
    with departures_pulled_earlier({(uid, hop): 1 for uid, hops in late.items() for hop in hops}):
        return run_ct(as_flows(injections), routes, types, eps)


def test_violations_are_named_in_uid_order(two_hop_route):
    # flow 9 breaks a check at the first queue and flow 2 at the second;
    # the error names the smaller uid, whatever the queue order
    types = (FlowType(0, 1.0, 0.1),)
    with pytest.raises(EmulationInfeasibilityError,
                       match=r"^flow 2 left a/up in slot 24, reference bound is 23$"):
        _late_run([two_hop_route], types, [(1.0, 0, 9), (10.0, 0, 2)], {9: (0,), 2: (1,)})

    # deeper hops on routes with different queues: flow 6 crosses h1/up
    # a1/up r/down a2/down h3/down from slot 2, flow 4 r/down a1/down
    # h2/down from slot 20, two packets a queue, each alone.  The error
    # names the late hop's own queue, and a flow's first late hop, though
    # its later one is found at a later queue
    routes = [make_route(TREE, "h1", "h3", route_id=0), make_route(TREE, "r", "h2", route_id=1)]
    types = (FlowType(0, 1.0, 0.1), FlowType(1, 1.0, 0.1))
    injections = [(1.0, 0, 6), (10.0, 1, 4)]
    for late, message in (
            ({6: (3,), 4: (2,)}, "flow 4 left h2/down in slot 26, reference bound is 25"),
            ({6: (4, 3)}, "flow 6 left a2/down in slot 10, reference bound is 9")):
        with pytest.raises(EmulationInfeasibilityError, match=f"^{message}$"):
            _late_run(routes, types, injections, late)


def test_injections_out_of_arrival_order_are_refused(two_hop_route):
    # flows are numbered in the order they come; a caller that hands them
    # over in another order is told which flow is out of place
    types = (FlowType(0, 1.0, 0.1),)
    eps = choose_epsilon(compute_loads([two_hop_route], {(0, 1.0): 0.1}), 2.0)
    flows = as_flows([(0.5, 0, 1), (1.0, 0, 2), (1.0, 0, 4), (2.0, 0, 3)])
    run_ct(flows, [two_hop_route], types, eps)
    for swap, message in (((0, 1), "flow 1 at 0.5 comes after flow 2 at 1.0"),
                          ((1, 2), "flow 2 at 1.0 comes after flow 4 at 1.0"),
                          ((2, 3), "flow 4 at 1.0 comes after flow 3 at 2.0")):
        shuffled = flows.copy()
        shuffled[list(swap)] = shuffled[list(swap[::-1])]
        with pytest.raises(ConfigError, match=f"out of arrival order .*: {message}$"):
            run_ct(shuffled, [two_hop_route], types, eps)
    # a repeated uid at one instant is not an order either
    with pytest.raises(ConfigError, match="flow 2 at 1.0 comes after flow 2 at 1.0"):
        run_ct(as_flows([(1.0, 0, 2), (1.0, 0, 2)]), [two_hop_route], types, eps)


STAR = TreeSpec(nodes=("r", "a", "b"), root="r", parent={"a": "r", "b": "r"})
TREE = TreeSpec(nodes=("r", "a1", "a2", "h1", "h2", "h3", "h4"), root="r",
                parent={"a1": "r", "a2": "r", "h1": "a1", "h2": "a1", "h3": "a2", "h4": "a2"})
NETWORKS = {
    "star": (STAR, (("a", "b"), ("b", "a"), ("r", "a"), ("b", "r"))),
    "tree": (TREE, (("h1", "h3"), ("h2", "h4"), ("h1", "h2"), ("h3", "r"), ("r", "h2"))),
}


def tree5hop():
    """The tree5hop-0.9 benchmark point: two 5-queue routes sharing three
    queues at load 0.9."""
    routes = [make_route(TREE, "h1", "h3", route_id=0), make_route(TREE, "h2", "h4", route_id=1)]
    types = (FlowType(0, 1.0, 0.45), FlowType(1, 1.0, 0.45))
    profile = compute_loads(routes, {(t.route, t.size): t.rate for t in types})
    return routes, types, profile, choose_epsilon(profile, 2.0)


@pytest.fixture(scope="module")
def tree5hop_run():
    """A short tree5hop-0.9 run: its injections and both engines' runs."""
    routes, types, profile, eps = tree5hop()
    injections, _ = run_emulation(gen_poisson(types, 2_000.0, seed=1), routes,
                                  profile=profile).schedule()
    ct = run_ct(injections, routes, types, eps)
    return routes, types, eps, injections, ct, run_dt(ct, routes, types)


@pytest.mark.parametrize("k", [10**6, 2 * 10**7, 2 * 10**8])
def test_injecting_k_slots_later_moves_every_slot_by_k(tree5hop_run, k):
    # every instant of a flow is its injection's residual plus whole
    # slots, so a run injected k slots later is the same run k slots
    # later, however large k is: no tolerance grows with the horizon
    routes, types, eps, injections, ct, dt = tree5hop_run
    later = injections.copy()
    later["t"] += k * eps.epsilon
    ct_later = run_ct(later, routes, types, eps)
    dt_later = run_dt(ct_later, routes, types)
    assert np.array_equal(ct_later.uid, ct.uid)
    rec, rec_later = ct.hop_records(), ct_later.hop_records()
    assert np.array_equal(ct_later.slot(rec_later.tau_key), ct.slot(rec.tau_key) + k)
    assert np.array_equal(rec_later.delta_slot, rec.delta_slot + k)
    assert np.array_equal(ct_later.last_slot, ct.last_slot + k)
    assert dt_later.flow_hops_checked == dt.flow_hops_checked == 5 * len(injections)


def test_no_flows_and_two_flows_on_the_benchmark_plan():
    # the smallest runs, which random draws reach only by chance
    none = np.zeros(0, dtype=np.int64)
    departs = lcfs_pr(none, none)
    assert (departs.dtype, departs.size) == (np.int64, 0)
    routes, types, _, eps = tree5hop()
    ct = run_ct(as_flows([]), routes, types, eps)
    dt = run_dt(ct, routes, types)
    assert (len(ct.uid), len(ct.hop_records().tau_key), len(dt.ledger)) == (0, 0, 0)
    assert (dt.n_slots_processed, dt.n_transmissions, dt.flow_hops_checked) == (0, 0, 0)
    # two 18-packet flows along one 5-queue route, the second injected
    # while the first is at its first queue
    ct = run_ct(as_flows([(0.5, 0, 1), (1.0, 0, 2)]), routes, types, eps)
    dt = run_dt(ct, routes, types)
    assert (dt.n_slots_processed, dt.n_transmissions, dt.flow_hops_checked) == (144, 180, 10)
    assert_same_run(dt, run_dt_per_slot(ct, routes, types, eps)[0])


def _traced(call):
    """`call()`'s result, and the bytes it left allocated and allocated
    at its peak, by tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def test_engines_hold_little_memory_per_flow_hop():
    # the tree5hop-0.9 benchmark point, shortened: two 5-queue routes
    # sharing three queues at load 0.9.  Per-flow arrays and one queue's
    # scratch at a time keep the engines near 25 B per flow-hop at their
    # peak; per-flow objects with per-hop lists and tuples take over
    # 400 B here.  The ledger holds its flow numbers and arrivals, 16 B
    # per flow, and derives its other columns from the reference run; one
    # array per column took 72 B, and one row object per flow about 187 B.
    # The virtual net's result holds one array per column, about 40 B per
    # flow; with five uid-keyed dicts and per-type departure lists it
    # held about 209 B.
    routes, types, profile, eps = tree5hop()
    stream = gen_poisson(types, 2_000.0, seed=1)
    # a first run fills the normalizer memo, which outlives any one run
    run_emulation(stream, routes, profile=profile)
    nb, kept, _ = _traced(lambda: run_emulation(stream, routes, profile=profile))
    injections, t_arrive = nb.schedule()

    def engines():
        ct = run_ct(injections, routes, types, eps)
        return ct, run_dt(ct, routes, types, arrive_times=t_arrive)

    (ct, dt), _, peak = _traced(engines)
    # the ledger build alone, beside the engine's departure slots
    ledger, held, _ = _traced(lambda: run_dt(ct, routes, types, t_arrive).ledger)
    for name in ("flow",) + COLUMNS:
        assert np.array_equal(getattr(ledger, name), getattr(dt.ledger, name)), name
    assert dt.flow_hops_checked == 5 * len(injections) > 5_000
    assert kept / len(nb) <= 80
    assert peak / dt.flow_hops_checked <= 200
    assert held / len(injections) <= 32


def test_memory_budget_per_flow():
    # peak memory sets how long a run can be.  On the tree5hop-0.9 plan at
    # horizon 1e4, seed 1 (9,048 flows, 45,240 flow-hops), tracemalloc
    # reads 94 B per flow at the virtual net's peak, and 116 B per flow at
    # the reference run's, which keeps 25 B per flow.  The bounds fail a
    # virtual net that holds the stream as whole Python lists (169 B per
    # flow), and a reference run that keeps every departure key and slot
    # per flow-hop (221 B per flow at its peak, 137 B kept).
    routes, types, profile, eps = tree5hop()
    stream = gen_poisson(types, 10_000.0, seed=1)
    # a first run fills the normalizer memo, which outlives any one run
    run_emulation(stream, routes, profile=profile)
    nb, _, vnet_peak = _traced(lambda: run_emulation(stream, routes, profile=profile))
    injections, _ = nb.schedule()
    ct, ct_kept, ct_peak = _traced(lambda: run_ct(injections, routes, types, eps))
    assert (len(nb), int(ct.n_hops.sum())) == (9_048, 45_240)
    assert vnet_peak / len(nb) <= 125
    assert ct_peak / len(nb) <= 150
    assert ct_kept / len(nb) <= 40


def test_run_ct_keeps_no_bytes_per_flow_hop():
    # one route of load 0.45 at one queue, a1/up, then at five, h1 to h3:
    # the same 4,474 flows at the same slot length.  The reference run
    # keeps the same bytes for both, 24 B per flow; keeping a departure
    # key and slot per flow-hop, it kept 64 B per flow more on five queues.
    kept = []
    for src, dst in (("a1", "r"), ("h1", "h3")):
        route = make_route(TREE, src, dst, route_id=0)
        types = (FlowType(0, 1.0, 0.45),)
        eps = choose_epsilon(compute_loads([route], {(0, 1.0): 0.45}), 2.0)
        injections = gen_poisson(types, 10_000.0, seed=1).events
        ct, held, _ = _traced(lambda: run_ct(injections, [route], types, eps))
        assert (len(injections), route.hop_count, eps.epsilon) == (4_474, len(kept) * 4 + 1, 0.55)
        kept.append(held / len(injections))
    assert kept[1] - kept[0] <= 8


def test_run_point_holds_each_flow_once_after_the_virtual_net():
    # the tree5hop-0.9 benchmark point at horizon 1e4, seed 1 (9,048
    # flows), run whole under tracemalloc, writing no files.  From the
    # virtual net on, the injections in arrival order are the reference
    # run's own flow table, only one queue's scratch is held at a time and
    # nothing is kept per flow-hop: 153 B per flow at the peak.  Keeping a
    # departure key and slot per flow-hop, beside the unsorted injections,
    # read 257 B.
    routes, types, _, _ = tree5hop()
    config = ExperimentConfig(
        name="tree5hop-0.9", topology_nodes=TREE.nodes, topology_root=TREE.root,
        topology_parent=TREE.parent, routes=tuple((r.src, r.dst) for r in routes),
        types=tuple((t.route, t.size, t.rate) for t in types), horizon=10_000.0, seed=1)
    # a first run fills the normalizer memo, which outlives any one run
    run_point(config, 1.0)
    point, _, peak = _traced(lambda: run_point(config, 1.0))
    assert (point.n_flows, point.flow_hops_checked) == (9_048, 45_240)
    assert peak / point.n_flows <= 190


def test_ledger_writer_memory_does_not_grow_with_the_ledger(tmp_path):
    # the writer formats 1,024 rows at a time.  On the tree5hop-0.9 plan,
    # seed 1, tracemalloc reads a peak of 0.86 MB at horizon 1e4 (9,048
    # rows) and at 5e4 (44,834 rows); 2,048-row chunks read 1.7 MB and
    # 4,096-row ones 3.4 MB
    routes, types, profile, eps = tree5hop()
    for horizon, n_rows in ((10_000.0, 9_048), (50_000.0, 44_834)):
        injections, t_arrive = run_emulation(gen_poisson(types, horizon, seed=1), routes,
                                             profile=profile).schedule()
        ct = run_ct(injections, routes, types, eps)
        ledger = run_dt(ct, routes, types, arrive_times=t_arrive).ledger
        assert len(ledger) == n_rows
        _, _, peak = _traced(lambda: write_ledger_csv(ledger, str(tmp_path / "ledger.csv")))
        assert peak <= 1_200_000, horizon


def _outcome(engine):
    try:
        return engine(), None
    except DcflowError as exc:
        return None, type(exc)


@st.composite
def slot_runs(draw, tamper=True):
    """A random network, flow types, injections, slot length and their
    reference run; last, if `tamper`, the departures some flow-hops may
    have pulled whole slots earlier, (uid, hop) -> slots, to be served
    under `departures_pulled_earlier`."""
    tree, pairs = NETWORKS[draw(st.sampled_from(sorted(NETWORKS)))]
    n_routes = draw(st.integers(1, len(pairs)))
    routes = [make_route(tree, s, d, route_id=i) for i, (s, d) in enumerate(pairs[:n_routes])]
    sizes = draw(st.lists(st.sampled_from((0.3, 0.5, 1.0, 1.7, 2.0)), min_size=1, max_size=3,
                          unique=True))
    types = tuple(FlowType(draw(st.integers(0, n_routes - 1)), x, 0.01) for x in sizes)
    types = tuple({(t.route, t.size): t for t in types}.values())
    # instants on a coarse grid, so injections often coincide
    n = draw(st.integers(1, 25))
    times = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    uids = draw(st.lists(st.integers(-30, 60), min_size=n, max_size=n, unique=True))
    tis = draw(st.lists(st.integers(0, len(types) - 1), min_size=n, max_size=n))
    injections = as_flows([(0.25 * t, ti, uid) for t, ti, uid in zip(times, tis, uids)])
    override = draw(st.sampled_from((None, 0.1, 0.25, 0.4, 0.5, 1.0)))
    profile = compute_loads(routes, {(t.route, t.size): t.rate for t in types})
    eps = choose_epsilon(profile, 2.0, override=override)
    ct = run_ct(injections, routes, types, eps)
    late = {}
    if tamper and draw(st.booleans()):
        # a flow may then leave a queue after its bound; either way the
        # next queue takes the moved departure as the flow's arrival
        for _ in range(draw(st.integers(1, 3))):
            f = draw(st.integers(0, len(injections) - 1))
            hop = draw(st.integers(0, int(ct.n_hops[f]) - 1))
            late[int(ct.uid[f]), hop] = draw(st.sampled_from((1, 2, 5)))
    return ct, injections, routes, types, eps, late


@pytest.mark.oracle_property
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(slot_runs())
def test_event_engine_matches_per_slot_oracle(run):
    ct, injections, routes, types, eps, late = run
    arrive = injections["t"] - 0.1
    with departures_pulled_earlier(late):
        # the oracle reads the tampered hop records of the run drawn
        got, got_exc = _outcome(
            lambda: run_dt(run_ct(injections, routes, types, eps), routes, types, arrive))
        want, want_exc = _outcome(lambda: run_dt_per_slot(ct, routes, types, eps, arrive)[0])
        event(f"outcome: {want_exc.__name__ if want_exc else 'ledger'}")
        assert got_exc == want_exc
        if not late:
            # the slot engine emulates an untampered reference run exactly
            assert want_exc is None
        if want is not None:
            assert_same_run(got, want)


@pytest.mark.oracle_property
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(slot_runs(tamper=False))
def test_reference_run_is_exact_on_the_lattice(run):
    # the stack sweep in rational arithmetic, with the slot length and
    # every injection taken exactly: each instant of the closed-form run,
    # I * eps + r on its lattice, is that exact instant, so no tie at a
    # queue is decided by float noise
    ct, injections, routes, types, eps, _ = run
    want = run_ct_stack(injections, routes, types, eps)
    rec = ct.hop_records()
    assert ct.uid.tolist() == want.uid
    assert lattice_instants(ct, rec.tau_key) == want.tau
    assert lattice_instants(ct, rec.delta_key) == want.delta
