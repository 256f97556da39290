import pytest
from hypothesis import given, strategies as st

from dcflow.errors import MalformedTreeError
from dcflow.topology import (
    QueueNode,
    TreeSpec,
    build_dag,
    compute_loads,
    is_admissible,
    make_route,
)


def test_single_node_tree():
    dag = build_dag(TreeSpec(nodes=("r",), root="r", parent={}))
    assert [str(q) for q in dag.topo_order] == ["r/up", "r/down"]
    assert dag.links == set()


def test_star_topo_order(star_dag):
    pos = star_dag.position
    assert pos[QueueNode("a", "up")] < pos[QueueNode("r", "up")]
    assert pos[QueueNode("b", "up")] < pos[QueueNode("r", "up")]
    assert pos[QueueNode("r", "down")] < pos[QueueNode("a", "down")]
    assert pos[QueueNode("r", "down")] < pos[QueueNode("b", "down")]
    assert len(star_dag.queues) == 6


def test_links_respect_topo_order(star_dag, chain_dag):
    for dag in (star_dag, chain_dag):
        for u, v in dag.links:
            assert dag.position[u] < dag.position[v], (str(u), str(v))


def test_cycle_rejected():
    spec = TreeSpec(nodes=("r", "a", "b"), root="r", parent={"a": "b", "b": "a"})
    with pytest.raises(MalformedTreeError):
        build_dag(spec)


def test_second_root_rejected():
    spec = TreeSpec(nodes=("r", "a", "b"), root="r", parent={"a": "r"})
    with pytest.raises(MalformedTreeError):
        build_dag(spec)


def test_unknown_root_rejected():
    with pytest.raises(MalformedTreeError):
        build_dag(TreeSpec(nodes=("a",), root="r", parent={}))


def test_leaf_to_leaf_route(star_dag):
    route = make_route(star_dag, "a", "b")
    assert [str(q) for q in route.queue_path] == ["a/up", "r/down", "b/down"]
    assert route.hop_count == 3


def test_route_to_ancestor_ends_on_up_queue(star_dag, chain_dag):
    assert [str(q) for q in make_route(star_dag, "a", "r").queue_path] == ["a/up"]
    assert [str(q) for q in make_route(chain_dag, "g", "r").queue_path] == ["g/up", "a/up"]


def test_route_down_from_root(star_dag):
    assert [str(q) for q in make_route(star_dag, "r", "a").queue_path] == ["r/down", "a/down"]


def test_route_same_endpoints_rejected(star_dag):
    with pytest.raises(ValueError):
        make_route(star_dag, "a", "a")


def test_route_edges_are_dag_links(star_dag, chain_dag):
    for dag in (star_dag, chain_dag):
        nodes = dag.tree.nodes
        for src in nodes:
            for dst in nodes:
                if src == dst:
                    continue
                route = make_route(dag, src, dst)
                for u, v in zip(route.queue_path, route.queue_path[1:]):
                    assert (u, v) in dag.links


def test_dominance_property(star_dag, chain_dag):
    # any queue visited earlier on some route must precede later ones
    for dag in (star_dag, chain_dag):
        nodes = dag.tree.nodes
        for src in nodes:
            for dst in nodes:
                if src == dst:
                    continue
                path = make_route(dag, src, dst).queue_path
                for i, q1 in enumerate(path):
                    for q2 in path[i + 1 :]:
                        assert dag.position[q1] < dag.position[q2]


def test_compute_loads_single_route(chain_dag):
    route = make_route(chain_dag, "a", "r", route_id=0)  # one queue: a/up
    profile = compute_loads([route], {(0, 1.0): 0.5})
    assert profile.f[QueueNode("a", "up")] == 0.5
    assert profile.alpha[0] == 0.5
    assert profile.rho[0] == 0.5


def test_compute_loads_shared_queue(star_dag):
    r0 = make_route(star_dag, "a", "b", route_id=0)
    r1 = make_route(star_dag, "r", "b", route_id=1)  # shares r/down, b/down
    profile = compute_loads([r0, r1], {(0, 1.0): 0.3, (1, 1.0): 0.3})
    assert profile.f[QueueNode("r", "down")] == pytest.approx(0.6)
    assert profile.f[QueueNode("b", "down")] == pytest.approx(0.6)
    assert profile.f[QueueNode("a", "up")] == pytest.approx(0.3)


def test_rho_is_max_over_route():
    # chain r-a-g-h; load the three up-queues at 0.2 / 0.5 / 0.7
    tree = TreeSpec(nodes=("r", "a", "g", "h"), root="r",
                    parent={"a": "r", "g": "a", "h": "g"})
    dag = build_dag(tree)
    main = make_route(dag, "h", "r", route_id=0)   # h/up g/up a/up
    mid = make_route(dag, "g", "r", route_id=1)    # g/up a/up
    top = make_route(dag, "a", "r", route_id=2)    # a/up
    profile = compute_loads(
        [main, mid, top], {(0, 1.0): 0.2, (1, 1.0): 0.3, (2, 1.0): 0.2}
    )
    assert profile.f[QueueNode("h", "up")] == pytest.approx(0.2)
    assert profile.f[QueueNode("g", "up")] == pytest.approx(0.5)
    assert profile.f[QueueNode("a", "up")] == pytest.approx(0.7)
    assert profile.rho[0] == pytest.approx(0.7)


@given(scale=st.floats(min_value=0.01, max_value=10.0, allow_nan=False))
def test_loads_are_linear_in_rates(scale):
    tree = TreeSpec(nodes=("r", "a", "b"), root="r", parent={"a": "r", "b": "r"})
    dag = build_dag(tree)
    routes = [make_route(dag, "a", "b", route_id=0), make_route(dag, "b", "a", route_id=1)]
    base = {(0, 1.0): 0.05, (0, 2.0): 0.02, (1, 1.0): 0.04}
    p1 = compute_loads(routes, base)
    p2 = compute_loads(routes, {k: v * scale for k, v in base.items()})
    for q in p1.f:
        assert p2.f[q] == pytest.approx(p1.f[q] * scale)
    for j in p1.alpha:
        assert p2.alpha[j] == pytest.approx(p1.alpha[j] * scale)


def test_is_admissible(star_dag):
    r0 = make_route(star_dag, "a", "r", route_id=0)
    assert is_admissible(compute_loads([r0], {(0, 1.0): 0.9}))
    assert not is_admissible(compute_loads([r0], {(0, 1.0): 1.0}))
    assert is_admissible(compute_loads([r0], {}))


def test_bad_rates_rejected(star_dag):
    r0 = make_route(star_dag, "a", "r", route_id=0)
    with pytest.raises(ValueError):
        compute_loads([r0], {(0, 1.0): -0.1})
    with pytest.raises(ValueError):
        compute_loads([r0], {(0, -1.0): 0.1})
    with pytest.raises(ValueError):
        compute_loads([r0], {(7, 1.0): 0.1})
