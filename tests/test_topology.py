import itertools

import pytest
from hypothesis import given, strategies as st

from dcflow.errors import MalformedTreeError, StabilityViolationError
from dcflow.topology import (
    QueueNode,
    TreeSpec,
    compute_loads,
    make_route,
    queue_paths,
    require_admissible,
)


def all_routes(tree):
    """A route between every ordered pair of distinct nodes, ids in order."""
    pairs = itertools.permutations(tree.nodes, 2)
    return [make_route(tree, s, d, route_id=i) for i, (s, d) in enumerate(pairs)]


def test_single_node_tree():
    TreeSpec(nodes=("r",), root="r", parent={})
    assert queue_paths([]) == ([], [])


def test_star_topo_order(star_tree):
    # no route climbs to the root's up-queue, so the up-queues feed r/down
    queues, _ = queue_paths(all_routes(star_tree))
    pos = {q: i for i, q in enumerate(queues)}
    assert pos[QueueNode("a", "up")] < pos[QueueNode("r", "down")]
    assert pos[QueueNode("b", "up")] < pos[QueueNode("r", "down")]
    assert pos[QueueNode("r", "down")] < pos[QueueNode("a", "down")]
    assert pos[QueueNode("r", "down")] < pos[QueueNode("b", "down")]
    assert len(queues) == 5


def test_links_respect_topo_order(star_tree, chain_tree):
    for tree in (star_tree, chain_tree):
        routes = all_routes(tree)
        queues, paths = queue_paths(routes)
        for route, path in zip(routes, paths):
            assert [queues[i] for i in path] == list(route.queue_path)
            for u, v in zip(path, path[1:]):
                assert u < v, (route.src, route.dst, path)


def test_queue_numbering_is_topological_across_routes():
    # route 0 reaches r/down before route 1 reaches the up-queues that feed
    # it, so numbering queues by first use would give route 1 (3, 4, 0, 5, 6)
    tree = TreeSpec(nodes=("r", "a1", "a2", "h1", "h2", "h3", "h4"), root="r",
                    parent={"a1": "r", "a2": "r", "h1": "a1", "h2": "a1", "h3": "a2",
                            "h4": "a2"})
    routes = [make_route(tree, "r", "h2", route_id=0), make_route(tree, "h1", "h3", route_id=1)]
    queues, paths = queue_paths(routes)
    assert paths == [(2, 3, 5), (0, 1, 2, 4, 6)]
    assert [str(q) for q in queues] == ["h1/up", "a1/up", "r/down", "a1/down", "a2/down",
                                        "h2/down", "h3/down"]


def test_cycle_rejected():
    with pytest.raises(MalformedTreeError):
        TreeSpec(nodes=("r", "a", "b"), root="r", parent={"a": "b", "b": "a"})


def test_second_root_rejected():
    with pytest.raises(MalformedTreeError):
        TreeSpec(nodes=("r", "a", "b"), root="r", parent={"a": "r"})


def test_unknown_root_rejected():
    with pytest.raises(MalformedTreeError):
        TreeSpec(nodes=("a",), root="r", parent={})


def test_leaf_to_leaf_route(star_tree):
    route = make_route(star_tree, "a", "b")
    assert [str(q) for q in route.queue_path] == ["a/up", "r/down", "b/down"]
    assert route.hop_count == 3


def test_route_to_ancestor_ends_on_up_queue(star_tree, chain_tree):
    assert [str(q) for q in make_route(star_tree, "a", "r").queue_path] == ["a/up"]
    assert [str(q) for q in make_route(chain_tree, "g", "r").queue_path] == ["g/up", "a/up"]


def test_route_down_from_root(star_tree):
    assert [str(q) for q in make_route(star_tree, "r", "a").queue_path] == ["r/down", "a/down"]


def test_route_same_endpoints_rejected(star_tree):
    with pytest.raises(ValueError):
        make_route(star_tree, "a", "a")


def test_route_edges_are_dag_links(star_tree, chain_tree):
    # a child's up-queue feeds its parent's up- or down-queue; a parent's
    # down-queue feeds a child's down-queue
    for tree in (star_tree, chain_tree):
        for route in all_routes(tree):
            for u, v in zip(route.queue_path, route.queue_path[1:]):
                if u.direction == "up":
                    assert tree.parent[u.node] == v.node, (str(u), str(v))
                else:
                    assert (v.direction, tree.parent[v.node]) == ("down", u.node), (str(u), str(v))


def test_dominance_property(star_tree, chain_tree):
    # any queue visited earlier on some route has the smaller index
    for tree in (star_tree, chain_tree):
        queues, _ = queue_paths(all_routes(tree))
        pos = {q: i for i, q in enumerate(queues)}
        for route in all_routes(tree):
            path = route.queue_path
            for i, q1 in enumerate(path):
                for q2 in path[i + 1 :]:
                    assert pos[q1] < pos[q2]


def test_compute_loads_single_route(chain_tree):
    route = make_route(chain_tree, "a", "r", route_id=0)  # one queue: a/up
    profile = compute_loads([route], {(0, 1.0): 0.5})
    assert profile.f[QueueNode("a", "up")] == 0.5
    assert profile.rho[0] == 0.5


def test_compute_loads_shared_queue(star_tree):
    r0 = make_route(star_tree, "a", "b", route_id=0)
    r1 = make_route(star_tree, "r", "b", route_id=1)  # shares r/down, b/down
    profile = compute_loads([r0, r1], {(0, 1.0): 0.3, (1, 1.0): 0.3})
    assert profile.f[QueueNode("r", "down")] == pytest.approx(0.6)
    assert profile.f[QueueNode("b", "down")] == pytest.approx(0.6)
    assert profile.f[QueueNode("a", "up")] == pytest.approx(0.3)


def test_rho_is_max_over_route():
    # chain r-a-g-h; load the three up-queues at 0.2 / 0.5 / 0.7
    tree = TreeSpec(nodes=("r", "a", "g", "h"), root="r",
                    parent={"a": "r", "g": "a", "h": "g"})
    main = make_route(tree, "h", "r", route_id=0)   # h/up g/up a/up
    mid = make_route(tree, "g", "r", route_id=1)    # g/up a/up
    top = make_route(tree, "a", "r", route_id=2)    # a/up
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
    routes = [make_route(tree, "a", "b", route_id=0), make_route(tree, "b", "a", route_id=1)]
    base = {(0, 1.0): 0.05, (0, 2.0): 0.02, (1, 1.0): 0.04}
    p1 = compute_loads(routes, base)
    p2 = compute_loads(routes, {k: v * scale for k, v in base.items()})
    for q in p1.f:
        assert p2.f[q] == pytest.approx(p1.f[q] * scale)
    for j in p1.rho:
        assert p2.rho[j] == pytest.approx(p1.rho[j] * scale)


def test_is_admissible(star_tree):
    r0 = make_route(star_tree, "a", "r", route_id=0)
    require_admissible(compute_loads([r0], {(0, 1.0): 0.9}))
    require_admissible(compute_loads([r0], {}))
    with pytest.raises(StabilityViolationError, match="a/up"):
        require_admissible(compute_loads([r0], {(0, 1.0): 1.0}))


def test_require_admissible_rejects_overload(chain_tree):
    route = make_route(chain_tree, "g", "r", route_id=0)
    with pytest.raises(StabilityViolationError, match=r"\['a/up', 'g/up'\]"):
        require_admissible(compute_loads([route], {(0, 1.0): 1.2}))


def test_bad_rates_rejected(star_tree):
    r0 = make_route(star_tree, "a", "r", route_id=0)
    with pytest.raises(ValueError):
        compute_loads([r0], {(0, 1.0): -0.1})
    with pytest.raises(ValueError):
        compute_loads([r0], {(0, -1.0): 0.1})
    with pytest.raises(ValueError):
        compute_loads([r0], {(7, 1.0): 0.1})
