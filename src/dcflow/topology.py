"""Tree topologies and their up/down queue DAGs.

A datacenter tree is described by a parent map and a chosen root.  Every
node carries two queues: one sending data toward the root ("up") and one
sending data away from it ("down").  Orienting all traffic through these
queues yields a directed acyclic graph whose topological order respects
queue dominance: whenever some flow's packets visit q1 before q2, q1
precedes q2 in the order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedTreeError

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class QueueNode:
    """One direction of a tree node's queue pair."""

    node: str
    direction: str

    def __str__(self) -> str:
        return f"{self.node}/{self.direction}"


@dataclass(frozen=True)
class TreeSpec:
    nodes: tuple[str, ...]
    root: str
    parent: dict[str, str]

    def validate(self) -> None:
        nodes = set(self.nodes)
        if len(nodes) != len(self.nodes):
            raise MalformedTreeError("duplicate node names")
        if self.root not in nodes:
            raise MalformedTreeError(f"root {self.root!r} not among nodes")
        if self.root in self.parent:
            raise MalformedTreeError("root must not have a parent")
        for child, par in self.parent.items():
            if child not in nodes:
                raise MalformedTreeError(f"unknown node {child!r} in parent map")
            if par not in nodes:
                raise MalformedTreeError(f"unknown parent {par!r} for {child!r}")
        for node in self.nodes:
            if node != self.root and node not in self.parent:
                raise MalformedTreeError(f"node {node!r} has no parent and is not the root")
        # every chain must terminate at the root without revisiting a node
        for node in self.nodes:
            seen = {node}
            cur = node
            while cur != self.root:
                cur = self.parent[cur]
                if cur in seen:
                    raise MalformedTreeError(f"cycle in parent map through {cur!r}")
                seen.add(cur)

    def depth(self, node: str) -> int:
        d = 0
        while node != self.root:
            node = self.parent[node]
            d += 1
        return d


@dataclass
class Dag:
    """Queue-level network universe derived from a tree."""

    tree: TreeSpec
    queues: list[QueueNode]
    links: set[tuple[QueueNode, QueueNode]]
    topo_order: list[QueueNode]
    position: dict[QueueNode, int] = field(init=False)

    def __post_init__(self) -> None:
        self.position = {q: i for i, q in enumerate(self.topo_order)}


def build_dag(spec: TreeSpec) -> Dag:
    """Expand a tree into its up/down queue DAG.

    Links follow parent/child adjacency: a child's up-queue feeds the
    parent's up- and down-queues, and a parent's down-queue feeds each
    child's down-queue.  The topological order lists all up-queues by
    decreasing depth (leaves first, root last) followed by all down-queues
    by increasing depth (root first, leaves last); ties keep the node
    order of the spec.
    """
    spec.validate()
    depth = {v: spec.depth(v) for v in spec.nodes}
    order_index = {v: i for i, v in enumerate(spec.nodes)}

    ups = sorted(spec.nodes, key=lambda v: (-depth[v], order_index[v]))
    downs = sorted(spec.nodes, key=lambda v: (depth[v], order_index[v]))
    topo = [QueueNode(v, UP) for v in ups] + [QueueNode(v, DOWN) for v in downs]

    links: set[tuple[QueueNode, QueueNode]] = set()
    for child, par in spec.parent.items():
        links.add((QueueNode(child, UP), QueueNode(par, UP)))
        links.add((QueueNode(child, UP), QueueNode(par, DOWN)))
        links.add((QueueNode(par, DOWN), QueueNode(child, DOWN)))

    queues = [QueueNode(v, UP) for v in spec.nodes] + [QueueNode(v, DOWN) for v in spec.nodes]
    return Dag(tree=spec, queues=queues, links=links, topo_order=topo)


@dataclass(frozen=True)
class Route:
    """Ordered queue path of one traffic class."""

    id: int
    src: str
    dst: str
    queue_path: tuple[QueueNode, ...]

    @property
    def hop_count(self) -> int:
        return len(self.queue_path)


def _chain_to_root(spec: TreeSpec, node: str) -> list[str]:
    chain = [node]
    while node != spec.root:
        node = spec.parent[node]
        chain.append(node)
    return chain


def make_route(dag: Dag, src: str, dst: str, route_id: int = 0) -> Route:
    """Queue path from src to dst: up-queues to the lowest common ancestor,
    then down-queues to the destination.

    A flow terminating at the ancestor itself ends on the up-queue that
    reaches it; otherwise it ends on the destination's own down-queue.
    """
    spec = dag.tree
    if src == dst:
        raise ValueError("route needs distinct endpoints")
    if src not in set(spec.nodes) or dst not in set(spec.nodes):
        raise ValueError("route endpoints must be tree nodes")

    src_chain = _chain_to_root(spec, src)
    dst_chain = _chain_to_root(spec, dst)
    dst_set = set(dst_chain)
    lca = next(v for v in src_chain if v in dst_set)

    ascend = src_chain[: src_chain.index(lca)]
    descend = dst_chain[: dst_chain.index(lca) + 1][::-1]  # lca .. dst
    path = [QueueNode(v, UP) for v in ascend]
    if dst != lca:
        path.extend(QueueNode(v, DOWN) for v in descend)
    return Route(id=route_id, src=src, dst=dst, queue_path=tuple(path))


def queue_paths(routes: list[Route]) -> tuple[list[QueueNode], list[tuple[int, ...]]]:
    """Number the routes' queues in order of first use, walking the routes
    by id; return the queues and, at index r, route r's queue indices.

    Route ids must be 0 .. len(routes) - 1: engines index per-route
    tables by route id.
    """
    by_id = {r.id: r for r in routes}
    if sorted(by_id) != list(range(len(routes))):
        raise ValueError("route ids must be 0 .. len(routes) - 1")
    index: dict[QueueNode, int] = {}
    paths = []
    for j in range(len(routes)):
        path = by_id[j].queue_path
        for q in path:
            index.setdefault(q, len(index))
        paths.append(tuple(index[q] for q in path))
    return list(index), paths


@dataclass
class LoadProfile:
    """Per-queue work rates and per-route effective loads for a rate vector."""

    lam: dict[tuple[int, float], float]  # (route id, size) -> flow arrival rate
    alpha: dict[int, float]              # route id -> work arrival rate
    f: dict[QueueNode, float]            # queue -> work arrival rate
    rho: dict[int, float]                # route id -> max queue load along the route
    routes: dict[int, Route]

    def sizes(self) -> list[float]:
        return sorted({x for (_, x) in self.lam})

    def flow_rate_at(self, q: QueueNode) -> float:
        """Flows per unit time entering queue q (count, not work)."""
        total = 0.0
        for (j, _x), rate in self.lam.items():
            if q in self.routes[j].queue_path:
                total += rate
        return total


def compute_loads(routes: list[Route], lam: dict[tuple[int, float], float]) -> LoadProfile:
    by_id = {r.id: r for r in routes}
    for (j, x), rate in lam.items():
        if j not in by_id:
            raise ValueError(f"rate given for unknown route {j}")
        if x <= 0:
            raise ValueError(f"flow size must be positive, got {x}")
        if rate < 0:
            raise ValueError(f"arrival rate must be nonnegative, got {rate}")

    alpha = {j: 0.0 for j in by_id}
    for (j, x), rate in lam.items():
        alpha[j] += x * rate

    f: dict[QueueNode, float] = {}
    for route in routes:
        for q in route.queue_path:
            f.setdefault(q, 0.0)
    for (j, x), rate in lam.items():
        for q in by_id[j].queue_path:
            f[q] += x * rate

    rho = {j: max(f[q] for q in by_id[j].queue_path) for j in by_id}
    return LoadProfile(lam=dict(lam), alpha=alpha, f=f, rho=rho, routes=by_id)


def is_admissible(profile: LoadProfile) -> bool:
    """Strict capacity check: every queue's work rate below its unit rate."""
    return all(fv < 1.0 for fv in profile.f.values())
