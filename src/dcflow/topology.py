"""Tree topologies, routes over their up/down queues, and loads.

A datacenter tree is described by a parent map and a chosen root.  Every
node carries two queues: one sending data toward the root ("up") and one
sending data away from it ("down").  A route climbs up-queues to the
lowest common ancestor and then descends down-queues, so the queues that
routes visit form a directed acyclic graph.  `queue_paths` numbers the
queues in a topological order of that graph, the one numbering every
engine shares: whenever some flow visits q1 before q2, q1 has the
smaller index.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import TopologicalSorter

from .errors import MalformedTreeError, StabilityViolationError

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

    def __post_init__(self) -> None:
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


def make_route(spec: TreeSpec, src: str, dst: str, route_id: int = 0) -> Route:
    """Queue path from src to dst: up-queues to the lowest common ancestor,
    then down-queues to the destination.

    A flow terminating at the ancestor itself ends on the up-queue that
    reaches it; otherwise it ends on the destination's own down-queue.
    """
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
    """Number the routes' queues in a topological order of their hops;
    return the queues and, at index r, route r's queue indices, which
    increase along the route.  A queue is numbered after every queue
    that feeds it, so serving queues 0, 1, ... in turn serves each one
    after all of its arrivals are known.

    Route ids must be 0 .. len(routes) - 1: engines index per-route
    tables by route id.
    """
    by_id = {r.id: r for r in routes}
    if sorted(by_id) != list(range(len(routes))):
        raise ValueError("route ids must be 0 .. len(routes) - 1")
    qpaths = [by_id[j].queue_path for j in range(len(routes))]
    feeds = TopologicalSorter()
    for path in qpaths:
        feeds.add(path[0])
        for a, b in zip(path, path[1:]):
            feeds.add(b, a)
    queues = list(feeds.static_order())
    index = {q: i for i, q in enumerate(queues)}
    return queues, [tuple(index[q] for q in path) for path in qpaths]


@dataclass
class LoadProfile:
    """Per-queue work rates and per-route effective loads for a rate vector."""

    lam: dict[tuple[int, float], float]  # (route id, size) -> flow arrival rate
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

    f: dict[QueueNode, float] = {}
    for route in routes:
        for q in route.queue_path:
            f.setdefault(q, 0.0)
    for (j, x), rate in lam.items():
        for q in by_id[j].queue_path:
            f[q] += x * rate

    rho = {j: max(f[q] for q in by_id[j].queue_path) for j in by_id}
    return LoadProfile(lam=dict(lam), f=f, rho=rho, routes=by_id)


def require_admissible(profile: LoadProfile) -> None:
    """Strict capacity check: every queue's work rate below its unit rate.
    Raises StabilityViolationError naming the queues at or over capacity."""
    offenders = sorted(str(q) for q, fv in profile.f.items() if fv >= 1.0)
    if offenders:
        raise StabilityViolationError(f"inadmissible (f >= 1 at {offenders})")
