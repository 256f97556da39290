"""Continuous-time reference network with preemptive LCFS at every queue.

Flows enter at their injection instants, require a slot-rounded service
x_eps = eps * ceil(x / eps) at every queue on their route, and hop with
zero transfer latency.  The newest arrival at a queue always preempts;
preempted work resumes where it left off.  The per-flow, per-queue
arrival and departure instants recorded here drive the discrete-time
emulation and its invariant checks.

`run_ct` is one loop over integer queue indices that merges the sorted
injections with a heap of pending completions.  Completions sharing an
instant pop in the order they were pushed; that order decides which flow
reaches a shared next queue first, so it is part of the result.  The
instants are stored flat, one float array each for arrivals and
departures indexed by flow-hop offset; `CtResult.taus` and `deltas`
hand them out per flow, as lists built when read.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate

from .errors import ConfigError, InternalConsistencyError, StabilityViolationError
from .topology import LoadProfile, QueueNode, Route, queue_paths
from .flow_gen import FlowType

_GUARD = 1e-9


def slot_ceil(t: float, eps: float) -> int:
    """Smallest slot index k with k*eps >= t, with a relative guard band.

    A ratio within 1e-9 of an integer snaps to that integer before the
    ceiling, so boundary values survive float noise.
    """
    if t <= 0:
        return 0
    r = t / eps
    return math.ceil(r - _GUARD * r if r > 1.0 else r - _GUARD)


@dataclass(frozen=True)
class EpsilonConfig:
    """Slot length and the rounded sizes/loads it induces."""

    epsilon: float
    c0: float
    x_eps: dict[float, float]          # size -> eps * ceil(size / eps)
    n_slots: dict[float, int]          # size -> packet count
    f_eps: dict[QueueNode, float]      # queue -> load at rounded sizes
    rule_chosen: bool = True


def choose_epsilon(profile: LoadProfile, c0: float, override: float | None = None) -> EpsilonConfig:
    """Pick the slot length from the gap-to-capacity rule, or validate an override.

    Rule: eps = min( min_v (1 - f_v) / (c0 * nu_v), min_j (1 - rho_j) ),
    where nu_v counts flows per unit time entering queue v.  The chosen
    value keeps every rounded load f_eps_v at least (c0-1)/c0 of the way
    to its unrounded gap, which is asserted.
    """
    if c0 <= 1:
        raise ConfigError("C0 must exceed 1")
    if any(fv >= 1.0 for fv in profile.f.values()):
        raise StabilityViolationError("load is not admissible; cannot discretize")
    if not profile.lam:
        raise ConfigError("no flow types; slot length undefined")

    if override is not None:
        if override <= 0:
            raise ConfigError("slot length must be positive")
        eps = float(override)
        rule_chosen = False
    else:
        per_queue = []
        for q, fv in profile.f.items():
            nu = profile.flow_rate_at(q)
            if nu > 0:
                per_queue.append((1.0 - fv) / (c0 * nu))
        per_route = [1.0 - rho for rho in profile.rho.values()]
        eps = min(min(per_queue), min(per_route))
        rule_chosen = True

    x_eps: dict[float, float] = {}
    n_slots: dict[float, int] = {}
    for x in profile.sizes():
        k = slot_ceil(x, eps)
        n_slots[x] = k
        x_eps[x] = eps * k

    f_eps: dict[QueueNode, float] = {q: 0.0 for q in profile.f}
    for (j, x), rate in profile.lam.items():
        for q in profile.routes[j].queue_path:
            f_eps[q] += x_eps[x] * rate

    for q, fe in f_eps.items():
        if fe >= 1.0:
            raise StabilityViolationError(f"rounded load at {q} reaches capacity: {fe}")
        if rule_chosen:
            floor = (c0 - 1.0) / c0 * (1.0 - profile.f[q])
            if 1.0 - fe < floor - 1e-12:
                raise InternalConsistencyError(
                    f"slot rule failed its load-inflation guarantee at {q}"
                )

    return EpsilonConfig(epsilon=eps, c0=float(c0), x_eps=x_eps, n_slots=n_slots,
                         f_eps=f_eps, rule_chosen=rule_chosen)


def ct_delay_oracle(eps: EpsilonConfig, profile: LoadProfile) -> dict[tuple[int, float], float]:
    """Closed-form per-type sojourn: sum over queues of x_eps / (1 - f_eps)."""
    out = {}
    for (j, x) in profile.lam:
        xe = eps.x_eps[x]
        out[(j, x)] = sum(xe / (1.0 - eps.f_eps[q]) for q in profile.routes[j].queue_path)
    return out


class _PerHop(Mapping):
    """uid -> one per-hop column of a `CtResult`, as a list built when read."""

    __slots__ = ("_ct", "_col")

    def __init__(self, ct: "CtResult", col: array):
        self._ct = ct
        self._col = col

    def __getitem__(self, uid: int) -> list[float]:
        f = self._ct.index[uid]
        return self._col[self._ct.offsets[f]:self._ct.offsets[f + 1]].tolist()

    def __iter__(self):
        return iter(self._ct.index)

    def __len__(self) -> int:
        return len(self._ct.index)


@dataclass
class CtResult:
    """Per-flow, per-hop arrival/departure instants along each route.

    Flows are numbered in arrival order, (t, uid); `index` maps a uid to
    its number f.  Flow f's instants at the hop-th queue of its route are
    `tau[offsets[f] + hop]` and `delta[offsets[f] + hop]`.
    """

    index: dict[int, int]
    offsets: array   # 'q', one entry per flow plus the total flow-hop count
    tau: array       # 'd'
    delta: array     # 'd'

    @property
    def taus(self) -> Mapping[int, list[float]]:
        return _PerHop(self, self.tau)

    @property
    def deltas(self) -> Mapping[int, list[float]]:
        return _PerHop(self, self.delta)

    def sojourn(self, uid: int) -> float:
        f = self.index[uid]
        return self.delta[self.offsets[f + 1] - 1] - self.tau[self.offsets[f]]


def run_ct(
    injections: list[tuple[float, int, int]],
    routes: list[Route],
    types: tuple[FlowType, ...],
    eps: EpsilonConfig,
) -> CtResult:
    """Simulate the reference network for (time, type_index, uid) injections.

    Completions at an instant are handled before arrivals at the same
    instant, and simultaneous completions in the order they were
    scheduled; a completed flow arrives at its next queue immediately.
    Simultaneous arrivals at a queue stack in uid order, so the larger
    uid ends up on top and is served first.

    External arrivals are read from the sorted injection list; only
    completions go through the heap, keyed (t, seq).  Each queue keeps a
    stack of [flow, remaining, type, hop] entries whose top is in
    service, the instant the top's current service stint began, and a
    token that invalidates a completion scheduled before a preemption.
    """
    queues, route_paths = queue_paths(routes)
    paths = [route_paths[t.route] for t in types]
    service = [eps.x_eps[t.size] for t in types]
    stacks: list[list[list]] = [[] for _ in queues]
    started = [0.0] * len(queues)
    tokens = [0] * len(queues)

    arrivals = sorted(injections, key=lambda e: (e[0], e[2]))
    index = {uid: f for f, (_, _, uid) in enumerate(arrivals)}
    offsets = array("q", accumulate((len(paths[ti]) for _, ti, _ in arrivals), initial=0))
    taus = array("d", [0.0]) * offsets[-1]
    deltas = array("d", [0.0]) * offsets[-1]
    heap: list[tuple[float, int, int, int, int]] = []  # (t, seq, queue, token, flow)
    seq = 0
    i, n_arrivals = 0, len(arrivals)
    heappush, heappop = heapq.heappush, heapq.heappop

    while True:
        if heap and (i == n_arrivals or heap[0][0] <= arrivals[i][0]):
            t, _, q, token, f = heappop(heap)
            if token != tokens[q]:
                continue  # superseded by a preemption
            stack = stacks[q]
            done_f, remaining, ti, hop = stack.pop()
            if done_f != f or abs(remaining - (t - started[q])) > 1e-6:
                raise InternalConsistencyError(f"completion bookkeeping broken at {queues[q]}")
            deltas[offsets[f] + hop] = t
            tokens[q] += 1
            if stack:
                started[q] = t
                top = stack[-1]
                heappush(heap, (t + top[1], seq, q, tokens[q], top[0]))
                seq += 1
            hop += 1
            if hop == len(paths[ti]):
                continue
        elif i < n_arrivals:
            t, ti, _ = arrivals[i]
            f = i
            i += 1
            hop = 0
        else:
            break

        # flow f arrives at the hop-th queue of its route at t
        q = paths[ti][hop]
        stack = stacks[q]
        taus[offsets[f] + hop] = t
        if stack:
            top = stack[-1]
            top[1] -= t - started[q]
            if top[1] < -1e-9:
                raise InternalConsistencyError(
                    f"preempted flow {arrivals[top[0]][2]} overserved at {queues[q]}"
                )
        stack.append([f, service[ti], ti, hop])
        started[q] = t
        tokens[q] += 1
        heappush(heap, (t + service[ti], seq, q, tokens[q], f))
        seq += 1

    return CtResult(index=index, offsets=offsets, tau=taus, delta=deltas)


def write_ct_table(result: CtResult, types: tuple[FlowType, ...], routes: list[Route],
                   type_of: dict[int, int], path: str) -> None:
    """CSV table `uid,node,tau,delta`, one row per flow per hop."""
    by_id = {r.id: r for r in routes}
    index, offsets, taus, deltas = result.index, result.offsets, result.tau, result.delta
    with open(path, "w") as fh:
        fh.write("# dcflow ct-table v1\n")
        fh.write("uid,node,tau,delta\n")
        for uid in sorted(index):
            qpath = by_id[types[type_of[uid]].route].queue_path
            o = offsets[index[uid]]
            for hop, q in enumerate(qpath):
                fh.write(f"{uid},{q},{taus[o + hop]!r},{deltas[o + hop]!r}\n")
