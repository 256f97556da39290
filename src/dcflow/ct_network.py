"""Continuous-time reference network with preemptive LCFS at every queue.

Flows enter at their injection instants, require a slot-rounded service
x_eps = eps * ceil(x / eps) at every queue on their route, and hop with
zero transfer latency.  The newest arrival at a queue always preempts;
preempted work resumes where it left off.  The per-flow, per-queue
arrival and departure instants recorded here drive the discrete-time
emulation and its invariant checks.

A queue's arrivals are its flows' injections or their departures from
the queue before it, so `run_ct` sweeps the queues one at a time in
index order: `topology.queue_paths` numbers every queue after each queue
that feeds it.  `lcfs_sweep` serves one queue; the slot engine in
`dt_network` runs the same function on slot indices, so both networks
order ties alike: at one instant a completion comes first, then equal
arrivals stack in uid order, the larger uid on top.  The instants are
stored flat, one float array each for arrivals and departures indexed
by flow-hop offset; `CtResult.taus` and `deltas` hand them out per
flow, as lists built when read.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Mapping, MutableSequence, Sequence
from dataclasses import dataclass
from itertools import accumulate

from .errors import ConfigError, InternalConsistencyError, StabilityViolationError
from .topology import LoadProfile, QueueNode, Route, queue_paths, require_admissible
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


def choose_epsilon(profile: LoadProfile, c0: float, override: float | None = None) -> EpsilonConfig:
    """Pick the slot length from the gap-to-capacity rule, or validate an override.

    Rule: eps = min( min_v (1 - f_v) / (c0 * nu_v), min_j (1 - rho_j) ),
    where nu_v counts flows per unit time entering queue v.  The chosen
    value keeps every rounded load f_eps_v at least (c0-1)/c0 of the way
    to its unrounded gap, which is asserted.
    """
    if c0 <= 1:
        raise ConfigError("C0 must exceed 1")
    require_admissible(profile)
    if not profile.lam:
        raise ConfigError("no flow types; slot length undefined")

    if override is not None:
        if override <= 0:
            raise ConfigError("slot length must be positive")
        eps = float(override)
    else:
        per_queue = []
        for q, fv in profile.f.items():
            nu = profile.flow_rate_at(q)
            if nu > 0:
                per_queue.append((1.0 - fv) / (c0 * nu))
        per_route = [1.0 - rho for rho in profile.rho.values()]
        eps = min(min(per_queue), min(per_route))

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
        if override is None:
            floor = (c0 - 1.0) / c0 * (1.0 - profile.f[q])
            if 1.0 - fe < floor - 1e-12:
                raise InternalConsistencyError(
                    f"slot rule failed its load-inflation guarantee at {q}"
                )

    return EpsilonConfig(epsilon=eps, c0=float(c0), x_eps=x_eps, n_slots=n_slots, f_eps=f_eps)


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
    `tau[offsets[f] + hop]` and `delta[offsets[f] + hop]`, as
    `lcfs_sweep` left them: at one instant a queue completes its head
    before it takes an arrival, and takes equal arrivals in uid order.
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


def lcfs_sweep(offs: Sequence[int], arrive: Iterable, out: array,
               begins: MutableSequence, ends: MutableSequence) -> None:
    """Serve one queue preemptive-LCFS, in either network.

    `offs` lists the queue's flow-hop offsets in priority order: ascending
    arrival, equal arrivals in ascending uid.  Each arrival then outranks
    every flow already waiting, so the service order is a stack.  `arrive`
    gives their arrival instants in the same order.  `out[o]` holds
    flow-hop o's work on entry and its departure on return.  At one
    instant the head finishes before an arrival is taken: a head whose
    work ends by the arrival departs, any other is preempted and later
    resumes with the work it has left.  Each busy period's first and last
    instants are appended to `begins` and `ends`.
    """
    stack = []     # [flow-hop offset, work left], head last
    started = 0    # instant the head began its current stint
    for o, t in zip(offs, arrive):
        while stack:
            head = stack[-1]
            end = started + head[1]
            if end > t:
                head[1] -= t - started   # the head is preempted
                break
            out[head[0]] = end
            stack.pop()
            started = end
            if not stack:
                ends.append(end)
        if not stack:
            begins.append(t)
        stack.append([o, out[o]])
        started = t
    while stack:
        o, left = stack.pop()
        started += left
        out[o] = started
        if not stack:
            ends.append(started)


def run_ct(
    injections: list[tuple[float, int, int]],
    routes: list[Route],
    types: tuple[FlowType, ...],
    eps: EpsilonConfig,
) -> CtResult:
    """Simulate the reference network for (time, type_index, uid) injections.

    The queues are swept by `lcfs_sweep` in index order, which serves
    each after every queue that feeds it; a flow arrives at its next
    queue the instant it leaves one.
    """
    queues, route_paths = queue_paths(routes)
    paths = [route_paths[t.route] for t in types]
    service = [eps.x_eps[t.size] for t in types]

    arrivals = sorted(injections, key=lambda e: (e[0], e[2]))
    index = {uid: f for f, (_, _, uid) in enumerate(arrivals)}
    offsets = array("q", accumulate((len(paths[ti]) for _, ti, _ in arrivals), initial=0))
    taus = array("d", [0.0]) * offsets[-1]
    # a flow-hop's rounded size, until the sweep overwrites it with the
    # flow's departure from that queue
    deltas = array("d", [0.0]) * offsets[-1]
    last_hop = bytearray(offsets[-1])
    at_queue = [array("q") for _ in queues]   # flow-hop offsets, flows in uid order

    for t_inject, ti, uid in sorted(injections, key=lambda e: e[2]):
        o = offsets[index[uid]]
        taus[o] = t_inject
        for q in paths[ti]:
            deltas[o] = service[ti]
            at_queue[q].append(o)
            o += 1
        last_hop[o - 1] = 1

    for offs in at_queue:
        # the sort is stable, so equal arrivals stay in uid order
        offs = sorted(offs, key=taus.__getitem__)
        lcfs_sweep(offs, map(taus.__getitem__, offs), deltas, [], [])
        for o in offs:
            if not last_hop[o]:
                taus[o + 1] = deltas[o]

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
