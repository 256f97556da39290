"""Continuous-time reference network with preemptive LCFS at every queue,
and the slotted engine that emulates it, served in one pass.

Flows enter at their injection instants, require a slot-rounded service
x_eps = eps * ceil(x / eps) at every queue on their route, and hop with
zero transfer latency.  The newest arrival at a queue always preempts;
preempted work resumes where it left off.  The per-queue departure
instants computed here, and the arrivals they make at the next queue,
drive the discrete-time emulation and its invariant check.

A queue's arrivals are its flows' injections or their departures from
the queue before it, so `run_ct` sweeps the queues one at a time in
index order: `topology.queue_paths` numbers every queue after each queue
that feeds it.  `lcfs_pr` serves one queue in closed form, on arrays.
At one instant a completion comes first, then equal arrivals stack in
uid order, the larger uid on top.

Every instant lies on an exact lattice.  Works are whole slots and a
departure is an arrival plus whole works, so each instant of a flow is
its residual r = fmod(t_inject, eps), exact in IEEE arithmetic, plus a
whole number I of slots.  `run_ct` ranks the run's distinct residuals,
0 first, and keys each instant by the int64 I * R + rank, R ranks in
all, with works of n_slots * R.  A flow keeps its rank along its route,
so keys order instants exactly, and the first slot boundary at or after
an instant, I + (r > 0), is the key divided by R and rounded up.

The slot engine (see `dt_network`) is the same LCFS-PR schedule read on
those slot ceilings: at each queue a flow is activated at the slot
ceiling of its reference arrival and sends its packets there.  Rounding
up is monotone, so the queue's order by key is the engine's order too,
and `_sweep` serves each queue once: one gather and one sort, then
`lcfs_pr` on the keys with works n_slots * R, and on their slot
ceilings with packet counts.

The emulation's guarantee is local to each queue: every flow leaves it
by the slot boundary that covers its reference departure.  So `run_ct`
checks each queue as it is served.  While the queues are served it
holds, per flow, only the key the flow carries to its next queue, and
then only the engine's departure slot from its last queue.  Per-hop records are derived when
read: `CtResult.hop_records` runs the same sweep again.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, EmulationInfeasibilityError, InternalConsistencyError,
                     StabilityViolationError)
from .topology import LoadProfile, QueueNode, Route, _queue_rates, queue_paths, require_admissible
from .flow_gen import FlowType


def slot_ceil(t: float, eps: float) -> int:
    """Smallest slot index k >= 0 with k*eps >= t, where a ratio t/eps
    within 1e-9 of an integer snaps to it: a size that is whole slots in
    exact arithmetic keeps that packet count through float noise."""
    r = t / eps
    return max(math.ceil(r - 1e-9 * max(r, 1.0)), 0)


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
    where nu_v counts flows per unit time entering queue v; the first
    minimum runs over queues with nu_v > 0 and is +inf when there are none.  The chosen
    value keeps every rounded load f_eps_v at least (c0-1)/c0 of the way
    to its unrounded gap, which is asserted; `rule_violations` checks an override.
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
        nu = _queue_rates(profile.routes, profile.lam, lambda x: 1.0)
        per_queue = [(1.0 - fv) / (c0 * nu[q]) for q, fv in profile.f.items() if nu[q] > 0]
        per_route = [1.0 - rho for rho in profile.rho.values()]
        eps = min(min(per_queue, default=math.inf), min(per_route))

    x_eps: dict[float, float] = {}
    n_slots: dict[float, int] = {}
    for x in profile.sizes():
        k = slot_ceil(x, eps)
        n_slots[x] = k
        x_eps[x] = eps * k

    f_eps = _queue_rates(profile.routes, profile.lam, x_eps.__getitem__)
    for q, fe in f_eps.items():
        if fe >= 1.0:
            raise StabilityViolationError(f"rounded load at {q} reaches capacity: {fe}")
    config = EpsilonConfig(epsilon=eps, c0=float(c0), x_eps=x_eps, n_slots=n_slots, f_eps=f_eps)
    if override is None and (broken := rule_violations(profile, config)):
        raise InternalConsistencyError(f"slot rule failed its guarantee: {'; '.join(broken)}")
    return config


def rule_violations(profile: LoadProfile, eps: EpsilonConfig) -> list[str]:
    """Where a slot length leaves the slot rule's guarantees, on which the
    scheduling bound rests: every queue's rounded gap 1 - f_eps_v at least
    (c0-1)/c0 of its gap 1 - f_v, and eps <= 1 - rho_j on every route j."""
    floor = {q: (eps.c0 - 1.0) / eps.c0 * (1.0 - fv) for q, fv in profile.f.items()}
    return ([f"rounded gap {1.0 - fe!r} at {q} is below the floor {floor[q]!r}"
             for q, fe in eps.f_eps.items() if 1.0 - fe < floor[q] - 1e-12]
            + [f"slot length {eps.epsilon!r} exceeds 1 - rho = {1.0 - rho!r} on route {j}"
               for j, rho in sorted(profile.rho.items()) if eps.epsilon > 1.0 - rho])


@dataclass(eq=False)
class CtResult:
    """The reference run and the slot engine's run on it, held per flow.

    Flows are numbered in arrival order, (t, uid), the order of the
    injections `run_ct` took: flow f has uid `uid[f]`, type `types[ti[f]]`
    and injection instant `t_inject[f]`, the three columns of those
    injections, not copies.  A type-k flow crosses the queues `paths[k]`,
    indices into `queues`, with `pkts[k]` packets at each.  It is
    injected at the lattice key `inject_key[f]`, where key k stands for
    I * epsilon + residue[rank], with I, rank = divmod(k, len(residue)),
    and the slot engine's flow leaves its last queue when slot
    `last_slot[f]` begins.  Nothing is kept per flow-hop: `hop_records`
    serves the queues again and returns every flow-hop's keys and slots.
    """

    epsilon: float
    types: tuple[FlowType, ...]
    queues: tuple[QueueNode, ...]
    paths: tuple[tuple[int, ...], ...]   # per type
    pkts: np.ndarray        # int64, one entry per type
    uid: np.ndarray         # int64, one entry per flow
    ti: np.ndarray          # int64, one entry per flow
    t_inject: np.ndarray    # float64, one entry per flow
    residue: np.ndarray     # float64, one entry per rank
    inject_key: np.ndarray  # int64, one entry per flow
    last_slot: np.ndarray   # int64, one entry per flow

    def slot(self, key: np.ndarray) -> np.ndarray:
        """The first slot boundary at or after each keyed instant, I + (r > 0)."""
        return -(-key // len(self.residue))

    def instant(self, key: np.ndarray) -> np.ndarray:
        """The float instant of each key, I * eps + r."""
        whole, rank = np.divmod(key, len(self.residue))
        return whole * self.epsilon + self.residue[rank]

    @property
    def n_hops(self) -> np.ndarray:
        """Each flow's count of queues."""
        return np.array([len(p) for p in self.paths], dtype=np.int64)[self.ti]

    def hop_records(self) -> HopRecords:
        """Every flow-hop's departure key and slot, from the queues served
        again as `run_ct` served them."""
        offsets = np.zeros(len(self.uid) + 1, dtype=np.int64)
        np.cumsum(self.n_hops, out=offsets[1:])
        delta_key, delta_slot = np.zeros((2, offsets[-1]), dtype=np.int64)
        hop = np.zeros(len(self.types), dtype=np.int64)
        for run in _sweep(self):
            for k, h in run.pairs:
                hop[k] = h
            o = offsets[run.flow] + hop[self.ti[run.flow]]
            delta_key[o] = run.depart
            delta_slot[o] = run.depart_slot
            del run, o   # freed before the next queue is served
        return HopRecords(ct=self, offsets=offsets, delta_key=delta_key, delta_slot=delta_slot)

    @property
    def taus(self) -> dict[int, list[float]]:
        """uid -> arrival instant at each queue.  Only the benchmark's stage
        tracer reads it, to count flow-hops (ROADMAP items 1 and 2)."""
        hops = self.hop_records()
        tau, bounds = hops.tau.tolist(), hops.offsets.tolist()
        return {u: tau[a:b] for u, a, b in zip(self.uid.tolist(), bounds, bounds[1:])}


@dataclass(frozen=True, eq=False)
class HopRecords:
    """Every flow-hop of the run `ct`, flows in arrival order, then route
    order: flow f's hop-th queue is flow-hop `offsets[f] + hop`.  It
    leaves that queue at the lattice key `delta_key` there, and the slot
    engine's flow leaves it when slot `delta_slot` begins.  Hops take no
    time, so a flow arrives at each later queue as it leaves the one
    before, and `tau_key` builds every arrival key when read."""

    ct: CtResult
    offsets: np.ndarray     # int64, one entry per flow plus the total flow-hop count
    delta_key: np.ndarray   # int64, one entry per flow-hop
    delta_slot: np.ndarray  # int64, one entry per flow-hop

    @property
    def tau_key(self) -> np.ndarray:
        """Arrival keys: a flow's injection key at its first queue, and at
        each later queue its departure key from the queue before."""
        tau = np.empty_like(self.delta_key)
        tau[1:] = self.delta_key[:-1]
        tau[self.offsets[:-1]] = self.ct.inject_key
        return tau

    @property
    def tau(self) -> np.ndarray:
        """Arrival instants.  A flow arrives at its first queue at the
        injection instant it was given, which its key, I * eps + r, can
        miss by an ulp."""
        tau = self.ct.instant(self.tau_key)
        tau[self.offsets[:-1]] = self.ct.t_inject
        return tau

    @property
    def delta(self) -> np.ndarray:
        return self.ct.instant(self.delta_key)


def lcfs_pr(arrive: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Serve one queue preemptive-LCFS, in either network, in closed form:
    the Lindley workload recursion (Lindley 1952) read the LCFS-PR way
    (Kleinrock, "Queueing Systems" vol. 1).

    `arrive` lists the queue's arrival instants in priority order, as
    int64 lattice keys or slot indices: ascending, equal arrivals in
    ascending uid, so each arrival outranks every flow already waiting.
    `work` gives their int64 works in the same units.  Returns each
    arrival's departure.

    Everything that arrives while flow k is present is served before k
    resumes.  So, with `done[k]` the work of the arrivals before k, flow
    k departs at `arrive[k] + (done[j] - done[k])` for the first later j
    that arrives no earlier than that, or j = n, the queue draining, when
    there is none: at one instant the head finishes before an arrival is
    taken.  That is the first later j whose lead, `arrive[j] - done[j]`,
    is at least k's.  The search jumps pointers: a candidate j that fails
    hands over its own candidate, since every arrival it skipped comes too
    early for it, and so for k.
    """
    n = len(arrive)
    done = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(work, out=done[1:])
    lead = np.empty(n + 1, dtype=np.int64)
    np.subtract(arrive, done[:-1], out=lead[:-1])
    lead[n] = np.iinfo(np.int64).max   # the queue draining finishes every flow
    ender = np.arange(1, n + 1)
    open_ = np.flatnonzero(lead[1:] < lead[:-1])
    while open_.size:
        j = ender[open_] = ender[ender[open_]]
        open_ = open_[lead[j] < lead[open_]]
    departs = done[ender]
    departs += lead[:-1]
    return departs


class QueueRun(NamedTuple):
    """One queue served in both networks: the (type, hop) pairs that
    visit it, its flows in priority order, ascending arrival key, then
    uid, and each one's reference departure key and slot-engine
    departure slot."""

    queue: int
    pairs: list[tuple[int, int]]
    flow: np.ndarray
    depart: np.ndarray
    depart_slot: np.ndarray


def _sweep(ct: CtResult) -> Iterator[QueueRun]:
    """Serve the queues of `ct` in index order, each after every queue
    that feeds it.  Each flow carries one key: its injection, then its
    departure from each queue served so far, which is its arrival at the
    next queue on its route.  A queue gathers its flows, sorts them by
    (key, uid) and serves them with `lcfs_pr` twice: on the keys with
    works n_slots * R, and on their slot ceilings with packet counts.
    Its departure keys are written back once the caller has read them."""
    visits: list[list[tuple[int, int]]] = [[] for _ in ct.queues]
    for k, path in enumerate(ct.paths):
        for h, q in enumerate(path):
            visits[q].append((k, h))
    key = ct.inject_key.copy()
    n_ranks = len(ct.residue)
    for q, pairs in enumerate(visits):
        if not pairs:
            continue
        visiting = np.zeros(len(ct.types), dtype=bool)
        visiting[[k for k, _ in pairs]] = True
        flow = np.flatnonzero(visiting[ct.ti])
        arrive = key[flow]
        by_key = np.lexsort((ct.uid[flow], arrive))
        flow, arrive = flow[by_key], arrive[by_key]
        del by_key
        n_pkts = ct.pkts[ct.ti[flow]]
        run = QueueRun(q, pairs, flow, lcfs_pr(arrive, n_pkts * n_ranks),
                       lcfs_pr(ct.slot(arrive), n_pkts))
        del arrive, n_pkts   # freed before the caller reads the run
        yield run
        key[run.flow] = run.depart
        del run   # freed before the next queue is gathered


def run_ct(
    injections: np.ndarray,
    routes: list[Route],
    types: tuple[FlowType, ...],
    eps: EpsilonConfig,
) -> CtResult:
    """Simulate the reference network for injections given as a `FLOW`
    array in arrival order, (t, uid), t >= 0 the injection instant, and
    the slot engine on it; check the engine at every flow-hop.

    Flow f is the f-th injection, and the result keeps the injections'
    columns.  The queues are served by `_sweep`; of each queue's run
    only the last departure slot of every flow is kept, and each
    engine departure is compared with the slot ceiling of its reference
    departure, exactly in integers.  Raises ConfigError for injections
    out of arrival order, an injection before 0 or a run spanning more
    slots than int64 lattice keys can hold, and, after every queue is
    served, EmulationInfeasibilityError naming the late flow-hop first
    in (uid, hop) order.
    """
    t_inject, ti, uid = injections["t"], injections["ti"], injections["uid"]
    later = ((t_inject[1:] > t_inject[:-1])
             | ((t_inject[1:] == t_inject[:-1]) & (uid[1:] > uid[:-1])))
    if not later.all():
        f = int(np.argmin(later)) + 1
        raise ConfigError(f"injections out of arrival order (t, uid): flow {uid[f]} at "
                          f"{float(t_inject[f])!r} comes after flow {uid[f - 1]} at "
                          f"{float(t_inject[f - 1])!r}")
    queues, route_paths = queue_paths(routes)
    paths = tuple(route_paths[t.route] for t in types)

    residual = np.fmod(t_inject, eps.epsilon)
    whole = np.rint((t_inject - residual) / eps.epsilon)
    residue, rank = np.unique(np.append(0.0, residual), return_inverse=True)
    n_ranks = len(residue)
    pkts = np.array([eps.n_slots[t.size] for t in types], dtype=np.int64)
    hops = np.array([len(p) for p in paths], dtype=np.int64)
    # no key exceeds the last injection plus every packet of the run
    if len(uid) and (t_inject[0] < 0 or
                     (whole[-1] + float((pkts * hops)[ti].sum()) + 1) * n_ranks >= 2.0 ** 63):
        raise ConfigError(f"injections before 0 or past int64 keys at slot length {eps.epsilon}")
    inject = whole.astype(np.int64) * n_ranks + rank[1:]
    del residual, whole, rank   # freed before the queues are served
    ct = CtResult(epsilon=eps.epsilon, types=types, queues=tuple(queues), paths=paths, pkts=pkts,
                  uid=uid, ti=ti, t_inject=t_inject, residue=residue, inject_key=inject,
                  last_slot=np.zeros(len(uid), dtype=np.int64))

    first_late = None   # (uid, hop, queue, slot, bound)
    for run in _sweep(ct):
        # queues are served in route order, so the last write is the last hop's
        ct.last_slot[run.flow] = run.depart_slot
        late = np.flatnonzero(run.depart_slot > ct.slot(run.depart))
        if late.size:
            i = late[np.argmin(uid[run.flow[late]])]
            f = run.flow[i]
            found = (int(uid[f]), dict(run.pairs)[int(ti[f])], run.queue,
                     int(run.depart_slot[i]), int(ct.slot(run.depart[i])))
            if first_late is None or found < first_late:
                first_late = found
        del run, late   # freed before the next queue is served
    if first_late is not None:
        u, _, q, s, bound = first_late
        raise EmulationInfeasibilityError(
            f"flow {u} left {queues[q]} in slot {s}, reference bound is {bound}")
    return ct
