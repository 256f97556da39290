"""Continuous-time reference network with preemptive LCFS at every queue,
and the slotted engine that emulates it, served in one pass.

Flows enter at their injection instants, require a slot-rounded service
x_eps = eps * ceil(x / eps) at every queue on their route, and hop with
zero transfer latency.  The newest arrival at a queue always preempts;
preempted work resumes where it left off.  The per-flow, per-queue
departure instants recorded here, and the arrivals they make at the
next queue, drive the discrete-time emulation and its invariant check.

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
and `run_ct` serves each queue once: one gather and one sort, then
`lcfs_pr` on the keys with works n_slots * R, and on their slot
ceilings with packet counts.  It keeps the engine's departure slot at
every flow-hop and marks the flow-hops that open its busy periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InternalConsistencyError, StabilityViolationError
from .topology import LoadProfile, QueueNode, Route, queue_paths, require_admissible
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
        per_queue = []
        for q, fv in profile.f.items():
            nu = profile.flow_rate_at(q)
            if nu > 0:
                per_queue.append((1.0 - fv) / (c0 * nu))
        per_route = [1.0 - rho for rho in profile.rho.values()]
        eps = min(min(per_queue, default=math.inf), min(per_route))

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
    """Per-flow, per-hop arrival/departure instants along each route, and
    the slot engine's run on them.

    Flows are numbered in arrival order, (t, uid), here and nowhere else:
    flow f has uid `uid[f]`, type `types[ti[f]]`, the injection instant
    `t_inject[f]` it was given, and stood at position `order[f]` in the
    injections.  It leaves the hop-th queue of its route at the lattice
    key `delta_key[offsets[f] + hop]`, and the slot engine's flow leaves
    it when slot `delta_slot[offsets[f] + hop]` begins; key k stands for
    I * epsilon + residue[rank], with I, rank = divmod(k, len(residue)).
    Hops take no time, so of a flow's arrivals only the first,
    `inject_key[f]`, is stored: it reaches each later queue as it leaves
    the one before, and `tau_key` builds every arrival key when read.
    `opens` marks the flow-hops that open one of the engine's busy periods
    at their queue.
    """

    epsilon: float
    types: tuple[FlowType, ...]
    uid: np.ndarray        # int64, one entry per flow
    ti: np.ndarray         # int64, one entry per flow
    order: np.ndarray      # int64, one entry per flow
    offsets: np.ndarray    # int64, one entry per flow plus the total flow-hop count
    t_inject: np.ndarray   # float64, one entry per flow
    residue: np.ndarray    # float64, one entry per rank
    inject_key: np.ndarray  # int64, one entry per flow
    delta_key: np.ndarray  # int64, one entry per flow-hop
    delta_slot: np.ndarray  # int64, one entry per flow-hop
    opens: np.ndarray      # bool, one entry per flow-hop

    def slot(self, key: np.ndarray) -> np.ndarray:
        """The first slot boundary at or after each keyed instant, I + (r > 0)."""
        return -(-key // len(self.residue))

    def instant(self, key: np.ndarray) -> np.ndarray:
        """The float instant of each key, I * eps + r."""
        whole, rank = np.divmod(key, len(self.residue))
        return whole * self.epsilon + self.residue[rank]

    @property
    def tau_key(self) -> np.ndarray:
        """Arrival keys, one per flow-hop, built when read: a flow's
        injection key at its first queue, and at each later queue its
        departure key from the queue before."""
        tau = np.empty_like(self.delta_key)
        tau[1:] = self.delta_key[:-1]
        tau[self.offsets[:-1]] = self.inject_key
        return tau

    @property
    def tau(self) -> np.ndarray:
        """Arrival instants.  A flow arrives at its first queue at the
        injection instant it was given, which its key, I * eps + r, can
        miss by an ulp."""
        tau = self.instant(self.tau_key)
        tau[self.offsets[:-1]] = self.t_inject
        return tau

    @property
    def delta(self) -> np.ndarray:
        return self.instant(self.delta_key)

    @property
    def taus(self) -> dict[int, list[float]]:
        """uid -> arrival instant at each queue.  Only the benchmark's stage
        tracer reads it, to count flow-hops (ROADMAP items 1 and 2)."""
        tau, bounds = self.tau.tolist(), self.offsets.tolist()
        return {u: tau[a:b] for u, a, b in zip(self.uid.tolist(), bounds, bounds[1:])}


def lcfs_pr(arrive: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Serve one queue preemptive-LCFS, in either network, in closed form:
    the Lindley workload recursion (Lindley 1952) read the LCFS-PR way
    (Kleinrock, "Queueing Systems" vol. 1).

    `arrive` lists the queue's arrival instants in priority order, as
    int64 lattice keys or slot indices: ascending, equal arrivals in
    ascending uid, so each arrival outranks every flow already waiting.
    `work` gives their int64 works in the same units.  Returns each
    arrival's departure and the indices of the arrivals that open a busy
    period; a busy period ends at its opener's departure.

    Everything that arrives while flow k is present is served before k
    resumes.  So, with `done[k]` the work of the arrivals before k, flow
    k departs at `arrive[k] + (done[j] - done[k])` for the first later j
    that arrives no earlier than that, or j = n, the queue draining, when
    there is none: at one instant the head finishes before an arrival is
    taken.  That is the first later j whose lead, `arrive[j] - done[j]`,
    is at least k's.  The search jumps pointers: a candidate j that fails
    hands over its own candidate, since every arrival it skipped comes too
    early for it, and so for k.  Flow k opens a busy period when no
    earlier flow is still waiting at its arrival.
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
    # the furthest arrival that a flow up to k waits for is k + 1 exactly
    # when k ends a busy period, and the next arrival opens one
    np.maximum.accumulate(ender, out=ender)
    last = np.flatnonzero(ender == np.arange(1, n + 1))
    return departs, np.concatenate(([0], last[:-1] + 1)) if n else last


def run_ct(
    injections: np.ndarray,
    routes: list[Route],
    types: tuple[FlowType, ...],
    eps: EpsilonConfig,
) -> CtResult:
    """Simulate the reference network for injections given as a `FLOW`
    array, t >= 0 the injection instant, in any order, and the slot
    engine on it.

    This is where flows get their numbers: arrival order, (t, uid).  The
    queues are served by `lcfs_pr` in index order, which serves each
    after every queue that feeds it; a flow arrives at its next queue the
    instant it leaves one, so each queue gathers its arrivals from the
    injection keys and the departure keys already written, and only the
    departures are stored per flow-hop.  Raises ConfigError for an
    injection before 0 or a run spanning more slots than int64 lattice
    keys can hold.
    """
    queues, route_paths = queue_paths(routes)
    paths = [route_paths[t.route] for t in types]

    order = np.lexsort((injections["uid"], injections["t"]))
    ti, uid = injections["ti"][order], injections["uid"][order]   # flows in arrival order
    t_inject = injections["t"][order]
    residual = np.fmod(t_inject, eps.epsilon)
    whole = np.rint((t_inject - residual) / eps.epsilon)
    residue, rank = np.unique(np.append(0.0, residual), return_inverse=True)
    n_ranks = len(residue)
    pkts = np.array([eps.n_slots[t.size] for t in types], dtype=np.int64)
    hops = np.array([len(p) for p in paths], dtype=np.int64)
    # no key exceeds the last injection plus every packet of the run
    if len(order) and (t_inject[0] < 0 or
                       (whole[-1] + float((pkts * hops)[ti].sum()) + 1) * n_ranks >= 2.0 ** 63):
        raise ConfigError(f"injections before 0 or past int64 keys at slot length {eps.epsilon}")
    offsets = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(hops[ti], out=offsets[1:])
    inject = whole.astype(np.int64) * n_ranks + rank[1:]
    del residual, whole, rank   # freed before the queues are served
    delta, delta_slot = np.zeros((2, offsets[-1]), dtype=np.int64)
    opens = np.zeros(offsets[-1], dtype=bool)
    ct = CtResult(epsilon=eps.epsilon, types=types, uid=uid, ti=ti, order=order, offsets=offsets,
                  t_inject=t_inject, residue=residue, inject_key=inject, delta_key=delta,
                  delta_slot=delta_slot, opens=opens)

    # each queue's (type, hop) pairs; the flows of type k, of_type[k], have
    # their hop-h flow-hops at offsets[of_type[k]] + h
    visits: list[list[tuple[int, int]]] = [[] for _ in queues]
    for k, path in enumerate(paths):
        for h, q in enumerate(path):
            visits[q].append((k, h))
    of_type = [np.flatnonzero(ti == k) for k in range(len(types))]
    for pairs in visits:
        if not pairs:
            continue
        ks = [k for k, _ in pairs]
        # the queue's arrivals: at a flow's first queue its injection, at a
        # later one its departure from the queue before; then its flow-hops
        # and packet counts, each put in priority order, ascending key, then
        # uid, as it is gathered
        arrive = np.concatenate([delta[offsets[of_type[k]] + (h - 1)] if h else inject[of_type[k]]
                                 for k, h in pairs])
        by_key = np.lexsort((uid[np.concatenate([of_type[k] for k in ks])], arrive))
        arrive = arrive[by_key]
        offs = np.concatenate([offsets[of_type[k]] + h for k, h in pairs])[by_key]
        n_pkts = np.repeat(pkts[ks], [len(of_type[k]) for k in ks])[by_key]
        del by_key
        delta[offs] = lcfs_pr(arrive, n_pkts * n_ranks)[0]
        delta_slot[offs], opener = lcfs_pr(ct.slot(arrive), n_pkts)
        opens[offs[opener]] = True
        del arrive, offs, n_pkts, opener   # freed before the next queue gathers
    return ct

