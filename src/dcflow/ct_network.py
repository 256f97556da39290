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
that feeds it.  `lcfs_pr` serves one queue in closed form, on arrays;
the slot engine in `dt_network` runs it on slot indices and packet
counts, so both networks order ties alike: at one instant a completion
comes first, then equal arrivals stack in uid order, the larger uid on
top.

The closed form is the Lindley workload recursion (Lindley 1952) read
the LCFS-PR way (Kleinrock, "Queueing Systems" vol. 1).  Take a queue's
arrivals in priority order, k = 0, 1, ..., at instants t_k with works
x_k, and let W_k = x_0 + ... + x_k.  Everything that arrives while k is
present is served before k resumes, so k departs at
t_k + (W_{j-1} - W_{k-1}) for the first later arrival j that finds that
work done, t_j >= t_k + (W_{j-1} - W_{k-1}); with no such j, k leaves
when the queue drains.  The queue is empty when k arrives exactly when
no earlier flow waits past k's arrival: k then opens a busy period,
which ends at k's departure.  In floats, a completion within 2**-50 of
an arrival, relative to the instant, counts as at it, so a tie that
float noise would otherwise turn into a preemption stays a tie.

`run_ct` takes the virtual net's flows as one `flow_gen.FLOW` array,
t the injection instant.  The instants are stored flat, one float array
each for arrivals and departures indexed by flow-hop offset.  `run_ct`
numbers the flows, once: the slot engine, its ledger and the hop tables
all read `CtResult`'s per-flow columns by these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InternalConsistencyError, StabilityViolationError
from .topology import LoadProfile, QueueNode, Route, queue_paths, require_admissible
from .flow_gen import FlowType

_GUARD = 1e-9
_TIE = 2.0 ** -50   # relative: four to eight units in the last place


def slot_ceil(t, eps: float):
    """Smallest slot index k with k*eps >= t, with a relative guard band.

    A ratio within 1e-9 of an integer snaps to that integer before the
    ceiling, so boundary values survive float noise.  `t` is a number, for
    which a Python int is returned, or an array, for which an int64 array
    is returned elementwise.
    """
    r = np.divide(t, eps)
    k = np.maximum(np.ceil(r - _GUARD * np.maximum(r, 1.0)), 0.0).astype(np.int64)
    return k if k.ndim else int(k)


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


@dataclass(eq=False)
class CtResult:
    """Per-flow, per-hop arrival/departure instants along each route.

    Flows are numbered in arrival order, (t, uid), and every later stage
    reads them by these numbers: flow f has uid `uid[f]`, type index
    `ti[f]`, and stood at position `order[f]` in the injections `run_ct`
    was given.  Its instants at the hop-th queue of its route are
    `tau[offsets[f] + hop]` and `delta[offsets[f] + hop]`, as `lcfs_pr`
    left them: at one instant a queue completes its head before it takes
    an arrival, and takes equal arrivals in uid order.
    """

    uid: np.ndarray      # int64, one entry per flow
    ti: np.ndarray       # int64, one entry per flow
    order: np.ndarray    # int64, one entry per flow
    offsets: np.ndarray  # int64, one entry per flow plus the total flow-hop count
    tau: np.ndarray      # float64, one entry per flow-hop
    delta: np.ndarray    # float64, one entry per flow-hop

    @property
    def t_inject(self) -> np.ndarray:
        return self.tau[self.offsets[:-1]]

    @property
    def taus(self) -> dict[int, list[float]]:
        """uid -> arrival instant at each queue, built when read.  Only the
        benchmark's stage tracer reads it, to count flow-hops; it goes
        when the tracer reads `len(tau)` instead (ROADMAP item 1)."""
        tau = self.tau.tolist()
        bounds = self.offsets.tolist()
        return {u: tau[a:b] for u, a, b in zip(self.uid.tolist(), bounds, bounds[1:])}


def lcfs_pr(arrive: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Serve one queue preemptive-LCFS, in either network, in closed form.

    `arrive` lists the queue's arrival instants in priority order:
    ascending, equal arrivals in ascending uid, so each arrival outranks
    every flow already waiting.  `work` gives their works, in floats or
    in integers alike.  Returns each arrival's departure and the indices
    of the arrivals that open a busy period; a busy period ends at its
    opener's departure.

    With `done[k]` the work of the arrivals before k, flow k departs at
    `arrive[k] + (done[j] - done[k])` for the first later j that arrives
    no earlier than that, or j = n, the queue draining, when there is
    none.  At one instant the head finishes before an arrival is taken;
    in floats a finish within `_TIE` of the arrival, relative to the
    instant, counts as at it and departs at the arrival instant, so float
    noise does not turn a tie into a preemption.  The search jumps
    pointers: a candidate j that fails hands over its own candidate, since
    every arrival it skipped comes too early for it, and so for k.  Flow k
    opens a busy period when no earlier flow is still waiting at its
    arrival.
    """
    n = len(arrive)
    done = np.zeros(n + 1, dtype=work.dtype)
    np.cumsum(work, out=done[1:])
    top = np.inf if arrive.dtype.kind == "f" else np.iinfo(arrive.dtype).max
    at = np.append(arrive, top)   # arrival n stands for the queue draining

    def finished_by(k, j):
        """Whether flow k, preempted by the flows k+1..j-1, is done when j arrives."""
        finish = arrive[k] + (done[j] - done[k])
        if finish.dtype.kind == "f":
            finish -= _TIE * np.abs(finish)
        return at[j] >= finish

    k = np.arange(n)
    ender = k + 1
    open_ = np.flatnonzero(~finished_by(k, ender))
    while open_.size:
        ender[open_] = ender[ender[open_]]
        open_ = open_[~finished_by(open_, ender[open_])]
    departs = np.minimum(arrive + (done[ender] - done[:-1]), at[ender])
    # the furthest arrival that a flow before k waits for
    waits_for = np.maximum.accumulate(np.append(0, ender))[:-1]
    return departs, np.flatnonzero(waits_for <= k)


class QueueSegments:
    """Where each queue's flow-hops sit, per (type, hop).

    Built from per-flow columns in flow order: type indices `ti`, uids
    `uid` and first flow-hop offsets `first`.  The flows of type k have
    their first flow-hop at offsets `self.first[k]` and uids
    `self.uids[k]`; their hop-h flow-hops are `self.first[k] + h`.
    `gather(q, tau)` collects queue q's flow-hops and returns them in priority
    order, ascending `tau`, then uid: offsets, uids and, for each, the
    index of its (type, hop) pair in `segments[q]`.
    """

    def __init__(self, n_queues: int, paths: list[tuple[int, ...]],
                 ti: np.ndarray, uid: np.ndarray, first: np.ndarray):
        self.segments: list[list[tuple[int, int]]] = [[] for _ in range(n_queues)]
        for k, path in enumerate(paths):
            for h, q in enumerate(path):
                self.segments[q].append((k, h))
        of_type = [np.flatnonzero(ti == k) for k in range(len(paths))]
        self.first = [first[f] for f in of_type]
        self.uids = [uid[f] for f in of_type]

    def gather(self, q: int, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        segs = self.segments[q]
        offs = np.concatenate([self.first[k] + h for k, h in segs])
        uids = np.concatenate([self.uids[k] for k, _ in segs])
        seg = np.repeat(np.arange(len(segs)), [len(self.first[k]) for k, _ in segs])
        order = np.lexsort((uids, tau[offs]))
        return offs[order], uids[order], seg[order]


def run_ct(
    injections: np.ndarray,
    routes: list[Route],
    types: tuple[FlowType, ...],
    eps: EpsilonConfig,
) -> CtResult:
    """Simulate the reference network for injections given as a `FLOW`
    array, t the injection instant, in any order.

    This is where flows get their numbers: arrival order, (t, uid).  The
    queues are served by `lcfs_pr` in index order, which serves each
    after every queue that feeds it; a flow arrives at its next queue the
    instant it leaves one.
    """
    queues, route_paths = queue_paths(routes)
    paths = [route_paths[t.route] for t in types]

    order = np.lexsort((injections["uid"], injections["t"]))
    ti, uid = injections["ti"][order], injections["uid"][order]   # flows in arrival order
    offsets = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(np.array([len(p) for p in paths], dtype=np.int64)[ti], out=offsets[1:])
    tau = np.zeros(offsets[-1])
    delta = np.zeros(offsets[-1])
    tau[offsets[:-1]] = injections["t"][order]

    by_queue = QueueSegments(len(queues), paths, ti, uid, offsets[:-1])
    for q, segs in enumerate(by_queue.segments):
        if not segs:
            continue
        offs, _, seg = by_queue.gather(q, tau)
        work = np.array([eps.x_eps[types[k].size] for k, _ in segs])[seg]
        departs, _ = lcfs_pr(tau[offs], work)
        delta[offs] = departs
        onward = np.array([h + 1 < len(paths[k]) for k, h in segs])[seg]
        tau[offs[onward] + 1] = departs[onward]

    return CtResult(uid=uid, ti=ti, order=order, offsets=offsets, tau=tau, delta=delta)


def write_ct_table(result: CtResult, types: tuple[FlowType, ...], routes: list[Route],
                   path: str) -> None:
    """CSV table `uid,node,tau,delta`, one row per flow per hop."""
    by_id = {r.id: r for r in routes}
    qpaths = [by_id[t.route].queue_path for t in types]
    offsets, uids, tis = result.offsets.tolist(), result.uid.tolist(), result.ti.tolist()
    with open(path, "w") as fh:
        fh.write("# dcflow ct-table v1\n")
        fh.write("uid,node,tau,delta\n")
        for f in np.argsort(result.uid).tolist():
            a, b = offsets[f], offsets[f + 1]
            for q, tau, delta in zip(qpaths[tis[f]], result.tau[a:b].tolist(),
                                     result.delta[a:b].tolist()):
                fh.write(f"{uids[f]},{q},{tau!r},{delta!r}\n")
