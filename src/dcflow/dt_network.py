"""Slotted packet network that emulates the continuous reference network.

Flows are split into slot-sized packets.  A node transmits at most one
packet per slot.  Scheduling is preemptive LCFS keyed not on a flow's
actual arrival instant but on its schedule time S = eps * ceil(tau / eps),
where tau is the flow's arrival instant at the same queue in the
continuous reference run; ties prefer the larger tau, then the larger
uid.  Packets of a flow only become transmittable once the whole flow is
present, and a packet sent during slot k is available at the next queue
when the slot ends.

The queues never interact.  A flow becomes transmittable at a queue at
its schedule slot there, which depends only on its reference arrival tau
at that queue, not on when its last packet left the previous queue.  So
each queue is an LCFS server driven by its own reference arrivals alone,
and the engine serves the queues one at a time.  A queue's activations,
sorted by tau, come in priority order, so the reference network's closed
form, `ct_network.lcfs_pr`, serves it, with schedule slots for instants
and packet counts for work: a flow leaves at its schedule slot plus the
packets of every activation it waits under, its own included.  Sent
packets then equal demanded packets by construction.  Departure slots
go into one integer array at the reference run's flow-hop offsets; a
ledger row builds its per-queue trail from these shared records when it
is read.

What couples the queues is checked, not simulated.  Two sample-path
invariants are asserted for every flow at every queue, as exact integer
slot comparisons:

  * the flow has fully arrived by its schedule time (A <= S), and
  * it departs no later than the slot boundary that covers its
    continuous-time departure (Delta <= eps * ceil(delta / eps)).

If the first holds everywhere, every flow is present when its schedule
slot comes, so activating it there is what the coupled network does, and
the per-queue runs are that network's run.  A violation raises
EmulationInfeasibilityError naming the flow and queue; of several, the
one met first in uid order, and within a flow in route order.

The delay ledger is columnar: one array per column, rows in
(t_arrive, uid) order.  `DelayLedger.rows` builds `FlowDelayRecord` row
views when read.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .ct_network import (CtResult, EpsilonConfig, QueueSegments, injection_columns, lcfs_pr,
                         slot_ceil)
from .errors import EmulationInfeasibilityError, InternalConsistencyError
from .flow_gen import FlowType
from .topology import Route, queue_paths


@dataclass(eq=False, slots=True)
class _HopTrail:
    """The per-hop records every row of one ledger reads its `hops` from:
    the reference run's instants and the slot engine's departure slots,
    both indexed by the reference run's flow-hop offsets."""

    ct: CtResult
    delta_slots: array
    eps: float
    s_slots: np.ndarray | None = None   # every flow-hop's schedule slot, set on the first read

    def hops(self, uid: int, t_inject: float) -> tuple[tuple[float, float, float, int, int], ...]:
        ct, eps = self.ct, self.eps
        if self.s_slots is None:
            self.s_slots = slot_ceil(np.frombuffer(ct.tau, dtype=np.float64), eps)
        f = ct.index[uid]
        o, e = ct.offsets[f], ct.offsets[f + 1]
        d_slots = self.delta_slots[o:e]
        # a flow is fully present at its next queue when its last packet's slot ends
        a_times = [t_inject] + [d * eps for d in d_slots[:-1]]
        return tuple(zip(ct.tau[o:e], ct.delta[o:e], a_times, self.s_slots[o:e].tolist(), d_slots))


@dataclass(eq=False, slots=True)
class FlowDelayRecord:
    """One ledger row: a flow's delay decomposition plus its per-queue
    timestamp trail.

    hops[i] = (tau, delta, a, s_slot, delta_slot) at the i-th queue of the
    route; continuous instants from the reference run, slot indices from
    the discrete run.  `hops` is built from the ledger's shared per-hop
    records each time it is read.
    """

    uid: int
    route: int
    size: float
    t_arrive: float
    t_inject: float
    d_w: float
    d_s: float
    d: float
    _trail: _HopTrail = field(repr=False)

    @property
    def hops(self) -> tuple[tuple[float, float, float, int, int], ...]:
        return self._trail.hops(self.uid, self.t_inject)

    def _key(self) -> tuple:
        return (self.uid, self.route, self.size, self.t_arrive, self.t_inject,
                self.d_w, self.d_s, self.d, self.hops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowDelayRecord):
            return NotImplemented
        return self._key() == other._key()


COLUMNS = ("uid", "route", "size", "t_arrive", "t_inject", "d_w", "d_s", "d")


@dataclass(eq=False)
class DelayLedger:
    """Per-flow delays, one array per column, rows in (t_arrive, uid)
    order.  D_W = t_inject - t_arrive, D_S = (last departure slot) * eps
    - t_inject and D = D_W + D_S; a negative uid marks a dummy flow."""

    epsilon: float
    trail: _HopTrail = field(repr=False)
    uid: np.ndarray
    route: np.ndarray
    size: np.ndarray
    t_arrive: np.ndarray
    t_inject: np.ndarray
    d_w: np.ndarray
    d_s: np.ndarray
    d: np.ndarray

    def __len__(self) -> int:
        return len(self.uid)

    @property
    def rows(self) -> list[FlowDelayRecord]:
        """Row views, built when read."""
        cols = (getattr(self, c).tolist() for c in COLUMNS)
        return [FlowDelayRecord(*row, self.trail) for row in zip(*cols)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DelayLedger):
            return NotImplemented
        return self.epsilon == other.epsilon and self.rows == other.rows


@dataclass
class DtRunResult:
    """`n_slots_processed` counts slots in which at least one queue sends
    a packet; `flow_hops_checked` counts flow-hops that passed both
    sample-path checks."""

    ledger: DelayLedger
    n_slots_processed: int
    n_transmissions: int
    flow_hops_checked: int


def _ledger(ct: CtResult, injections: Sequence[tuple[float, int, int]] | np.ndarray,
            types: tuple[FlowType, ...], eps: float, delta_slots: array,
            arrive_times: np.ndarray | None) -> DelayLedger:
    """The ledger of a slot engine's run.  `delta_slots` holds its
    departure slot at every flow-hop, at the reference run's flow-hop
    offsets."""
    t_inject, ti, uid = injection_columns(injections)
    t_arrive = t_inject if arrive_times is None else np.asarray(arrive_times, dtype=np.float64)
    order = np.lexsort((uid, t_arrive))
    t_inject, ti, uid, t_arrive = t_inject[order], ti[order], uid[order], t_arrive[order]
    f = ct.flows(uid)
    last = np.frombuffer(ct.offsets, dtype=np.int64)[f + 1] - 1
    d_w = t_inject - t_arrive
    d_s = np.frombuffer(delta_slots, dtype=np.int64)[last] * eps - t_inject
    return DelayLedger(
        epsilon=eps,
        trail=_HopTrail(ct, delta_slots, eps),
        uid=uid,
        route=np.array([t.route for t in types], dtype=np.int64)[ti],
        size=np.array([t.size for t in types], dtype=np.float64)[ti],
        t_arrive=t_arrive,
        t_inject=t_inject,
        d_w=d_w,
        d_s=d_s,
        d=d_w + d_s,
    )


def run_dt(
    ct: CtResult,
    injections: Sequence[tuple[float, int, int]] | np.ndarray,
    routes: list[Route],
    types: tuple[FlowType, ...],
    eps: EpsilonConfig,
    arrive_times: np.ndarray | None = None,
) -> DtRunResult:
    """Run the slot engine against a finished reference run.

    `injections` lists (t_inject, type_index, uid), as rows or as an
    `INJECTION` array; `arrive_times` holds each flow's external arrival,
    in the same order (defaults to its injection time).
    Every flow's hop records and injection are checked first; then each
    queue is served alone in its flows' schedule order, and the two checks
    that couple the queues run on its flow-hops.
    """
    epsv = eps.epsilon
    queues, route_paths = queue_paths(routes)
    paths = [route_paths[t.route] for t in types]
    offsets = np.frombuffer(ct.offsets, dtype=np.int64)
    tau = np.frombuffer(ct.tau, dtype=np.float64)
    delta = np.frombuffer(ct.delta, dtype=np.float64)

    t_inject, ti, uid = injection_columns(injections)
    f = ct.flows(uid)
    first = offsets[f]
    n_hops = np.array([len(p) for p in paths], dtype=np.int64)[ti]
    missing = offsets[f + 1] - first != n_hops
    late = t_inject > slot_ceil(tau[first], epsv) * epsv + 1e-9 * np.maximum(1.0, np.abs(t_inject))
    bad = np.flatnonzero(missing | late)
    if bad.size:
        i = bad[np.argmin(uid[bad])]
        if missing[i]:
            raise InternalConsistencyError(f"flow {uid[i]} is missing hop records")
        raise EmulationInfeasibilityError(f"flow {uid[i]} injected after its first schedule time")

    delta_slots = array("q", [0]) * len(ct.tau)
    departed = np.frombuffer(delta_slots, dtype=np.int64)
    of_type = [np.flatnonzero(ti == k) for k in range(len(types))]
    by_queue = QueueSegments(len(queues), paths, [first[i] for i in of_type],
                             [uid[i] for i in of_type])
    del t_inject, ti, f, first, of_type
    begins, ends = [], []   # every queue's busy periods
    faults = []             # (uid, hop, check, message): each queue's first violation
    for q, segs in enumerate(by_queue.segments):
        if not segs:
            continue
        offs, uids, seg = by_queue.gather(q, tau)
        # slot_ceil is monotone, so ascending tau is ascending (S, tau, uid):
        # each activation outranks every flow already waiting
        s_slot = slot_ceil(tau[offs], epsv)
        pkts = np.array([eps.n_slots[types[k].size] for k, _ in segs], dtype=np.int64)[seg]
        out, opens = lcfs_pr(s_slot, pkts)
        departed[offs] = out
        begins.append(s_slot[opens])
        ends.append(out[opens])

        # a route visits a queue once, so a queue's first violation in uid
        # order is its first in (uid, hop) order too
        hop = np.array([h for _, h in segs], dtype=np.int64)[seg]
        limit = slot_ceil(delta[offs], epsv)
        left_late = np.flatnonzero(out > limit)
        if left_late.size:
            i = left_late[np.argmin(uids[left_late])]
            faults.append((uids[i], hop[i], 0, f"flow {uids[i]} left {queues[q]} in slot "
                           f"{out[i]}, reference bound is {limit[i]}"))
        came = departed[offs - 1]   # the previous hop's departure, read at hop 0 too
        came_late = np.flatnonzero((hop > 0) & (came > s_slot))
        if came_late.size:
            i = came_late[np.argmin(uids[came_late])]
            faults.append((uids[i], hop[i] - 1, 1, f"flow {uids[i]} reached {queues[q]} in "
                           f"slot {came[i]}, after its schedule slot {s_slot[i]}"))
    if faults:
        raise EmulationInfeasibilityError(min(faults)[3])

    # The union of the busy periods.  Sorted apart, the i-th end is never
    # before the i-th begin, and the slots no queue sends in are the gaps
    # from the i-th end to the (i+1)-th begin.
    begins = np.sort(np.concatenate(begins)) if begins else np.zeros(0, dtype=np.int64)
    ends = np.sort(np.concatenate(ends)) if ends else np.zeros(0, dtype=np.int64)
    n_trans = int(ends.sum() - begins.sum())
    gaps = np.maximum(begins[1:] - ends[:-1], 0).sum()
    n_slots = int(ends[-1] - begins[0] - gaps) if begins.size else 0
    del by_queue, begins, ends
    return DtRunResult(
        ledger=_ledger(ct, injections, types, epsv, delta_slots, arrive_times),
        n_slots_processed=n_slots,
        n_transmissions=n_trans,
        flow_hops_checked=int(n_hops.sum()),
    )


LEDGER_VERSION = "# dcflow ledger v1"
LEDGER_COLUMNS = "uid,route,size,t_arrive,t_inject,D_W,D_S,D"


def _records(ledger: DelayLedger, names: tuple[str, ...], chunk: int = 4096):
    """The ledger's rows as tuples of Python numbers, `names` columns
    each, converted a chunk at a time."""
    for lo in range(0, len(ledger), chunk):
        yield from zip(*(getattr(ledger, c)[lo:lo + chunk].tolist() for c in names))


def write_ledger_csv(ledger: DelayLedger, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(LEDGER_VERSION + "\n")
        fh.write(LEDGER_COLUMNS + "\n")
        for uid, route, size, t_arrive, t_inject, d_w, d_s, d in _records(ledger, COLUMNS):
            fh.write(f"{uid},{route},{size!r},{t_arrive!r},{t_inject!r},{d_w!r},{d_s!r},{d!r}\n")


def write_hop_table_jsonl(ledger: DelayLedger, routes: list[Route], path: str) -> None:
    """Per-flow per-queue timestamps, one JSON object per line."""
    by_id = {r.id: r for r in routes}
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": "dcflow-hops", "version": 1}) + "\n")
        for uid, route, t_inject in _records(ledger, ("uid", "route", "t_inject")):
            qpath = by_id[route].queue_path
            for q, (tau, delta, a, s_slot, d_slot) in zip(qpath, ledger.trail.hops(uid, t_inject)):
                fh.write(
                    json.dumps(
                        {
                            "uid": uid,
                            "node": str(q),
                            "tau": tau,
                            "delta": delta,
                            "A": a,
                            "S": s_slot * ledger.epsilon,
                            "delta_slot": d_slot,
                        }
                    )
                    + "\n"
                )
