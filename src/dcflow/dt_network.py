"""Slotted packet network that emulates the continuous reference network.

Flows are split into slot-sized packets.  A node transmits at most one
packet per slot.  Scheduling is preemptive LCFS keyed not on a flow's
actual arrival instant but on its schedule time S = eps * ceil(tau / eps),
where tau is the flow's arrival instant at the same queue in the
continuous reference run; ties prefer the larger tau, then the larger
uid.  Packets of a flow only become transmittable once the whole flow is
present, and a packet sent during slot k is available at the next queue
when the slot ends.

The engine is event driven.  Between events the head of a queue's LCFS
heap sends one packet per slot, so a head that starts sending in slot k
with r packets left sends its last packet in slot k + r - 1 unless a new
flow preempts it first.  The engine therefore visits only activations (a
flow reaching its schedule slot at a queue) and last-packet slots, in
slot order; at one slot every activation is handled before any
completion.  Each queue keeps its LCFS heap, the slot its head started
sending and a token that invalidates the completion a preemption
superseded.  Per-flow state is kept in lists indexed by the reference
run's flow number, and departure slots in one integer array at its
flow-hop offsets; a ledger row builds its per-queue trail from these
shared records when it is read.

Two sample-path invariants are asserted for every flow at every queue,
as exact integer slot comparisons:

  * the flow has fully arrived by its schedule time (A <= S), and
  * it departs no later than the slot boundary that covers its
    continuous-time departure (Delta <= eps * ceil(delta / eps)).

A violation raises EmulationInfeasibilityError naming the flow and queue.
"""

from __future__ import annotations

import heapq
import json
from array import array
from dataclasses import dataclass, field

from .ct_network import CtResult, EpsilonConfig, slot_ceil
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

    def hops(self, uid: int, t_inject: float) -> tuple[tuple[float, float, float, int, int], ...]:
        ct, eps = self.ct, self.eps
        f = ct.index[uid]
        o, e = ct.offsets[f], ct.offsets[f + 1]
        taus = ct.tau[o:e]
        d_slots = self.delta_slots[o:e]
        # a flow is fully present at its next queue when its last packet's slot ends
        a_times = [t_inject] + [d * eps for d in d_slots[:-1]]
        s_slots = [slot_ceil(tau, eps) for tau in taus]
        return tuple(zip(taus, ct.delta[o:e], a_times, s_slots, d_slots))


@dataclass(eq=False, slots=True)
class FlowDelayRecord:
    """Per-flow delay decomposition plus the per-queue timestamp trail.

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

    @property
    def dummy(self) -> bool:
        return self.uid < 0

    def _key(self) -> tuple:
        return (self.uid, self.route, self.size, self.t_arrive, self.t_inject,
                self.d_w, self.d_s, self.d, self.hops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowDelayRecord):
            return NotImplemented
        return self._key() == other._key()


@dataclass
class DelayLedger:
    epsilon: float
    rows: list[FlowDelayRecord]


@dataclass
class DtRunResult:
    """`n_slots_processed` counts slots in which at least one queue sends
    a packet; `flow_hops_checked` counts flow-hops that passed both
    sample-path checks."""

    ledger: DelayLedger
    n_slots_processed: int
    n_transmissions: int
    flow_hops_checked: int


def _ledger(ct: CtResult, injections: list[tuple[float, int, int]],
            types: tuple[FlowType, ...], eps: float, delta_slots: array,
            arrive_times: dict[int, float] | None) -> DelayLedger:
    """Ledger rows sorted by (t_arrive, uid).  `delta_slots` holds a slot
    engine's departure slot at every flow-hop, at the reference run's
    flow-hop offsets."""
    trail = _HopTrail(ct, delta_slots, eps)
    index, offsets = ct.index, ct.offsets
    rows = []
    for t_inject, ti, uid in injections:
        t_arr = arrive_times.get(uid, t_inject) if arrive_times else t_inject
        d_w = t_inject - t_arr
        d_s = delta_slots[offsets[index[uid] + 1] - 1] * eps - t_inject
        rows.append(FlowDelayRecord(uid, types[ti].route, types[ti].size, t_arr, t_inject,
                                    d_w, d_s, d_w + d_s, trail))
    rows.sort(key=lambda r: (r.t_arrive, r.uid))
    return DelayLedger(epsilon=eps, rows=rows)


def run_dt(
    ct: CtResult,
    injections: list[tuple[float, int, int]],
    routes: list[Route],
    types: tuple[FlowType, ...],
    eps: EpsilonConfig,
    arrive_times: dict[int, float] | None = None,
) -> DtRunResult:
    """Run the slot engine against a finished reference run.

    `injections` lists (t_inject, type_index, uid); `arrive_times` maps a
    flow back to its external arrival (defaults to its injection time).
    Per-flow state is indexed by the reference run's flow number, and a
    flow's schedule slot at a queue is computed when it reaches that queue.
    """
    epsv = eps.epsilon
    queues, route_paths = queue_paths(routes)
    paths = [route_paths[t.route] for t in types]
    pkts = [eps.n_slots[t.size] for t in types]
    index, offsets, taus, deltas = ct.index, ct.offsets, ct.tau, ct.delta
    uid_of = list(index)
    type_of = [0] * len(uid_of)
    hop_of = [0] * len(uid_of)
    sent = [0] * len(uid_of)   # packets sent at the current hop
    delta_slots = array("q", [0]) * offsets[-1]

    # Events: (slot, 0, uid, flow) makes a flow transmittable at its
    # current queue; (slot, 1, queue, token) is the slot in which a head
    # sends its last packet.  Activations sort before completions.  First
    # hops are read in slot order from `first`, later ones go on the heap.
    first = []
    for t_inject, ti, uid in injections:
        f = index[uid]
        if offsets[f + 1] - offsets[f] != len(paths[ti]):
            raise InternalConsistencyError(f"flow {uid} is missing hop records")
        s = slot_ceil(taus[offsets[f]], epsv)
        if t_inject > s * epsv + 1e-9 * max(1.0, abs(t_inject)):
            raise EmulationInfeasibilityError(f"flow {uid} injected after its first schedule time")
        type_of[f] = ti
        first.append((s, 0, uid, f))
    first.sort(key=lambda e: e[0])
    events: list[tuple[int, int, int, int]] = []
    heaps: list[list[tuple[int, float, int, int]]] = [[] for _ in queues]  # LCFS
    started = [0] * len(queues)   # slot in which the current head started sending
    tokens = [0] * len(queues)
    heappush, heappop = heapq.heappush, heapq.heappop

    n_trans = n_checked = n_done = 0
    n_slots = busy = busy_since = 0  # union of busy intervals over queues
    k = 0
    i, n_first = 0, len(first)
    while True:
        if i < n_first and (not events or first[i][0] <= events[0][0]):
            ev = first[i]
            i += 1
        elif events:
            ev = heappop(events)
        else:
            break
        s, kind, a, b = ev
        if s < k:
            raise InternalConsistencyError("event slipped behind the slot clock")
        k = s

        if kind == 0:
            f = b
            hop = hop_of[f]
            q = paths[type_of[f]][hop]
            heap = heaps[q]
            entry = (-k, -taus[offsets[f] + hop], -a, f)
            if heap and heap[0] < entry:
                heappush(heap, entry)  # waits behind the current head
                continue
            if heap:
                sent[heap[0][3]] += k - started[q]  # the head is preempted
            else:
                if not busy:
                    busy_since = k
                busy += 1
            heappush(heap, entry)
            started[q] = k
            tokens[q] += 1
            heappush(events, (k + pkts[type_of[f]] - 1, 1, q, tokens[q]))
            continue

        q = a
        if b != tokens[q]:
            continue  # superseded by a preemption
        heap = heaps[q]
        f = heappop(heap)[3]
        sent[f] += k + 1 - started[q]
        ti, hop = type_of[f], hop_of[f]
        if sent[f] != pkts[ti]:
            raise InternalConsistencyError(
                f"flow {uid_of[f]} sent {sent[f]} of {pkts[ti]} packets at {queues[q]}"
            )
        n_trans += sent[f]
        delta_slot = k + 1
        o = offsets[f] + hop
        limit = slot_ceil(deltas[o], epsv)
        if delta_slot > limit:
            raise EmulationInfeasibilityError(
                f"flow {uid_of[f]} left {queues[q]} in slot {delta_slot}, "
                f"reference bound is {limit}"
            )
        delta_slots[o] = delta_slot
        n_checked += 1
        hop += 1
        if hop < len(paths[ti]):
            s_next = slot_ceil(taus[o + 1], epsv)
            if delta_slot > s_next:
                raise EmulationInfeasibilityError(
                    f"flow {uid_of[f]} reached {queues[paths[ti][hop]]} in slot {delta_slot}, "
                    f"after its schedule slot {s_next}"
                )
            hop_of[f] = hop
            sent[f] = 0
            heappush(events, (s_next, 0, uid_of[f], f))
        else:
            n_done += 1
        if heap:
            # the next head sends from the following slot on
            nxt = heap[0][3]
            started[q] = delta_slot
            tokens[q] += 1
            heappush(events, (k + pkts[type_of[nxt]] - sent[nxt], 1, q, tokens[q]))
        else:
            busy -= 1
            if not busy:
                n_slots += delta_slot - busy_since

    if n_done != len(first):
        raise InternalConsistencyError("some flows never drained from the slot engine")
    del first  # freed before the ledger rows are built
    return DtRunResult(
        ledger=_ledger(ct, injections, types, epsv, delta_slots, arrive_times),
        n_slots_processed=n_slots,
        n_transmissions=n_trans,
        flow_hops_checked=n_checked,
    )


LEDGER_VERSION = "# dcflow ledger v1"
LEDGER_COLUMNS = "uid,route,size,t_arrive,t_inject,D_W,D_S,D"


def write_ledger_csv(ledger: DelayLedger, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(LEDGER_VERSION + "\n")
        fh.write(LEDGER_COLUMNS + "\n")
        for r in ledger.rows:
            fh.write(
                f"{r.uid},{r.route},{r.size!r},{r.t_arrive!r},{r.t_inject!r},"
                f"{r.d_w!r},{r.d_s!r},{r.d!r}\n"
            )


def write_hop_table_jsonl(ledger: DelayLedger, routes: list[Route], path: str) -> None:
    """Per-flow per-queue timestamps, one JSON object per line."""
    by_id = {r.id: r for r in routes}
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": "dcflow-hops", "version": 1}) + "\n")
        for r in ledger.rows:
            qpath = by_id[r.route].queue_path
            for q, (tau, delta, a, s_slot, d_slot) in zip(qpath, r.hops):
                fh.write(
                    json.dumps(
                        {
                            "uid": r.uid,
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
