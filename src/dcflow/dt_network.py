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
superseded.

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
from dataclasses import dataclass

from .ct_network import CtResult, EpsilonConfig, slot_ceil
from .errors import EmulationInfeasibilityError, InternalConsistencyError
from .flow_gen import FlowType
from .topology import Route, queue_paths


class _DtFlow:
    __slots__ = ("uid", "ti", "path", "hop", "sent", "s_slots", "a_times", "delta_slots")

    def __init__(self, uid: int, ti: int, path: tuple[int, ...], s_slots: list[int],
                 t_inject: float):
        self.uid = uid
        self.ti = ti
        self.path = path
        self.hop = 0
        self.sent = 0       # packets sent at the current hop
        self.s_slots = s_slots
        self.a_times: list[float] = [t_inject]
        self.delta_slots: list[int] = []


@dataclass
class FlowDelayRecord:
    """Per-flow delay decomposition plus the per-queue timestamp trail.

    hops[i] = (tau, delta, a, s_slot, delta_slot) at the i-th queue of the
    route; continuous instants from the reference run, slot indices from
    the discrete run.
    """

    uid: int
    route: int
    size: float
    t_arrive: float
    t_inject: float
    d_w: float
    d_s: float
    d: float
    hops: tuple[tuple[float, float, float, int, int], ...]

    @property
    def dummy(self) -> bool:
        return self.uid < 0


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


def _schedule_slots(ct: CtResult, t_inject: float, uid: int, eps: float) -> list[int]:
    """A flow's schedule slot at every hop, after checking that it is
    injected by its first schedule time."""
    slots = [slot_ceil(tau, eps) for tau in ct.taus[uid]]
    if t_inject > slots[0] * eps + 1e-9 * max(1.0, abs(t_inject)):
        raise EmulationInfeasibilityError(f"flow {uid} injected after its first schedule time")
    return slots


def _ledger(ct: CtResult, injections: list[tuple[float, int, int]],
            types: tuple[FlowType, ...], eps: float, flows: list,
            arrive_times: dict[int, float] | None) -> DelayLedger:
    """Ledger rows sorted by (t_arrive, uid).  `flows[i]` carries a slot
    engine's per-hop `a_times`, `s_slots` and `delta_slots` for the i-th
    injection."""
    rows = []
    for (t_inject, ti, uid), fl in zip(injections, flows):
        delta_slots = fl.delta_slots
        if len(delta_slots) != len(ct.taus[uid]):
            raise InternalConsistencyError(f"flow {uid} is missing hop records")
        t_arr = arrive_times.get(uid, t_inject) if arrive_times else t_inject
        d_w = t_inject - t_arr
        d_s = delta_slots[-1] * eps - t_inject
        rows.append(
            FlowDelayRecord(
                uid=uid,
                route=types[ti].route,
                size=types[ti].size,
                t_arrive=t_arr,
                t_inject=t_inject,
                d_w=d_w,
                d_s=d_s,
                d=d_w + d_s,
                hops=tuple(zip(ct.taus[uid], ct.deltas[uid], fl.a_times, fl.s_slots,
                               delta_slots)),
            )
        )
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
    """
    epsv = eps.epsilon
    queues, paths = queue_paths(routes)
    pkts = [eps.n_slots[t.size] for t in types]
    taus, deltas = ct.taus, ct.deltas

    flows = [_DtFlow(uid, ti, paths[types[ti].route],
                     _schedule_slots(ct, t_inject, uid, epsv), t_inject)
             for t_inject, ti, uid in injections]
    # Events: (slot, 0, uid, flow) makes a flow transmittable at its
    # current queue; (slot, 1, queue, token) is the slot in which a head
    # sends its last packet.  Activations sort before completions.  First
    # hops are read in slot order from `first`, later ones go on the heap.
    first = sorted(((fl.s_slots[0], 0, fl.uid, fl) for fl in flows), key=lambda e: e[0])
    events: list[tuple] = []
    heaps: list[list[tuple[int, float, int, _DtFlow]]] = [[] for _ in queues]  # LCFS
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
            fl = b
            q = fl.path[fl.hop]
            heap = heaps[q]
            entry = (-k, -taus[a][fl.hop], -a, fl)
            if heap and heap[0] < entry:
                heappush(heap, entry)  # waits behind the current head
                continue
            if heap:
                heap[0][3].sent += k - started[q]  # the head is preempted
            else:
                if not busy:
                    busy_since = k
                busy += 1
            heappush(heap, entry)
            started[q] = k
            tokens[q] += 1
            heappush(events, (k + pkts[fl.ti] - 1, 1, q, tokens[q]))
            continue

        q = a
        if b != tokens[q]:
            continue  # superseded by a preemption
        heap = heaps[q]
        fl = heappop(heap)[3]
        fl.sent += k + 1 - started[q]
        ti, hop = fl.ti, fl.hop
        if fl.sent != pkts[ti]:
            raise InternalConsistencyError(
                f"flow {fl.uid} sent {fl.sent} of {pkts[ti]} packets at {queues[q]}"
            )
        n_trans += fl.sent
        delta_slot = k + 1
        limit = slot_ceil(deltas[fl.uid][hop], epsv)
        if delta_slot > limit:
            raise EmulationInfeasibilityError(
                f"flow {fl.uid} left {queues[q]} in slot {delta_slot}, "
                f"reference bound is {limit}"
            )
        fl.delta_slots.append(delta_slot)
        n_checked += 1
        hop += 1
        if hop < len(fl.path):
            s_next = fl.s_slots[hop]
            if delta_slot > s_next:
                raise EmulationInfeasibilityError(
                    f"flow {fl.uid} reached {queues[fl.path[hop]]} in slot {delta_slot}, "
                    f"after its schedule slot {s_next}"
                )
            fl.hop = hop
            fl.sent = 0
            fl.a_times.append(delta_slot * epsv)
            heappush(events, (s_next, 0, fl.uid, fl))
        else:
            n_done += 1
        if heap:
            # the next head sends from the following slot on
            nxt = heap[0][3]
            started[q] = delta_slot
            tokens[q] += 1
            heappush(events, (k + pkts[nxt.ti] - nxt.sent, 1, q, tokens[q]))
        else:
            busy -= 1
            if not busy:
                n_slots += delta_slot - busy_since

    if n_done != len(flows):
        raise InternalConsistencyError("some flows never drained from the slot engine")
    return DtRunResult(
        ledger=_ledger(ct, injections, types, epsv, flows, arrive_times),
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
