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
and the engine sweeps the queues one at a time.  A queue's activations,
sorted by tau, come in priority order, so its LCFS order is a stack,
served by the reference network's own sweep, `ct_network.lcfs_sweep`,
with schedule slots for instants and packet counts for work: before an
activation at slot s, every head that sends its last packet before s
departs, and a head still sending is preempted with the packets it sent
taken off.  Each queue must send exactly the packets its flows
demand, in its busy slots.  Departure slots go into one integer array at
the reference run's flow-hop offsets; a ledger row builds its per-queue
trail from these shared records when it is read.

What couples the queues is checked, not simulated.  Two sample-path
invariants are asserted for every flow at every queue, as exact integer
slot comparisons:

  * the flow has fully arrived by its schedule time (A <= S), and
  * it departs no later than the slot boundary that covers its
    continuous-time departure (Delta <= eps * ceil(delta / eps)).

If the first holds everywhere, every flow is present when its schedule
slot comes, so activating it there is what the coupled network does, and
the per-queue sweeps are that network's run.  A violation raises
EmulationInfeasibilityError naming the flow and queue; of several, the
one met first in uid order.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field

from .ct_network import CtResult, EpsilonConfig, lcfs_sweep, slot_ceil
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
    Each queue is swept alone in its flows' schedule order; the two
    checks that couple the queues then run over every flow-hop, flows in
    uid order.
    """
    epsv = eps.epsilon
    queues, route_paths = queue_paths(routes)
    paths = [route_paths[t.route] for t in types]
    pkts = [eps.n_slots[t.size] for t in types]
    index, offsets, taus, deltas = ct.index, ct.offsets, ct.tau, ct.delta
    # a flow-hop's packet count, until the sweep overwrites it with the
    # flow's departure slot from that queue
    delta_slots = array("q", [0]) * len(taus)
    at_queue = [array("q") for _ in queues]   # flow-hop offsets, flows in uid order
    demand = [0] * len(queues)                # packets each queue must send

    flows = sorted(injections, key=lambda e: e[2])
    for t_inject, ti, uid in flows:
        f = index[uid]
        o = offsets[f]
        path = paths[ti]
        if offsets[f + 1] - o != len(path):
            raise InternalConsistencyError(f"flow {uid} is missing hop records")
        if t_inject > slot_ceil(taus[o], epsv) * epsv + 1e-9 * max(1.0, abs(t_inject)):
            raise EmulationInfeasibilityError(f"flow {uid} injected after its first schedule time")
        n = pkts[ti]
        for q in path:
            delta_slots[o] = n
            at_queue[q].append(o)
            demand[q] += n
            o += 1

    begins, ends = array("q"), array("q")   # every queue's busy periods
    for q, offs in enumerate(at_queue):
        # slot_ceil is monotone and the sort stable, so ascending tau is
        # ascending (S, tau, uid): each activation outranks every flow
        # already waiting, and the LCFS order is a stack.
        first = len(begins)
        offs = sorted(offs, key=taus.__getitem__)
        lcfs_sweep(offs, (slot_ceil(taus[o], epsv) for o in offs), delta_slots, begins, ends)
        busy = sum(ends[first:]) - sum(begins[first:])
        if busy != demand[q]:
            raise InternalConsistencyError(f"{queues[q]} sent {busy} packets of {demand[q]}")
    del at_queue

    n_checked = 0
    for _, ti, uid in flows:
        f = index[uid]
        o = offsets[f]
        path = paths[ti]
        for h, q in enumerate(path):
            delta_slot = delta_slots[o]
            limit = slot_ceil(deltas[o], epsv)
            if delta_slot > limit:
                raise EmulationInfeasibilityError(
                    f"flow {uid} left {queues[q]} in slot {delta_slot}, "
                    f"reference bound is {limit}"
                )
            o += 1
            if h + 1 < len(path):
                s_next = slot_ceil(taus[o], epsv)
                if delta_slot > s_next:
                    raise EmulationInfeasibilityError(
                        f"flow {uid} reached {queues[path[h + 1]]} in slot {delta_slot}, "
                        f"after its schedule slot {s_next}"
                    )
        n_checked += len(path)
    del flows  # freed before the ledger rows are built

    # The union of the busy periods.  Sorted apart, the i-th end is never
    # before the i-th begin, and the slots no queue sends in are the gaps
    # from the i-th end to the (i+1)-th begin.
    n_trans = sum(ends) - sum(begins)
    begins, ends = sorted(begins), sorted(ends)
    gaps = sum(b - e for e, b in zip(ends, begins[1:]) if b > e)
    n_slots = ends[-1] - begins[0] - gaps if begins else 0
    del begins, ends
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
