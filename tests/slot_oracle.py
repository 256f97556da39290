"""Per-slot reference implementation of the slot engine, for tests.

`run_dt_per_slot` steps every slot in which some queue holds a
transmittable flow and lets the head of each queue's LCFS heap send one
packet, which is the definition the event-driven `dt_network.run_dt`
must reproduce.  It can log every transmission and iterate the queues in
any order, so tests can check slot capacity and packet conservation
directly and show that the queue order is immaterial.
"""

from __future__ import annotations

import heapq

from dcflow.ct_network import slot_ceil
from dcflow.dt_network import DtRunResult, _ledger, _schedule_slots
from dcflow.errors import EmulationInfeasibilityError, InternalConsistencyError
from dcflow.topology import queue_paths


class _Flow:
    __slots__ = ("uid", "ti", "hop", "remaining", "s_slots", "a_times", "delta_slots")

    def __init__(self, uid, ti, s_slots, t_inject):
        self.uid = uid
        self.ti = ti
        self.hop = 0
        self.remaining = 0
        self.s_slots = s_slots
        self.a_times = [t_inject]
        self.delta_slots = []


def run_dt_per_slot(ct, injections, routes, types, eps, arrive_times=None, node_order=None):
    """Same arguments and result as `run_dt`, plus `node_order` (a
    permutation of the routes' queues, fixing the per-slot iteration order).
    Returns (result, log) with one (slot, queue, uid, packet index) entry
    per transmission."""
    epsv = eps.epsilon
    queues, route_paths = queue_paths(routes)
    paths = [tuple(queues[q] for q in route_paths[t.route]) for t in types]
    pkts = [eps.n_slots[t.size] for t in types]
    if node_order is not None:
        if sorted(map(str, node_order)) != sorted(map(str, queues)):
            raise ValueError("node_order must be a permutation of the routes' queues")
        queues = list(node_order)
    qidx = {q: i for i, q in enumerate(queues)}

    eligible = [[] for _ in queues]
    activations = []  # (slot, queue index, uid, flow)
    flows = {}
    for t_inject, ti, uid in injections:
        fl = _Flow(uid, ti, _schedule_slots(ct, t_inject, uid, epsv), t_inject)
        fl.remaining = pkts[ti]
        flows[uid] = fl
        heapq.heappush(activations, (fl.s_slots[0], qidx[paths[ti][0]], uid, fl))

    log = []
    n_done = n_checked = n_slots_processed = 0
    k = -1
    any_eligible = False
    while True:
        if any_eligible:
            k += 1
            if activations and activations[0][0] < k:
                raise InternalConsistencyError("activation slipped behind the slot clock")
        elif activations:
            k = activations[0][0]
        else:
            break
        while activations and activations[0][0] <= k:
            s, qi, _, fl = heapq.heappop(activations)
            tau = ct.taus[fl.uid][fl.hop]
            heapq.heappush(eligible[qi], (-s, -tau, -fl.uid, fl))
        n_slots_processed += 1

        for qi, heap in enumerate(eligible):
            if not heap:
                continue
            fl = heap[0][3]
            fl.remaining -= 1
            log.append((k, queues[qi], fl.uid, pkts[fl.ti] - fl.remaining))
            if fl.remaining:
                continue
            heapq.heappop(heap)
            delta_slot = k + 1
            limit = slot_ceil(ct.deltas[fl.uid][fl.hop], epsv)
            if delta_slot > limit:
                raise EmulationInfeasibilityError(
                    f"flow {fl.uid} left {queues[qi]} in slot {delta_slot}, "
                    f"reference bound is {limit}"
                )
            fl.delta_slots.append(delta_slot)
            n_checked += 1
            fl.hop += 1
            if fl.hop < len(paths[fl.ti]):
                s_next = fl.s_slots[fl.hop]
                if delta_slot > s_next:
                    raise EmulationInfeasibilityError(
                        f"flow {fl.uid} reached {paths[fl.ti][fl.hop]} in slot {delta_slot}, "
                        f"after its schedule slot {s_next}"
                    )
                fl.a_times.append(delta_slot * epsv)
                fl.remaining = pkts[fl.ti]
                heapq.heappush(activations, (s_next, qidx[paths[fl.ti][fl.hop]], fl.uid, fl))
            else:
                n_done += 1
        any_eligible = any(eligible)

    if n_done != len(flows):
        raise InternalConsistencyError("some flows never drained from the slot engine")
    result = DtRunResult(
        ledger=_ledger(ct, injections, types, epsv, list(flows.values()), arrive_times),
        n_slots_processed=n_slots_processed,
        n_transmissions=len(log),
        flow_hops_checked=n_checked,
    )
    return result, log
