"""Per-slot reference implementation of the slot engine, for tests.

`run_dt_per_slot` steps every slot in which some queue holds a
transmittable flow and lets the head of each queue's LCFS heap send one
packet.  That is the definition the slot engine must reproduce, which
`ct_network.run_ct` runs queue by queue and `dt_network.run_dt` checks
and reports.  It checks both sample-path invariants as it goes, A <= S
and Delta <= eps * ceil(delta / eps), so `run_dt`'s one departure check
must raise where this pair does.  It can log every transmission and
iterate the queues in any order, so tests can check slot capacity and
packet conservation directly and show that the queue order is
immaterial.  It records each
flow's per-queue trail as it goes and checks, hop by hop, that the
ledger's hop columns, which both engines build from their departure
slots, report that same trail.
"""

from __future__ import annotations

import heapq

import numpy as np

from dcflow.dt_network import DtRunResult, _ledger, hop_columns
from dcflow.errors import EmulationInfeasibilityError, InternalConsistencyError
from dcflow.topology import queue_paths


class _Flow:
    __slots__ = ("uid", "ti", "offset", "hop", "remaining", "a", "trail")

    def __init__(self, uid, ti, offset, t_inject):
        self.uid = uid
        self.ti = ti
        self.offset = offset   # the flow's first flow-hop in the reference run
        self.hop = 0
        self.remaining = 0
        self.a = t_inject      # instant the flow is fully present at its queue
        self.trail = []        # (tau, delta, a, s_slot, delta_slot) per queue left


def run_dt_per_slot(ct, routes, types, eps, arrive_times=None, node_order=None):
    """Same arguments and result as `run_dt`, plus `eps`, whose packet
    counts it serves, and `node_order` (a permutation of the routes'
    queues, fixing the per-slot iteration order).
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

    taus, deltas = ct.tau.tolist(), ct.delta.tolist()
    keys, delta_keys = ct.tau_key.tolist(), ct.delta_key.tolist()
    residue, n_ranks = ct.residue.tolist(), len(ct.residue)

    def first_slot(key):
        # the instant I * eps + r lies in slot I; the first boundary at or
        # after it is I, or I + 1 when r > 0
        whole, rank = divmod(key, n_ranks)
        return whole + (residue[rank] > 0)

    def activation(fl):
        # the flow's reference arrival at its current queue, read once
        key = keys[fl.offset + fl.hop]
        return (first_slot(key), qidx[paths[fl.ti][fl.hop]], fl.uid, key, fl)

    eligible = [[] for _ in queues]
    activations = []  # (slot, queue index, uid, arrival key, flow)
    flows = {}
    for uid, ti, offset in zip(ct.uid.tolist(), ct.ti.tolist(), ct.offsets.tolist()):
        # a flow is injected at its reference arrival at its first queue
        fl = _Flow(uid, ti, offset, taus[offset])
        fl.remaining = pkts[ti]
        flows[uid] = fl
        heapq.heappush(activations, activation(fl))

    log = []
    delta_slots = np.zeros(len(taus), dtype=np.int64)
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
            s, qi, _, key, fl = heapq.heappop(activations)
            heapq.heappush(eligible[qi], (-s, -key, -fl.uid, s, fl))
        n_slots_processed += 1

        for qi, heap in enumerate(eligible):
            if not heap:
                continue
            fl = heap[0][4]
            fl.remaining -= 1
            log.append((k, queues[qi], fl.uid, pkts[fl.ti] - fl.remaining))
            if fl.remaining:
                continue
            _, _, _, s, _ = heapq.heappop(heap)
            delta_slot = k + 1
            o = fl.offset + fl.hop
            limit = first_slot(delta_keys[o])
            if delta_slot > limit:
                raise EmulationInfeasibilityError(
                    f"flow {fl.uid} left {queues[qi]} in slot {delta_slot}, "
                    f"reference bound is {limit}"
                )
            delta_slots[o] = delta_slot
            fl.trail.append((taus[o], deltas[o], fl.a, s, delta_slot))
            n_checked += 1
            fl.hop += 1
            if fl.hop < len(paths[fl.ti]):
                act = activation(fl)
                if delta_slot > act[0]:
                    raise EmulationInfeasibilityError(
                        f"flow {fl.uid} reached {paths[fl.ti][fl.hop]} in slot {delta_slot}, "
                        f"after its schedule slot {act[0]}"
                    )
                fl.a = delta_slot * epsv
                fl.remaining = pkts[fl.ti]
                heapq.heappush(activations, act)
            else:
                n_done += 1
        any_eligible = any(eligible)

    if n_done != len(flows):
        raise InternalConsistencyError("some flows never drained from the slot engine")
    ledger = _ledger(ct, delta_slots, arrive_times)
    hops = hop_columns(ledger)
    engine = zip(hops.uid.tolist(), hops.tau.tolist(), hops.delta.tolist(), hops.a.tolist(),
                 hops.s_slot.tolist(), hops.delta_slot.tolist())
    trail = (hop for uid in ledger.uid.tolist() for hop in flows[uid].trail)
    for (uid, *hop), want in zip(engine, trail, strict=True):
        if tuple(hop) != want:
            raise AssertionError(f"ledger trail of flow {uid} differs from the per-slot run")
    result = DtRunResult(
        ledger=ledger,
        n_slots_processed=n_slots_processed,
        n_transmissions=len(log),
        flow_hops_checked=n_checked,
    )
    return result, log
