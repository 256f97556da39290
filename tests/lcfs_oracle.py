"""Stack reference implementation of the preemptive-LCFS queue, for tests.

`lcfs_sweep` serves one queue event by event with an explicit LCFS
stack; `run_ct_stack` drives it over the reference network the way
`ct_network.run_ct` drives the closed-form `lcfs_pr`, in exact rational
arithmetic.  The two share no arithmetic, so tests can check the closed
form against them exactly: on integers, and on `run_ct`'s slot lattice,
whose keys `lattice_instants` reads back as exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from dcflow.topology import queue_paths


def lcfs_sweep(offs, arrive, out, begins, ends) -> None:
    """Serve one queue preemptive-LCFS with a stack.

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


class StackRun(NamedTuple):
    """Flows in arrival order, (t, uid), as `run_ct` numbers them, and
    the exact instants of every flow-hop at the same offsets."""

    uid: list[int]
    offsets: list[int]
    tau: list[Fraction]
    delta: list[Fraction]


def run_ct_stack(injections, routes, types, eps) -> StackRun:
    """Same arguments as `run_ct`; every queue is served by `lcfs_sweep`
    in index order, in `Fraction` arithmetic: each injection instant and
    the slot length are taken exactly, and a work is n_slots slots."""
    injections = injections.tolist()   # (t, ti, uid) rows
    queues, route_paths = queue_paths(routes)
    paths = [route_paths[t.route] for t in types]
    service = [Fraction(eps.epsilon) * eps.n_slots[t.size] for t in types]

    arrivals = sorted(injections, key=lambda e: (e[0], e[2]))
    index = {uid: f for f, (_, _, uid) in enumerate(arrivals)}
    offsets = list(accumulate((len(paths[ti]) for _, ti, _ in arrivals), initial=0))
    taus = [Fraction(0)] * offsets[-1]
    deltas = [Fraction(0)] * offsets[-1]   # work on entry, departure after the sweep
    last_hop = bytearray(offsets[-1])
    at_queue = [[] for _ in queues]            # flow-hop offsets, flows in uid order

    for t_inject, ti, uid in sorted(injections, key=lambda e: e[2]):
        o = offsets[index[uid]]
        taus[o] = Fraction(t_inject)
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

    return StackRun(uid=[uid for _, _, uid in arrivals], offsets=offsets, tau=taus,
                    delta=deltas)


def lattice_instants(ct, keys) -> list[Fraction]:
    """The exact instants I * eps + r of a reference run's lattice keys."""
    whole, rank = np.divmod(np.asarray(keys), len(ct.residue))
    eps = Fraction(ct.epsilon)
    return [i * eps + Fraction(r) for i, r in zip(whole.tolist(), ct.residue[rank].tolist())]
