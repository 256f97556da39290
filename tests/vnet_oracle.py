"""Step-by-step reference implementation of the virtual network, for tests.

`NbState` holds the network's state as an object and steps it one event
at a time: `advance` moves the clock and grants service, the two
`apply_*` transitions move one flow, and `next_departure` finds the
earliest completion under the current rates.  `serve_stepwise` drives it
over a stream with the same arguments and result as
`virtual_bandwidth_net.serve`, so tests can check the flat event loop
against it, instant for instant.  It performs the same floating-point
operations in the same order, so the two agree exactly, not to rounding.
"""

from __future__ import annotations

import heapq

import numpy as np

from dcflow.errors import InternalConsistencyError
from dcflow.sfa_core import BandwidthNetworkSpec, _evaluator


class NbState:
    """Mutable simulation state: clock, per-class flow sets, current rates.

    A flow joins a class with its own size, so one class may hold flows
    of several sizes.
    """

    def __init__(self, spec: BandwidthNetworkSpec):
        self.spec = spec
        self.clock = 0.0
        self.n = [0] * spec.n_routes
        self.v = [0.0] * spec.n_routes            # cumulative per-flow service
        self.heaps: list[list[tuple[float, int]]] = [[] for _ in range(spec.n_routes)]
        self.phi: tuple[float, ...] = (0.0,) * spec.n_routes
        self._ev = _evaluator(spec, exact=False)

    def advance(self, t: float) -> None:
        dt = t - self.clock
        if dt < 0:
            raise InternalConsistencyError(f"clock moved backwards: {self.clock} -> {t}")
        if dt > 0:
            n, v, phi = self.n, self.v, self.phi
            for j in range(len(n)):
                nj = n[j]
                if nj:
                    v[j] += phi[j] / nj * dt
            self.clock = t

    def _recompute(self) -> None:
        self.phi = self._ev.rates(tuple(self.n))

    def apply_arrival(self, t: float, class_idx: int, uid: int, size: float) -> None:
        self.advance(t)
        heapq.heappush(self.heaps[class_idx], (self.v[class_idx] + size, uid))
        self.n[class_idx] += 1
        self._recompute()

    def next_departure(self) -> tuple[float, int, int] | None:
        """Earliest completion under the current rates: (time, class, uid).

        Ties across classes break toward the smaller uid.
        """
        best = None
        for j, nj in enumerate(self.n):
            if not nj:
                continue
            thr, uid = self.heaps[j][0]
            rate = self.phi[j] / nj
            remaining = thr - self.v[j]
            if remaining < -1e-9 * max(1.0, self.clock):
                raise InternalConsistencyError(f"negative residual work {remaining} in class {j}")
            t = self.clock + (remaining / rate if remaining > 0 else 0.0)
            if best is None or (t, uid) < (best[0], best[2]):
                best = (t, j, uid)
        return best

    def apply_departure(self, t: float, class_idx: int, uid: int) -> None:
        self.advance(t)
        thr, top_uid = heapq.heappop(self.heaps[class_idx])
        if top_uid != uid:
            raise InternalConsistencyError(f"departure of {uid} but {top_uid} is due first")
        self.v[class_idx] = thr  # snap out accumulated rounding
        self.n[class_idx] -= 1
        self._recompute()


def serve_stepwise(spec, classes, sizes, times, types, uids) -> np.ndarray:
    """Same arguments and result as `virtual_bandwidth_net.serve`, one
    `NbState` transition per event."""
    times, types, uids = (np.asarray(c).tolist() for c in (times, types, uids))
    state = NbState(spec)
    position = {uid: k for k, uid in enumerate(uids)}
    out = np.zeros(len(times))
    i = 0
    while True:
        nd = state.next_departure()
        if i < len(times) and (nd is None or times[i] < nd[0]):
            t, ti, uid = times[i], types[i], uids[i]
            i += 1
            state.apply_arrival(t, classes[ti], uid, sizes[ti])
            continue
        if nd is None:
            return out
        t, j, uid = nd
        state.apply_departure(t, j, uid)
        out[position[uid]] = t
