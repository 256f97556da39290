"""Event-driven simulation of the virtual bandwidth-sharing network.

Each route is one allocation class whose resources are its queues.  The
allocation is insensitive to flow sizes: it depends only on how many
flows each route holds, and the flows of every size on a route share the
route's rate equally.  Between events the rate vector is constant, so
flow completions are computed in closed form: a route tracks the
cumulative service V granted to each of its flows, a flow of size x
arriving when the route had accumulated V departs once the route reaches
V + x, and the allocation changes only when the occupancy vector does.

`serve` is the whole simulation: one flat event loop over plain locals,
per class a flow count, V and a heap of (V + x, uid, event index).  The
per-flow rates phi_j(n) / n_j are cached per occupancy n.  They need no
capacity check: phi is the throughput of a closed network of
processor-sharing stations (see `sfa_core`), so route loads on a
resource sum to that station's utilization, at most 1.  At one instant
a departure goes before an arrival, and equal departure instants go in
uid order.  The loop reads the stream's `FLOW` columns as Python
numbers a chunk of rows at a time and writes each flow's departure into
one float64 array, so it holds no whole-stream list; everything else
about a run is read from `NbRunResult`'s columns afterwards, and
`schedule` hands the reference net the same `FLOW` record, sorted into
the order in which flows reach it.

The congestion-control rule is: a flow becomes eligible for the internal
network exactly when it departs this virtual network.  Its external wait
therefore equals its virtual sojourn, by construction, plus for a
regularized flow its wait for an emission epoch; the run checks that no
flow enters before it arrives.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError
from .flow_gen import ArrivalStream, FlowType, flow_array, rows
from .sfa_core import BandwidthNetworkSpec, _evaluator
from .topology import LoadProfile, Route, compute_loads, queue_paths, require_admissible


def bandwidth_spec_for(routes: list[Route]) -> BandwidthNetworkSpec:
    """Map queue-level routes to a unit spec; class r is route r."""
    queues, paths = queue_paths(routes)
    return BandwidthNetworkSpec(len(queues), tuple(paths))


def serve(spec: BandwidthNetworkSpec, classes: Sequence[int], sizes: Sequence[float],
          times: np.ndarray, types: np.ndarray, uids: np.ndarray) -> np.ndarray:
    """Departure instant of every flow, in stream order.

    Flow i arrives at `times[i]`, nondecreasing, with type index
    `types[i]` and uid `uids[i]`; a type-k flow joins class `classes[k]`
    with size `sizes[k]`.  The loop reads the three columns as Python
    numbers a chunk of rows at a time and writes each departure into one
    float64 array.  An arrival goes first only if it is strictly earlier
    than the next departure, and equal departure instants go in uid
    order.
    """
    n_classes = spec.n_routes
    ev = _evaluator(spec, exact=False)
    per_flow: dict[tuple[int, ...], tuple[float, ...]] = {}
    out = np.empty(len(times))
    n = [0] * n_classes
    v = [0.0] * n_classes             # cumulative per-flow service
    heaps: list[list[tuple[float, int, int]]] = [[] for _ in range(n_classes)]
    rate = (0.0,) * n_classes         # per-flow rates at the current occupancy
    clock = 0.0
    inf = math.inf
    push, pop = heapq.heappush, heapq.heappop
    arrivals = rows((times, types, uids))
    drained = (inf, 0, 0)             # the next arrival once the stream is read
    t_next, k, u = next(arrivals, drained)
    i = 0
    while True:
        # earliest completion under the current rates, ties toward the smaller uid
        t_dep, u_dep, c_dep = inf, 0, -1
        for j, heap in enumerate(heaps):
            if heap:
                thr, uid, _ = heap[0]
                remaining = thr - v[j]
                if remaining > 0:
                    t = clock + remaining / rate[j]
                elif remaining < -1e-9 * max(1.0, clock):
                    raise InternalConsistencyError(
                        f"negative residual work {remaining} in class {j}")
                else:
                    t = clock
                if t < t_dep or (t == t_dep and uid < u_dep):
                    t_dep, u_dep, c_dep = t, uid, j
        t = t_next if t_next < t_dep else t_dep
        if t == inf:
            break
        dt = t - clock
        if dt > 0:
            for j in range(n_classes):
                v[j] += rate[j] * dt   # an empty class's rate is 0.0: v unchanged
            clock = t
        if t_next < t_dep:
            c = classes[k]
            push(heaps[c], (v[c] + sizes[k], u, i))
            n[c] += 1
            i += 1
            t_next, k, u = next(arrivals, drained)
        else:
            thr, _, e = pop(heaps[c_dep])
            v[c_dep] = thr   # snap out accumulated rounding
            n[c_dep] -= 1
            out[e] = t
        key = tuple(n)
        try:
            rate = per_flow[key]
        except KeyError:
            phi = ev.rates(key)
            rate = per_flow[key] = tuple(phi[j] / nj if nj else 0.0 for j, nj in enumerate(key))
    return out


@dataclass(eq=False)
class NbRunResult:
    """Outcome of one virtual-network run: one array per column, flows in
    stream order.  Occupancies are per route."""

    types: tuple[FlowType, ...]
    spec: BandwidthNetworkSpec
    uid: np.ndarray        # negative for a regularizer's dummy flow
    type: np.ndarray       # index into `types`
    t_enter: np.ndarray    # arrival into the virtual net
    t_arrive: np.ndarray   # external arrival
    t_inject: np.ndarray   # departure from the virtual net: eligibility instant

    def __len__(self) -> int:
        return len(self.uid)

    @property
    def n_events(self) -> int:   # one arrival and one departure per flow
        return 2 * len(self)

    # the benchmark's stage tracer reads these two mappings (ROADMAP items 1 and 2)
    @property
    def injections(self) -> dict[int, float]:
        """uid -> eligibility instant, built when read."""
        return dict(zip(self.uid.tolist(), self.t_inject.tolist()))

    @property
    def enter_times(self) -> dict[int, float]:
        """uid -> arrival into the virtual net, built when read."""
        return dict(zip(self.uid.tolist(), self.t_enter.tolist()))

    def schedule(self) -> tuple[np.ndarray, np.ndarray]:
        """The injections as `run_ct` takes them, a `FLOW` array with t the
        injection instant, in arrival order (t, uid), and each flow's
        external arrival in the same order."""
        order = np.lexsort((self.uid, self.t_inject))
        injections = flow_array(self.t_inject[order], self.type[order], self.uid[order])
        return injections, self.t_arrive[order]

    def _route(self) -> np.ndarray:
        return np.array([t.route for t in self.types], dtype=np.int64)[self.type]

    @property
    def occupancy_time_avg(self) -> tuple[float, ...]:
        """Time-average flows per route, from 0 to the last departure."""
        end = float(self.t_inject.max()) if len(self) else 0.0
        held = np.bincount(self._route(), weights=self.t_inject - self.t_enter,
                           minlength=self.spec.n_routes)
        return tuple((x / end if end > 0 else 0.0) for x in held.tolist())

    @property
    def state_time(self) -> dict[tuple[int, ...], float]:
        """Time spent at each occupancy vector, from 0 to the last departure."""
        n, width = len(self), self.spec.n_routes
        at = np.concatenate(([0.0], self.t_enter, self.t_inject))
        step = np.zeros((2 * n + 1, width), dtype=np.int64)
        route = self._route()
        step[1 + np.arange(n), route] = 1
        step[1 + n + np.arange(n), route] = -1
        order = np.argsort(at, kind="stable")
        occ = np.cumsum(step[order], axis=0)[:-1]   # held until the next instant
        dt = np.diff(at[order])
        kept = dt > 0
        occ = occ[kept]
        span = occ.max(axis=0, initial=0) + 1
        codes, which = np.unique(np.ravel_multi_index(occ.T, span), return_inverse=True)
        spent = np.bincount(which, weights=dt[kept], minlength=len(codes))
        states = zip(*(c.tolist() for c in np.unravel_index(codes, span)))
        return dict(zip(states, spent.tolist()))


def run_emulation(
    stream: ArrivalStream,
    routes: list[Route],
    *,
    profile: LoadProfile | None = None,
) -> NbRunResult:
    """Drive the virtual network with a stream; injection time = departure.

    Refuses inadmissible loads.  For a regularized stream pass the profile
    computed at the effective emission rates.
    """
    types = stream.types
    if profile is None:
        profile = compute_loads(routes, {(t.route, t.size): t.rate for t in types})
    require_admissible(profile)

    t_enter, ti, uid = (np.ascontiguousarray(stream.events[c]) for c in ("t", "ti", "uid"))
    back = np.flatnonzero(t_enter[1:] < t_enter[:-1])
    if back.size:
        k = back[0]
        raise InternalConsistencyError(
            f"clock moved backwards at flow {uid[k + 1]}: {t_enter[k]} -> {t_enter[k + 1]}")
    t_arrive = np.ascontiguousarray(stream.t_arrive)
    early = np.flatnonzero(t_enter < t_arrive)
    if early.size:
        raise InternalConsistencyError(
            f"flow {uid[early[0]]} entered the virtual net before it arrived")

    spec = bandwidth_spec_for(routes)
    t_inject = serve(spec, [t.route for t in types], [t.size for t in types], t_enter, ti, uid)
    return NbRunResult(types=types, spec=spec, uid=uid, type=ti, t_enter=t_enter,
                       t_arrive=t_arrive, t_inject=t_inject)


def departure_process(result: NbRunResult, type_index: int, burn_in: float = 0.0) -> list[float]:
    """Departure epochs of one type after burn-in; dummies excluded."""
    t = np.sort(result.t_inject[(result.type == type_index) & (result.uid >= 0)])
    return t[t >= burn_in].tolist()

