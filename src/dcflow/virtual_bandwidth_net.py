"""Event-driven simulation of the virtual bandwidth-sharing network.

Each route is one allocation class whose resources are its queues.  The
allocation is insensitive to flow sizes: it depends only on how many
flows each route holds, and the flows of every size on a route share the
route's rate equally.  Between events the rate vector is constant, so
flow completions are computed in closed form: a route tracks the
cumulative service V granted to each of its flows, a flow of size x
arriving when the route had accumulated V departs once the route reaches
V + x, and the allocation is re-evaluated only when the occupancy vector
changes.

The congestion-control rule is: a flow becomes eligible for the internal
network exactly when it departs this virtual network.  Its external wait
therefore equals its virtual sojourn, by construction, plus for a
regularized flow its wait for an emission epoch; the run checks that no
flow enters before it arrives.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import InternalConsistencyError
from .flow_gen import ArrivalStream, FlowType
from .sfa_core import BandwidthNetworkSpec, _evaluator
from .topology import LoadProfile, Route, compute_loads, queue_paths, require_admissible


def bandwidth_spec_for(routes: list[Route]) -> BandwidthNetworkSpec:
    """Map queue-level routes to an allocation spec; class r is route r."""
    queues, paths = queue_paths(routes)
    return BandwidthNetworkSpec.unit(len(queues), paths)


class NbState:
    """Mutable simulation state: clock, per-class flow sets, current rates.

    A flow joins a class with its own size, so one class may hold flows
    of several sizes.
    """

    def __init__(self, spec: BandwidthNetworkSpec, record_states: bool = True):
        self.spec = spec
        self.clock = 0.0
        self.n = [0] * spec.n_routes
        self.v = [0.0] * spec.n_routes            # cumulative per-flow service
        self.heaps: list[list[tuple[float, int]]] = [[] for _ in range(spec.n_routes)]
        self.phi: tuple[float, ...] = (0.0,) * spec.n_routes
        self.occ_integral = [0.0] * spec.n_routes
        self.state_time: dict[tuple[int, ...], float] = {} if record_states else None
        self.n_events = 0
        self._ev = _evaluator(spec, exact=False)
        self._feas_cap = [float(c) + 1e-9 for c in spec.capacities]
        self._feasible: set[tuple[int, ...]] = set()  # occupancies checked
        self._users = []  # per resource: [(class, consumption), ...]
        for l in range(spec.n_resources):
            row = []
            for j in spec.routes_using(l):
                k = spec.route_resources[j].index(l)
                row.append((j, float(spec.consumption[j][k])))
            self._users.append(row)

    # -- bookkeeping ------------------------------------------------------

    def advance(self, t: float) -> None:
        dt = t - self.clock
        if dt < 0:
            raise InternalConsistencyError(f"clock moved backwards: {self.clock} -> {t}")
        if dt > 0:
            n, v, phi, occ = self.n, self.v, self.phi, self.occ_integral
            for j in range(len(n)):
                nj = n[j]
                if nj:
                    v[j] += phi[j] / nj * dt
                    occ[j] += nj * dt
            if self.state_time is not None:
                key = tuple(n)
                self.state_time[key] = self.state_time.get(key, 0.0) + dt
            self.clock = t

    def _recompute(self) -> None:
        n_now = tuple(self.n)
        self.phi = phi = self._ev.rates(n_now)
        if n_now in self._feasible:
            return
        # capacity feasibility at the new allocation; the rates are a pure
        # function of the occupancy, so each occupancy is checked once
        for l, row in enumerate(self._users):
            used = 0.0
            for j, b in row:
                if n_now[j]:
                    used += b * phi[j]
            if used > self._feas_cap[l]:
                raise InternalConsistencyError(
                    f"allocation violates capacity of resource {l}: {used}"
                )
        self._feasible.add(n_now)

    # -- transitions -------------------------------------------------------

    def apply_arrival(self, t: float, class_idx: int, uid: int, size: float) -> None:
        self.advance(t)
        heapq.heappush(self.heaps[class_idx], (self.v[class_idx] + size, uid))
        self.n[class_idx] += 1
        self._recompute()
        self.n_events += 1

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
            if remaining < -1e-9:
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
        self.n_events += 1


@dataclass
class NbRunResult:
    """Outcome of one virtual-network run.  Occupancies are per route."""

    types: tuple[FlowType, ...]
    spec: BandwidthNetworkSpec
    injections: dict[int, float]                     # uid -> eligibility instant
    enter_times: dict[int, float]                    # uid -> arrival into the virtual net
    arrive_times: dict[int, float]                   # uid -> external arrival
    type_of: dict[int, int]
    departures_by_type: list[list[tuple[float, int]]]
    occupancy_time_avg: tuple[float, ...]
    state_time: dict[tuple[int, ...], float] | None
    n_events: int

    def waiting_delay(self, uid: int) -> float:
        return self.injections[uid] - self.arrive_times[uid]


def run_emulation(
    stream: ArrivalStream,
    routes: list[Route],
    *,
    profile: LoadProfile | None = None,
    record_states: bool = True,
) -> NbRunResult:
    """Drive the virtual network with a stream; injection time = departure.

    Refuses inadmissible loads.  For a regularized stream pass the profile
    computed at the effective emission rates.
    """
    types = stream.types
    if profile is None:
        profile = compute_loads(routes, {(t.route, t.size): t.rate for t in types})
    require_admissible(profile)

    spec = bandwidth_spec_for(routes)
    state = NbState(spec, record_states=record_states)

    injections: dict[int, float] = {}
    enter: dict[int, float] = {}
    arrive: dict[int, float] = {}
    type_of: dict[int, int] = {}
    departures: list[list[tuple[float, int]]] = [[] for _ in types]

    events = stream.events
    i, total = 0, len(events)
    while True:
        nd = state.next_departure()
        if i < total:
            ta = events[i][0]
            if nd is None or ta < nd[0]:
                t, ti, uid = events[i]
                i += 1
                state.apply_arrival(t, types[ti].route, uid, types[ti].size)
                enter[uid] = t
                arrive[uid] = stream.arrival_time(uid, t)
                type_of[uid] = ti
                continue
        if nd is None:
            break
        t, j, uid = nd
        state.apply_departure(t, j, uid)
        injections[uid] = t
        departures[type_of[uid]].append((t, uid))

    end_clock = state.clock
    occ_avg = tuple(
        (integral / end_clock if end_clock > 0 else 0.0) for integral in state.occ_integral
    )
    result = NbRunResult(
        types=types,
        spec=spec,
        injections=injections,
        enter_times=enter,
        arrive_times=arrive,
        type_of=type_of,
        departures_by_type=departures,
        occupancy_time_avg=occ_avg,
        state_time=state.state_time,
        n_events=state.n_events,
    )
    _assert_entered_after_arrival(result)
    return result


def _assert_entered_after_arrival(result: NbRunResult) -> None:
    # a regularized flow enters at an emission epoch after its external
    # arrival; any other flow enters the instant it arrives
    for uid, t_enter in result.enter_times.items():
        if t_enter < result.arrive_times[uid]:
            raise InternalConsistencyError(f"flow {uid} entered the virtual net before it arrived")


def departure_process(result: NbRunResult, type_index: int, burn_in: float = 0.0) -> list[float]:
    """Departure epochs of one type after burn-in; dummies excluded."""
    return [t for t, uid in result.departures_by_type[type_index] if t >= burn_in and uid >= 0]


def write_injection_trace(result: NbRunResult, path: str) -> None:
    """CSV trace `uid,t_arrive,t_inject`, one row per flow, uid order."""
    with open(path, "w") as fh:
        fh.write("# dcflow injection-trace v1\n")
        fh.write("uid,t_arrive,t_inject\n")
        for uid in sorted(result.injections):
            fh.write(f"{uid},{result.arrive_times[uid]!r},{result.injections[uid]!r}\n")
