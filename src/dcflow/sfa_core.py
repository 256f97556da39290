"""Store-and-forward bandwidth allocation.

The allocation assigns route j the rate phi_j(n) = Phi(n - e_j) / Phi(n),
where the normalizer Phi sums, over every way of splitting the n_j flows
of each route among the resources that route uses, the product over
resources of a multinomial coefficient and per-unit consumption weights.

Phi is evaluated here through a linear recurrence rather than term
enumeration.  The generating function of Phi is the product over resources
of 1 / (1 - sum_j w_lj z_j) with w_lj = B_lj / C_l, so multiplying through
by the denominator polynomial gives

    Phi(n) = - sum_{d != 0} c_d Phi(n - d),      Phi(0) = 1,

with (c_d, d) the nonconstant monomials of prod_l (1 - sum_j w_lj z_j).
Results are memoized per specification.  A direct enumerator over the
splitting set is provided as an independent oracle.

Substituting z_j = alpha_j into the generating function yields the closed
form of the stationary normalizer, which is how the product-form law and
the expected-occupancy formulas below hang together.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import (
    EnumerationLimitError,
    InternalConsistencyError,
    StabilityViolationError,
)
from .topology import LoadProfile

Number = Union[float, Fraction]


@dataclass(frozen=True)
class BandwidthNetworkSpec:
    """Resources with capacities, and routes with per-resource consumption.

    `route_resources[j]` lists the resource indices route j uses;
    `consumption[j]` gives the matching B_lj values (all 1 by default).
    """

    capacities: tuple[Number, ...]
    route_resources: tuple[tuple[int, ...], ...]
    consumption: tuple[tuple[Number, ...], ...] = ()
    max_total_occupancy: int = 64

    def __post_init__(self) -> None:
        if not self.consumption:
            object.__setattr__(
                self, "consumption", tuple(tuple(1 for _ in r) for r in self.route_resources)
            )
        if any(c <= 0 for c in self.capacities):
            raise ValueError("capacities must be positive")
        if len(self.consumption) != len(self.route_resources):
            raise ValueError("consumption shape does not match routes")
        for j, (res, B) in enumerate(zip(self.route_resources, self.consumption)):
            if not res:
                raise ValueError(f"route {j} uses no resource")
            if len(set(res)) != len(res):
                raise ValueError(f"route {j} lists a resource twice")
            if len(B) != len(res):
                raise ValueError(f"route {j} consumption shape mismatch")
            if any(b <= 0 for b in B):
                raise ValueError("consumption on a used resource must be positive")
            if any(l < 0 or l >= len(self.capacities) for l in res):
                raise ValueError(f"route {j} references an unknown resource")

    @classmethod
    def unit(cls, n_resources: int, routes: list[tuple[int, ...]], max_total_occupancy: int = 64):
        """All capacities 1, all consumptions 1."""
        return cls(
            capacities=tuple(1 for _ in range(n_resources)),
            route_resources=tuple(tuple(r) for r in routes),
            max_total_occupancy=max_total_occupancy,
        )

    @property
    def n_routes(self) -> int:
        return len(self.route_resources)

    @property
    def n_resources(self) -> int:
        return len(self.capacities)

    def routes_using(self, l: int) -> list[int]:
        return [j for j, res in enumerate(self.route_resources) if l in res]

    def weight(self, l: int, j: int, exact: bool) -> Number:
        """B_lj / C_l."""
        k = self.route_resources[j].index(l)
        b, c = self.consumption[j][k], self.capacities[l]
        if exact:
            return Fraction(b) / Fraction(c)
        return float(b) / float(c)


@dataclass(frozen=True)
class RateAllocation:
    """Route rates phi(n) together with the occupancy that produced them."""

    phi: tuple[float, ...]
    n: tuple[int, ...]


class _PhiEvaluator:
    """Memoized recurrence evaluation of the normalizer for one spec.

    The memo only ever stores values of a pure function, so concurrent
    readers see identical results regardless of interleaving; writes are
    idempotent.
    """

    def __init__(self, spec: BandwidthNetworkSpec, exact: bool):
        self.spec = spec
        self.exact = exact
        one: Number = Fraction(1) if exact else 1.0
        zero = tuple(0 for _ in range(spec.n_routes))

        poly: dict[tuple[int, ...], Number] = {zero: one}
        for l in range(spec.n_resources):
            users = spec.routes_using(l)
            if not users:
                continue
            factor: dict[tuple[int, ...], Number] = {zero: one}
            for j in users:
                e = list(zero)
                e[j] = 1
                factor[tuple(e)] = -spec.weight(l, j, exact)
            merged: dict[tuple[int, ...], Number] = {}
            for da, ca in poly.items():
                for db, cb in factor.items():
                    d = tuple(a + b for a, b in zip(da, db))
                    merged[d] = merged.get(d, 0) + ca * cb
            poly = {d: c for d, c in merged.items() if c != 0}

        self._terms = [(d, c) for d, c in poly.items() if d != zero]
        self._memo: dict[tuple[int, ...], Number] = {zero: one}
        self._zero_val: Number = Fraction(0) if exact else 0.0

    def phi(self, n: tuple[int, ...]) -> Number:
        if any(c < 0 for c in n):
            return self._zero_val
        memo = self._memo
        got = memo.get(n)
        if got is not None:
            return got
        if sum(n) > self.spec.max_total_occupancy:
            raise EnumerationLimitError(
                f"total occupancy {sum(n)} exceeds budget {self.spec.max_total_occupancy}"
            )
        terms = self._terms
        stack = [n]
        while stack:
            cur = stack[-1]
            if cur in memo:
                stack.pop()
                continue
            acc = self._zero_val
            missing = None
            for delta, coeff in terms:
                m = tuple(a - b for a, b in zip(cur, delta))
                ok = True
                for c in m:
                    if c < 0:
                        ok = False
                        break
                if not ok:
                    continue
                val = memo.get(m)
                if val is None:
                    if missing is None:
                        missing = [m]
                    else:
                        missing.append(m)
                elif missing is None:
                    acc = acc - coeff * val
            if missing is None:
                if not self.exact and not acc > 0:
                    raise InternalConsistencyError(
                        f"normalizer lost positivity at occupancy {cur}: {acc}"
                    )
                memo[cur] = acc
                stack.pop()
            else:
                stack.extend(missing)
        return memo[n]

    def rates(self, n: tuple[int, ...]) -> list[Number]:
        """phi_j(n) = Phi(n - e_j) / Phi(n) per route; 0 for an empty route."""
        denom = self.phi(n)
        out = []
        for j, nj in enumerate(n):
            if nj == 0:
                out.append(self._zero_val)
                continue
            m = list(n)
            m[j] -= 1
            out.append(self.phi(tuple(m)) / denom)
        return out


_EVALUATORS: dict[tuple[BandwidthNetworkSpec, bool], _PhiEvaluator] = {}


def _evaluator(spec: BandwidthNetworkSpec, exact: bool) -> _PhiEvaluator:
    key = (spec, exact)
    ev = _EVALUATORS.get(key)
    if ev is None:
        ev = _PhiEvaluator(spec, exact)
        _EVALUATORS[key] = ev
    return ev


def phi_big(spec: BandwidthNetworkSpec, n: tuple[int, ...], exact: bool = False) -> Number:
    """Normalizer Phi(n); 0 if any component of n is negative, 1 at n = 0."""
    if len(n) != spec.n_routes:
        raise ValueError("occupancy dimension does not match route count")
    return _evaluator(spec, exact).phi(tuple(n))


def _compositions(total: int, parts: int):
    """All ways to split `total` into `parts` labeled nonnegative integers."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def occupancies_within(n_routes: int, cap: int):
    """Every occupancy vector of `n_routes` nonnegative entries summing to
    at most `cap`, in lexicographic order."""
    if n_routes == 0:
        yield ()
        return
    for head in range(cap + 1):
        for rest in occupancies_within(n_routes - 1, cap - head):
            yield (head,) + rest


def phi_big_bruteforce(spec: BandwidthNetworkSpec, n: tuple[int, ...], exact: bool = False) -> Number:
    """Direct sum over the splitting set; independent oracle for phi_big.

    Enumerates, route by route, every composition of n_j over the resources
    of route j, and accumulates the product of per-resource multinomials
    and weights.  No memoization, no recurrence.
    """
    if any(c < 0 for c in n):
        return Fraction(0) if exact else 0.0
    per_route = [list(_compositions(n[j], len(spec.route_resources[j]))) for j in range(spec.n_routes)]
    total = Fraction(0) if exact else 0.0
    for pick in itertools.product(*per_route):
        m_l: dict[int, int] = {}
        denom = 1
        weight: Number = Fraction(1) if exact else 1.0
        for j, comp in enumerate(pick):
            for l, m in zip(spec.route_resources[j], comp):
                if m == 0:
                    continue
                m_l[l] = m_l.get(l, 0) + m
                denom *= math.factorial(m)
                w = spec.weight(l, j, exact)
                weight = weight * w**m
        numer = 1
        for m in m_l.values():
            numer *= math.factorial(m)
        if exact:
            total += Fraction(numer, denom) * weight
        else:
            total += (numer / denom) * weight
    return total


def phi_rate(spec: BandwidthNetworkSpec, n: tuple[int, ...], exact: bool = False) -> RateAllocation:
    """Allocated rate per route: phi_j(n) = Phi(n - e_j) / Phi(n)."""
    n = tuple(n)
    if len(n) != spec.n_routes:
        raise ValueError("occupancy dimension does not match route count")
    return RateAllocation(phi=tuple(_evaluator(spec, exact).rates(n)), n=n)


def _resource_loads(spec: BandwidthNetworkSpec, alpha) -> list[float]:
    g = []
    for l in range(spec.n_resources):
        used = 0.0
        for j in spec.routes_using(l):
            k = spec.route_resources[j].index(l)
            used += float(spec.consumption[j][k]) * float(alpha[j])
        g.append(used / float(spec.capacities[l]))
    return g


def _require_stable(spec: BandwidthNetworkSpec, alpha) -> list[float]:
    if len(alpha) != spec.n_routes:
        raise ValueError("traffic vector dimension does not match route count")
    if any(a < 0 for a in alpha):
        raise ValueError("traffic intensities must be nonnegative")
    g = _resource_loads(spec, alpha)
    bad = [l for l, gl in enumerate(g) if gl >= 1.0]
    if bad:
        raise StabilityViolationError(f"resources {bad} are loaded at or above capacity")
    return g


@dataclass
class StationaryLaw:
    """Product-form equilibrium law of the occupancy vector."""

    spec: BandwidthNetworkSpec
    alpha: tuple[float, ...]
    normalizer: float               # closed form: prod_l C_l / (C_l - sum_j B_lj alpha_j)
    g: tuple[float, ...]            # per-resource load

    def pi(self, n: tuple[int, ...]) -> float:
        weight = 1.0
        for a, c in zip(self.alpha, n):
            weight *= a**c
        return float(phi_big(self.spec, tuple(n))) * weight / self.normalizer


def stationary_pi(spec: BandwidthNetworkSpec, alpha) -> StationaryLaw:
    g = _require_stable(spec, alpha)
    norm = 1.0
    for l, gl in enumerate(g):
        norm *= 1.0 / (1.0 - gl)
    return StationaryLaw(spec=spec, alpha=tuple(float(a) for a in alpha), normalizer=norm, g=tuple(g))


def expected_occupancy(spec: BandwidthNetworkSpec, alpha) -> tuple[float, ...]:
    """Closed-form mean number of flows per route in equilibrium."""
    g = _require_stable(spec, alpha)
    out = []
    for j in range(spec.n_routes):
        total = 0.0
        for l in spec.route_resources[j]:
            k = spec.route_resources[j].index(l)
            b = float(spec.consumption[j][k])
            total += (b * float(alpha[j]) / float(spec.capacities[l])) / (1.0 - g[l])
        out.append(total)
    return tuple(out)


def expected_flow_delay(profile: LoadProfile) -> dict[tuple[int, float], float]:
    """Mean sojourn of a type-(route, size) flow in the virtual network:
    sum over the route's queues of size / (1 - f_v)."""
    if any(fv >= 1.0 for fv in profile.f.values()):
        raise StabilityViolationError("profile is not admissible")
    out = {}
    for (j, x) in profile.lam:
        route = profile.routes[j]
        out[(j, x)] = sum(x / (1.0 - profile.f[q]) for q in route.queue_path)
    return out
