"""Store-and-forward bandwidth allocation.

Every resource has capacity 1, and a route uses one unit of each
resource on it.  The allocation assigns route j the rate
phi_j(n) = Phi(n - e_j) / Phi(n), where the normalizer Phi counts, over
every way of splitting the n_j flows of each route among the resources
that route uses, the product over resources of a multinomial
coefficient.

Phi is the normalizing constant of a closed multiclass network of
processor-sharing stations, so phi_j(n) is that network's class-j
throughput, and exact Mean Value Analysis (Reiser & Lavenberg 1980)
evaluates it from positive terms only; see `_PhiEvaluator`.  Results are
memoized per specification, up to `MAX_MEMO_ENTRIES` occupancies.  A
direct enumerator over the splitting set is provided as an independent
oracle.

Substituting z_j = alpha_j into the generating function of Phi,
prod_l 1 / (1 - sum_{j uses l} z_j), yields the closed form of the
stationary normalizer, which is how the product-form law and the
expected-occupancy formulas below hang together.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import EnumerationLimitError, StabilityViolationError

Number = Union[float, Fraction]

# Occupancies one normalizer memo may hold.  A float entry costs about
# 400 bytes over 2 routes and 490 over 3 (tracemalloc, CPython 3.11), so
# the budget caps one memo near 0.4-0.5 GB.
MAX_MEMO_ENTRIES = 1_000_000


@dataclass(frozen=True)
class BandwidthNetworkSpec:
    """`n_resources` unit-capacity resources, and routes that each use one
    unit of every resource they list: `route_resources[j]` holds the
    resource indices of route j."""

    n_resources: int
    route_resources: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for j, res in enumerate(self.route_resources):
            if not res:
                raise ValueError(f"route {j} uses no resource")
            if len(set(res)) != len(res):
                raise ValueError(f"route {j} lists a resource twice")
            if any(l < 0 or l >= self.n_resources for l in res):
                raise ValueError(f"route {j} references an unknown resource")

    @property
    def n_routes(self) -> int:
        return len(self.route_resources)

    def routes_using(self, l: int) -> list[int]:
        return [j for j, res in enumerate(self.route_resources) if l in res]


class _PhiEvaluator:
    """Memoized exact Mean Value Analysis for one spec.

    Resource l is a processor-sharing station where a class-j customer
    demands one unit of service if route j uses l, and none otherwise, and
    phi_j(n) is class j's throughput X_j(n) at population n:

        R_lj(n) = 1 + Q_l(n - e_j)    for each l that route j uses,
        X_j(n)  = n_j / sum_l R_lj(n),
        Q_l(n)  = sum_j X_j(n) R_lj(n).

    Stations used by the same set of routes hold equal queues at every
    population, so each group of them is solved as one station of
    multiplicity k_s, and Q keeps one queue length per group.  `_memo`
    maps an occupancy n to (X(n), Q(n)), and every n - e_j is inserted
    before n, so replaying its keys in order computes one entry per key.
    The memo only ever stores values of a pure function, so writes are
    idempotent.
    """

    def __init__(self, spec: BandwidthNetworkSpec, exact: bool):
        self.spec = spec
        self.exact = exact
        groups = Counter(tuple(l in res for res in spec.route_resources)
                         for l in range(spec.n_resources))
        # per route: (station group s, multiplicity k_s) for each group it uses
        self._stations = [
            [(s, k) for s, (users, k) in enumerate(groups.items()) if users[j]]
            for j in range(spec.n_routes)
        ]
        zero: Number = Fraction(0) if exact else 0.0
        self._zero_val = zero
        self._q_zero = (zero,) * len(groups)
        self._memo: dict[tuple[int, ...], tuple[tuple[Number, ...], ...]] = {
            (0,) * spec.n_routes: ((zero,) * spec.n_routes, self._q_zero)
        }

    def _solve(self, n: tuple[int, ...], below: list) -> tuple[tuple[Number, ...], ...]:
        """One MVA step: (X(n), Q(n)) from the memoized Q(n - e_j), where
        `below[j]` is n - e_j, or None for an empty route."""
        memo = self._memo
        x = [self._zero_val] * len(n)
        q = list(self._q_zero)
        for j, m in enumerate(below):
            if m is None:
                continue
            q_prev = memo[m][1]
            total = 0
            for s, k in self._stations[j]:
                total += k * (1 + q_prev[s])
            x[j] = xj = n[j] / total
            for s, _ in self._stations[j]:
                q[s] += xj * (1 + q_prev[s])
        return tuple(x), tuple(q)

    def _entry(self, n: tuple[int, ...]) -> tuple[tuple[Number, ...], ...]:
        memo = self._memo
        got = memo.get(n)
        if got is not None:
            return got
        stack = [n]
        while stack:
            cur = stack[-1]
            if cur in memo:
                stack.pop()
                continue
            below = [cur[:j] + (c - 1,) + cur[j + 1:] if c else None for j, c in enumerate(cur)]
            missing = [m for m in below if m is not None and m not in memo]
            if missing:
                stack.extend(missing)
                continue
            if len(memo) >= MAX_MEMO_ENTRIES:
                raise EnumerationLimitError(
                    f"normalizer memo over {len(n)} routes would exceed its budget of "
                    f"{MAX_MEMO_ENTRIES} entries at occupancy {n}"
                )
            memo[cur] = self._solve(cur, below)
            stack.pop()
        return memo[n]

    def rates(self, n: tuple[int, ...]) -> tuple[Number, ...]:
        """phi_j(n) = X_j(n) per route; 0 for an empty route."""
        return self._entry(n)[0]

    def path(self, n: tuple[int, ...]):
        """Steps (m, j) from n down to 0, each leaving a largest m_j, so
        products along the path stay balanced across routes."""
        m = list(n)
        for _ in range(sum(n)):
            j = m.index(max(m))
            yield tuple(m), j
            m[j] -= 1

    def phi(self, n: tuple[int, ...]) -> Number:
        """Phi(n) = Phi(n - e_j) / X_j(n), unrolled along `path`."""
        if any(c < 0 for c in n):
            return self._zero_val
        self._entry(n)
        acc: Number = Fraction(1) if self.exact else 1.0
        for m, j in self.path(n):
            acc /= self._memo[m][0][j]
        return acc


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


def occupancies_within(n_routes: int, cap: int):
    """Every occupancy vector of `n_routes` nonnegative entries summing to
    at most `cap`, in lexicographic order."""
    if n_routes == 0:
        yield ()
        return
    for head in range(cap + 1):
        for rest in occupancies_within(n_routes - 1, cap - head):
            yield (head,) + rest


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All ways to split `total` into `parts` labeled nonnegative integers,
    in lexicographic order: every head of `parts - 1` entries summing to at
    most `total`, and the remainder last."""
    return [head + (total - sum(head),) for head in occupancies_within(parts - 1, total)]


def phi_big_bruteforce(spec: BandwidthNetworkSpec, n: tuple[int, ...], exact: bool = False) -> Number:
    """Direct sum over the splitting set; independent oracle for phi_big.

    Enumerates, route by route, every composition of n_j over the resources
    of route j, and accumulates the product of per-resource multinomials.
    No memoization, no recurrence.
    """
    if any(c < 0 for c in n):
        return Fraction(0) if exact else 0.0
    per_route = [_compositions(n[j], len(spec.route_resources[j])) for j in range(spec.n_routes)]
    total = Fraction(0) if exact else 0.0
    for pick in itertools.product(*per_route):
        m_l: dict[int, int] = {}
        denom = 1
        for j, comp in enumerate(pick):
            for l, m in zip(spec.route_resources[j], comp):
                m_l[l] = m_l.get(l, 0) + m
                denom *= math.factorial(m)
        numer = math.prod(map(math.factorial, m_l.values()))
        total += Fraction(numer, denom) if exact else numer / denom
    return total


def phi_rate(spec: BandwidthNetworkSpec, n: tuple[int, ...], exact: bool = False) -> tuple[Number, ...]:
    """Allocated rate per route: phi_j(n) = Phi(n - e_j) / Phi(n)."""
    n = tuple(n)
    if len(n) != spec.n_routes:
        raise ValueError("occupancy dimension does not match route count")
    return _evaluator(spec, exact).rates(n)


def _resource_loads(spec: BandwidthNetworkSpec, alpha) -> list[float]:
    return [sum((float(alpha[j]) for j in spec.routes_using(l)), 0.0)
            for l in range(spec.n_resources)]


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
    normalizer: float               # closed form: prod_l 1 / (1 - g_l)
    g: tuple[float, ...]            # per-resource load

    def pi(self, n: tuple[int, ...]) -> float:
        """Phi(n) prod_j alpha_j^n_j / normalizer, as a product of
        alpha_j / X_j(m) along a path from n to 0: Phi itself overflows
        long before pi(n) underflows."""
        ev = _evaluator(self.spec, exact=False)
        p = 1.0 / self.normalizer
        for m, j in ev.path(tuple(n)):
            p *= self.alpha[j] / ev.rates(m)[j]
        return p


def stationary_pi(spec: BandwidthNetworkSpec, alpha) -> StationaryLaw:
    g = _require_stable(spec, alpha)
    norm = math.prod(1.0 / (1.0 - gl) for gl in g)
    return StationaryLaw(spec=spec, alpha=tuple(float(a) for a in alpha), normalizer=norm, g=tuple(g))


def expected_occupancy(spec: BandwidthNetworkSpec, alpha) -> tuple[float, ...]:
    """Closed-form mean number of flows per route in equilibrium."""
    g = _require_stable(spec, alpha)
    return tuple(sum(float(alpha[j]) / (1.0 - g[l]) for l in res)
                 for j, res in enumerate(spec.route_resources))
