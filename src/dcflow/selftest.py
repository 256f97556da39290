"""Brute-force oracle suite, runnable from the CLI and from tests.

Three families of checks: the normalizer by Mean Value Analysis versus
direct enumeration of the splitting set on random unit specs (each
resource of capacity 1, each route using one unit of it), processor-sharing
recovery in exact arithmetic, both against an implementation-independent
reference, and the slot-granularity rule on random admissible networks,
where `choose_epsilon` asserts its own load-inflation guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ct_network import choose_epsilon
from .errors import DcflowError
from .sfa_core import (
    BandwidthNetworkSpec,
    occupancies_within,
    phi_big,
    phi_big_bruteforce,
    phi_rate,
)
from .topology import TreeSpec, compute_loads, make_route


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def random_spec(rng: np.random.Generator, max_resources: int = 4,
                max_routes: int = 3) -> BandwidthNetworkSpec:
    """A unit spec of 1 to `max_resources` resources and 1 to `max_routes`
    routes, each over a random nonempty set of them."""
    n_res = int(rng.integers(1, max_resources + 1))
    n_routes = int(rng.integers(1, max_routes + 1))
    routes = (rng.choice(n_res, size=int(rng.integers(1, n_res + 1)), replace=False)
              for _ in range(n_routes))
    return BandwidthNetworkSpec(n_res, tuple(tuple(sorted(r.tolist())) for r in routes))


def check_normalizer_oracle(n_specs: int = 200, max_total: int = 6,
                            seed: int = 2024) -> CheckResult:
    """Phi by Mean Value Analysis equals brute-force enumeration at every
    occupancy of total at most `max_total`: exact in rational mode, 1e-12
    relative in float mode."""
    rng = np.random.Generator(np.random.PCG64(seed))
    checked = 0
    for _ in range(n_specs):
        spec = random_spec(rng)
        for n in occupancies_within(spec.n_routes, max_total):
            want_exact = phi_big_bruteforce(spec, n, exact=True)
            got_exact = phi_big(spec, n, exact=True)
            if got_exact != want_exact:
                return CheckResult(
                    "normalizer_oracle", False,
                    f"exact mismatch at {n} on spec {spec}: {got_exact} != {want_exact}",
                )
            want = phi_big_bruteforce(spec, n)
            got = phi_big(spec, n)
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                return CheckResult(
                    "normalizer_oracle", False,
                    f"float mismatch at {n} on spec {spec}: {got} != {want}",
                )
            checked += 1
    return CheckResult(
        "normalizer_oracle", True,
        f"{n_specs} random unit specs, {checked} occupancies, exact and 1e-12 float agreement",
    )


def check_processor_sharing(max_total: int = 30) -> CheckResult:
    """Two routes on one shared unit resource: rate of route 1 must be
    exactly n1 / (n1 + n2)."""
    spec = BandwidthNetworkSpec(1, ((0,), (0,)))
    for n1 in range(max_total + 1):
        for n2 in range(max_total + 1 - n1):
            if n1 + n2 == 0:
                continue
            phi = phi_rate(spec, (n1, n2), exact=True)
            want = Fraction(n1, n1 + n2)
            if phi[0] != want:
                return CheckResult(
                    "processor_sharing", False,
                    f"phi_1({n1},{n2}) = {phi[0]} != {want}",
                )
    return CheckResult(
        "processor_sharing", True,
        f"exact n1/(n1+n2) recovery for all occupancies up to {max_total}",
    )


def random_admissible_network(rng: np.random.Generator):
    """Random small tree, routes, and rates scaled inside the admissible
    region; returns (profile, c0)."""
    n_nodes = int(rng.integers(2, 7))
    nodes = tuple(f"n{i}" for i in range(n_nodes))
    parent = {nodes[i]: nodes[int(rng.integers(0, i))] for i in range(1, n_nodes)}
    tree = TreeSpec(nodes=nodes, root=nodes[0], parent=parent)

    n_routes = int(rng.integers(1, 4))
    routes = []
    for j in range(n_routes):
        src, dst = rng.choice(n_nodes, size=2, replace=False)
        routes.append(make_route(tree, nodes[src], nodes[dst], route_id=j))

    sizes = [0.5, 1.0, 2.0]
    lam = {}
    for route in routes:
        for x in rng.choice(sizes, size=int(rng.integers(1, 3)), replace=False):
            lam[(route.id, float(x))] = float(rng.uniform(0.05, 1.0))

    profile = compute_loads(routes, lam)
    worst = max(profile.f.values())
    target = float(rng.uniform(0.2, 0.95))
    scale = target / worst
    lam = {k: v * scale for k, v in lam.items()}
    profile = compute_loads(routes, lam)
    c0 = float(rng.uniform(1.01, 5.0))
    return profile, c0


def check_epsilon_rule(n_configs: int = 100, seed: int = 77) -> CheckResult:
    """`choose_epsilon` accepts `n_configs` random admissible networks.
    It raises unless every rounded load stays strictly feasible and within
    the (C0-1)/C0 inflation floor, so a raise reports FAIL."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for i in range(n_configs):
        profile, c0 = random_admissible_network(rng)
        try:
            choose_epsilon(profile, c0)
        except DcflowError as exc:
            return CheckResult("epsilon_rule", False, f"config {i}: {exc}")
    return CheckResult("epsilon_rule", True, f"{n_configs} random admissible configs")


def run_selftest(fast: bool = False) -> list[CheckResult]:
    if fast:
        return [
            check_normalizer_oracle(n_specs=40, max_total=4),
            check_processor_sharing(max_total=12),
            check_epsilon_rule(n_configs=25),
        ]
    return [
        check_normalizer_oracle(),
        check_processor_sharing(),
        check_epsilon_rule(),
    ]
