"""Per-type delay statistics, distribution checks, and bound reports."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .ct_network import EpsilonConfig
from .dt_network import DelayLedger
from .sfa_core import StationaryLaw, occupancies_within
from .topology import LoadProfile


@dataclass
class TypeStats:
    """Sample means for one (route, size) type next to its closed-form
    oracles and proven bounds.  Means are None when no flow of the type
    completed after burn-in.  `within_bounds` is the type's bound
    decision, the one the verdict, `summary.csv` and `report.txt` read."""

    route: int
    size: float
    count: int
    mean_dw: float | None
    mean_ds: float | None
    mean_d: float | None
    oracle_dw: float
    oracle_ds: float
    bound_dw: float
    bound_ds: float
    bound_d: float
    within_bounds: bool


@dataclass(frozen=True)
class TypeOracle:
    """Closed-form predictions and proven bounds for one (route, size) type."""

    oracle_dw: float
    oracle_ds: float
    bound_dw: float
    bound_ds: float
    bound_d: float


def oracle_table(
    profile: LoadProfile,
    eps: EpsilonConfig,
    extra_wait: dict[tuple[int, float], float] | None = None,
) -> dict[tuple[int, float], TypeOracle]:
    """Oracles and bounds per type, in (route, size) order.

    The waiting oracle is the virtual network's mean sojourn and the
    scheduling oracle the reference network's, each a sum over the route's
    queues of size / (1 - load): the size x and loads f for the virtual
    network, the slot-rounded x_eps and f_eps for the reference network.
    The waiting bound is x * d / (1 - rho) for a d-hop route, and the
    scheduling bound (C0 / (C0 - 1)) * (x * d / (1 - rho) + d).
    `extra_wait` adds a per-type constant to the waiting oracle and bound:
    a regularized run passes the regularizer stage's exact expected
    sojourn here, since measured waits then start at the external arrival
    rather than at the emission.
    """
    def sojourn(j: int, size: float, load: dict) -> float:
        return sum(size / (1.0 - load[q]) for q in profile.routes[j].queue_path)

    scale = eps.c0 / (eps.c0 - 1.0)
    extra_wait = extra_wait or {}
    table = {}
    for (j, x) in sorted(profile.lam):
        d = profile.routes[j].hop_count
        w = x * d / (1.0 - profile.rho[j])
        extra = extra_wait.get((j, x), 0.0)
        b_w = w + extra
        b_s = scale * (w + d)
        table[(j, x)] = TypeOracle(sojourn(j, x, profile.f) + extra,
                                   sojourn(j, eps.x_eps[x], eps.f_eps), b_w, b_s, b_w + b_s)
    return table


def summarize(
    ledger: DelayLedger,
    burn_in: float,
    profile: LoadProfile,
    eps: EpsilonConfig,
    extra_wait: dict[tuple[int, float], float] | None = None,
    slack: float = 0.0,
) -> list[TypeStats]:
    """Per-type means over real flows arriving at or after `burn_in`, next
    to the `oracle_table` entries of their type.  A type is within bounds
    when each mean is at most its bound times 1 + `slack`, or when no flow
    of it is kept."""
    kept = (ledger.uid >= 0) & (ledger.t_arrive >= burn_in)
    route, size = ledger.route, ledger.size
    stats = []
    for (j, x), o in oracle_table(profile, eps, extra_wait).items():
        rows = ledger[kept & (route == j) & (size == x)]
        n = len(rows)
        # exactly-rounded sums keep the result independent of row order
        means = ([math.fsum(col.tolist()) / n for col in (rows.d_w, rows.d_s, rows.d)]
                 if n else [None, None, None])
        ok = n == 0 or all(m <= b * (1.0 + slack)
                           for m, b in zip(means, (o.bound_dw, o.bound_ds, o.bound_d)))
        stats.append(TypeStats(j, x, n, *means, **asdict(o), within_bounds=ok))
    return stats


@dataclass
class PoissonReport:
    n: int
    mean_ratio: float | None   # sample mean inter-arrival over 1/rate
    cv2: float | None          # squared coefficient of variation of gaps
    dispersion: float | None   # variance/mean of window counts
    conclusive: bool


def test_poisson(times: list[float], rate: float, min_samples: int = 10_000,
                 n_windows: int = 2_000) -> PoissonReport:
    """Mean/CV^2/dispersion checks of a point process against Poisson(rate).

    For an exponential gap distribution the CV^2 is 1; window counts of a
    Poisson process have unit variance-to-mean ratio.
    """
    ts = np.asarray(times, dtype=float)
    n = len(ts)
    if n < max(2, min_samples):
        return PoissonReport(n=n, mean_ratio=None, cv2=None, dispersion=None, conclusive=False)
    gaps = np.diff(np.sort(ts))
    mean = float(gaps.mean())
    var = float(gaps.var())
    cv2 = var / mean**2 if mean > 0 else math.inf

    span = float(ts.max() - ts.min())
    w = max(10, min(n_windows, n // 20))
    counts, _ = np.histogram(ts, bins=w)
    cm = counts.mean()
    dispersion = float(counts.var() / cm) if cm > 0 else math.inf
    return PoissonReport(
        n=n,
        mean_ratio=mean * rate,
        cv2=cv2,
        dispersion=dispersion,
        conclusive=span > 0,
    )


test_poisson.__test__ = False  # an operation named for what it does, not a pytest case


def window_count_correlation(times_a: list[float], times_b: list[float],
                             n_windows: int = 2_000) -> float:
    """Sample correlation of two processes' counts over a common window grid."""
    a = np.asarray(times_a, dtype=float)
    b = np.asarray(times_b, dtype=float)
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    edges = np.linspace(lo, hi, n_windows + 1)
    ca, _ = np.histogram(a, bins=edges)
    cb, _ = np.histogram(b, bins=edges)
    return float(np.corrcoef(ca, cb)[0, 1])


@dataclass
class DistributionComparison:
    tv_distance: float
    analytic_mass: float
    empirical_mass: float
    truncation_warning: bool


def compare_distribution(
    state_time: dict[tuple[int, ...], float],
    law: StationaryLaw,
    support_cap: int,
) -> DistributionComparison:
    """Total variation between a time-weighted occupancy histogram and the
    product-form law, both renormalized over states with total <= cap.

    Flags the comparison when the cap leaves out more than 20% of the
    analytic mass.
    """
    n_routes = law.spec.n_routes
    states = list(occupancies_within(n_routes, support_cap))
    analytic = np.array([law.pi(s) for s in states])
    analytic_mass = float(analytic.sum())

    total_time = sum(state_time.values())
    emp = np.array([state_time.get(s, 0.0) for s in states])
    emp_mass = float(emp.sum()) / total_time if total_time > 0 else 0.0

    if analytic_mass <= 0 or emp.sum() <= 0:
        return DistributionComparison(1.0, analytic_mass, emp_mass, True)

    tv = 0.5 * float(np.abs(emp / emp.sum() - analytic / analytic_mass).sum())
    return DistributionComparison(
        tv_distance=tv,
        analytic_mass=analytic_mass,
        empirical_mass=emp_mass,
        truncation_warning=analytic_mass < 0.8,
    )


SUMMARY_VERSION = "# dcflow summary v1"
SUMMARY_COLUMNS = (
    "sweep,route,size,count,mean_DW,mean_DS,mean_D,"
    "oracle_DW,oracle_DS,bound_DW,bound_DS,bound_D,within_bounds"
)


def write_summary_csv(stats_by_point: list[tuple[float, list[TypeStats]]], path: str) -> None:
    def fmt(v):
        return "" if v is None else repr(v)

    with open(path, "w") as fh:
        fh.write(SUMMARY_VERSION + "\n")
        fh.write(SUMMARY_COLUMNS + "\n")
        for mult, stats in stats_by_point:
            for s in stats:
                fh.write(
                    f"{mult!r},{s.route},{s.size!r},{s.count},{fmt(s.mean_dw)},{fmt(s.mean_ds)},"
                    f"{fmt(s.mean_d)},{s.oracle_dw!r},{s.oracle_ds!r},{s.bound_dw!r},"
                    f"{s.bound_ds!r},{s.bound_d!r},{int(s.within_bounds)}\n"
                )


def format_report(stats_by_point: list[tuple[float, list[TypeStats]]]) -> str:
    """Aligned, human-readable summary table."""
    header = (
        f"{'sweep':>6} {'route':>5} {'size':>6} {'count':>8} "
        f"{'mean_DW':>10} {'mean_DS':>10} {'mean_D':>10} "
        f"{'orc_DW':>10} {'orc_DS':>10} {'bnd_D':>10} {'ok':>3}"
    )
    lines = [header, "-" * len(header)]
    for mult, stats in stats_by_point:
        for s in stats:
            def num(v):
                return f"{v:10.4f}" if v is not None else f"{'-':>10}"

            lines.append(
                f"{mult:6.3f} {s.route:5d} {s.size:6.2f} {s.count:8d} "
                f"{num(s.mean_dw)} {num(s.mean_ds)} {num(s.mean_d)} "
                f"{s.oracle_dw:10.4f} {s.oracle_ds:10.4f} {s.bound_d:10.4f} "
                f"{'ok' if s.within_bounds else 'NO':>3}"
            )
    return "\n".join(lines) + "\n"
