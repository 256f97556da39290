"""Experiment front end: config parsing, pipeline orchestration, artifacts.

A config is one self-contained JSON document.  A run executes, per sweep
point, the full pipeline

    arrivals -> virtual bandwidth net -> reference net -> slotted net -> stats

and writes `ledger.csv`, `summary.csv`, a human-readable `report.txt` and
a machine-readable `verdict.json`; with `emit_hop_tables` on, each point
also writes its traces `injections.csv`, `ct_table.csv` and `hops.jsonl`.
A point's files are all written from its ledger, by `dt_network`'s writers.
Everything an experiment produces is a pure function of its config.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .ct_network import EpsilonConfig, choose_epsilon, run_ct
from .dt_network import (run_dt, write_ct_table, write_hop_table_jsonl, write_injection_trace,
                         write_ledger_csv)
from .errors import ConfigError, MalformedTreeError, StabilityViolationError
from .flow_gen import FlowType, gen_poisson, regularize
from .metrics import TypeStats, format_report, summarize, write_summary_csv
from .topology import LoadProfile, Route, TreeSpec, compute_loads, make_route, require_admissible
from .virtual_bandwidth_net import run_emulation


@dataclass
class ExperimentConfig:
    name: str
    topology_nodes: tuple[str, ...]
    topology_root: str
    topology_parent: dict[str, str]
    routes: tuple[tuple[str, str], ...]            # (src, dst) per route id
    types: tuple[tuple[int, float, float], ...]    # (route id, size, rate)
    horizon: float
    seed: int = 0
    c0: float = 2.0
    burn_in: float = 0.2
    epsilon_override: float | None = None
    sweep: tuple[float, ...] = (1.0,)
    regularizer: tuple[float, ...] | None = None   # emission rate per type
    bound_slack: float = 0.05
    emit_hop_tables: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "horizon": self.horizon,
            "burn_in": self.burn_in,
            "c0": self.c0,
            "epsilon_override": self.epsilon_override,
            "bound_slack": self.bound_slack,
            "emit_hop_tables": self.emit_hop_tables,
            "topology": {
                "nodes": list(self.topology_nodes),
                "root": self.topology_root,
                "parent": dict(self.topology_parent),
            },
            "routes": [{"src": s, "dst": d} for s, d in self.routes],
            "types": [{"route": j, "size": x, "rate": r} for j, x, r in self.types],
            "sweep": list(self.sweep),
            "regularizer": list(self.regularizer) if self.regularizer else None,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            topo = raw["topology"]
            emit = raw.get("emit_hop_tables", False)
            if type(emit) is not bool:
                raise ConfigError(f"emit_hop_tables: must be a JSON boolean, got {emit!r}")
            return cls(
                name=_string(raw.get("name", "experiment"), "name"),
                topology_nodes=_strings(topo["nodes"], "topology.nodes"),
                topology_root=_string(topo["root"], "topology.root"),
                topology_parent=_string_map(topo.get("parent", {}), "topology.parent"),
                routes=tuple(
                    (_string(r["src"], f"routes[{i}].src"), _string(r["dst"], f"routes[{i}].dst"))
                    for i, r in enumerate(raw["routes"])
                ),
                types=tuple(
                    (_integer(t["route"], f"types[{i}].route"),
                     _number(t["size"], f"types[{i}].size"),
                     _number(t["rate"], f"types[{i}].rate"))
                    for i, t in enumerate(raw["types"])
                ),
                horizon=_number(raw["horizon"], "horizon"),
                seed=_integer(raw.get("seed", 0), "seed"),
                c0=_number(raw.get("c0", 2.0), "c0"),
                burn_in=_number(raw.get("burn_in", 0.2), "burn_in"),
                epsilon_override=(
                    None if raw.get("epsilon_override") is None
                    else _number(raw["epsilon_override"], "epsilon_override")
                ),
                sweep=_numbers(raw.get("sweep"), "sweep") or (1.0,),
                regularizer=_numbers(raw.get("regularizer"), "regularizer"),
                bound_slack=_number(raw.get("bound_slack", 0.05), "bound_slack"),
                emit_hop_tables=emit,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc


# A field holds the JSON type it names: a JSON boolean is no number, a
# string of digits is no list, and a list is no node name.
def _string(value, field: str) -> str:
    if type(value) is not str:
        raise ConfigError(f"{field}: must be a JSON string, got {value!r}")
    return value


def _strings(value, field: str) -> tuple[str, ...]:
    if type(value) is not list or any(type(v) is not str for v in value):
        raise ConfigError(f"{field}: must be a JSON list of strings, got {value!r}")
    return tuple(value)


def _string_map(value, field: str) -> dict[str, str]:
    if type(value) is not dict or any(type(k) is not str or type(v) is not str
                                      for k, v in value.items()):
        raise ConfigError(f"{field}: must be a JSON object of strings, got {value!r}")
    return dict(value)


def _integer(value, field: str) -> int:
    if type(value) is not int:
        raise ConfigError(f"{field}: must be a JSON integer, got {value!r}")
    return value


def _number(value, field: str) -> float:
    if type(value) not in (int, float):
        raise ConfigError(f"{field}: must be a JSON number, got {value!r}")
    return float(value)


def _numbers(value, field: str) -> tuple[float, ...] | None:
    """A list of JSON numbers; None for null or an empty list."""
    if value is None:
        return None
    if type(value) is not list or any(type(v) not in (int, float) for v in value):
        raise ConfigError(f"{field}: must be a JSON list of numbers, got {value!r}")
    return tuple(map(float, value)) or None


def parse_config(text: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(json.loads(text))


def serialize_config(config: ExperimentConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _build_routes(config: ExperimentConfig) -> list[Route]:
    tree = TreeSpec(
        nodes=config.topology_nodes,
        root=config.topology_root,
        parent=config.topology_parent,
    )
    return [make_route(tree, s, d, route_id=i) for i, (s, d) in enumerate(config.routes)]


@dataclass
class PointPlan:
    """Everything one sweep point decides before any flow is simulated.

    `reg` holds the scaled regularizer emission rates (None when the
    config has no regularizer); `profile` is the load the internal
    networks actually see: emission rates when a regularizer is present
    (dummies consume bandwidth), arrival rates otherwise.  `extra_wait`
    is the regularizer stage's exact expected sojourn per type,
    1 / (emission rate - arrival rate): its queue empties at Poisson
    epochs, and measured waits start at the external arrival.
    """

    routes: list[Route]
    types: tuple[FlowType, ...]
    reg: tuple[float, ...] | None
    profile: LoadProfile
    eps: EpsilonConfig
    extra_wait: dict[tuple[int, float], float] | None


def plan_point(config: ExperimentConfig, mult: float) -> PointPlan:
    """Routes, scaled rates, effective load, slot length and regularizer
    wait of the sweep point at multiplier `mult`.

    Raises ConfigError naming the sweep point when the regularizer is too
    weak, the load is inadmissible or no slot length keeps it feasible.
    """
    routes = _build_routes(config)
    types = tuple(FlowType(j, x, r * mult) for j, x, r in config.types)
    reg = extra_wait = None
    if config.regularizer is None:
        lam = {(t.route, t.size): t.rate for t in types}
    else:
        reg = tuple(r * mult for r in config.regularizer)
        weak = [
            f"regularizer[{i}] at sweep {mult}: emission rate must exceed arrival rate {t.rate}"
            for i, t in enumerate(types) if reg[i] <= t.rate
        ]
        if weak:
            raise ConfigError("; ".join(weak))
        lam = {(t.route, t.size): reg[i] for i, t in enumerate(types)}
        extra_wait = {(t.route, t.size): 1.0 / (reg[i] - t.rate) for i, t in enumerate(types)}
    profile = compute_loads(routes, lam)
    try:
        require_admissible(profile)
    except StabilityViolationError as exc:
        raise ConfigError(f"load at sweep {mult}: {exc}") from exc
    try:
        eps = choose_epsilon(profile, config.c0, config.epsilon_override)
    except StabilityViolationError as exc:
        raise ConfigError(f"epsilon at sweep {mult}: {exc}") from exc
    return PointPlan(routes, types, reg, profile, eps, extra_wait)


def validate_config(config: ExperimentConfig) -> dict:
    """Check every invariant; return the echo report or raise ConfigError
    listing each violation with the offending field."""
    errors: list[str] = []
    if config.horizon <= 0:
        errors.append("horizon: must be positive")
    if not 0.0 <= config.burn_in < 1.0:
        errors.append("burn_in: must lie in [0, 1)")
    if config.c0 <= 1.0:
        errors.append("c0: C0 must exceed 1")
    if config.bound_slack < 0:
        errors.append("bound_slack: must be nonnegative")
    if config.epsilon_override is not None and config.epsilon_override <= 0:
        errors.append("epsilon_override: must be positive")
    if not config.sweep or any(m <= 0 for m in config.sweep):
        errors.append("sweep: multipliers must be positive")
    if not config.types:
        errors.append("types: at least one flow type required")

    routes = None
    try:
        routes = _build_routes(config)
    except (MalformedTreeError, ValueError) as exc:
        errors.append(f"topology/routes: {exc}")

    if routes is not None:
        seen = set()
        for idx, (j, x, r) in enumerate(config.types):
            if j < 0 or j >= len(routes):
                errors.append(f"types[{idx}]: unknown route {j}")
                continue
            if x <= 0:
                errors.append(f"types[{idx}]: size must be positive")
            if r < 0:
                errors.append(f"types[{idx}]: rate must be nonnegative")
            if (j, x) in seen:
                errors.append(f"types[{idx}]: duplicate (route, size) pair")
            seen.add((j, x))
        if config.regularizer is not None and len(config.regularizer) != len(config.types):
            errors.append("regularizer: need exactly one emission rate per type")

    echo: dict = {"name": config.name, "points": {}}
    if not errors:
        for mult in config.sweep:
            try:
                plan = plan_point(config, mult)
            except ConfigError as exc:
                errors.append(str(exc))  # report the first failing point only
                break
            profile, eps = plan.profile, plan.eps
            echo["points"][mult] = {
                "epsilon": eps.epsilon,
                "f": {str(q): fv for q, fv in sorted(profile.f.items(), key=lambda kv: str(kv[0]))},
                "rho": dict(sorted(profile.rho.items())),
                "f_eps": {
                    str(q): fv for q, fv in sorted(eps.f_eps.items(), key=lambda kv: str(kv[0]))
                },
            }

    if errors:
        raise ConfigError("; ".join(errors))
    return echo


@dataclass
class PointResult:
    mult: float
    stats: list[TypeStats]
    n_flows: int
    flow_hops_checked: int     # flow-hops that passed the sample-path checks
    flow_hops_expected: int    # route hop counts summed over the ledger's flows


def run_point(config: ExperimentConfig, mult: float, out_dir: str | None = None,
              seed: int | None = None) -> PointResult:
    """Execute one sweep point end to end; optionally write its artifacts."""
    plan = plan_point(config, mult)
    routes, types = plan.routes, plan.types
    seed = config.seed if seed is None else seed

    stream = gen_poisson(types, config.horizon, seed)
    if plan.reg is not None:
        stream = regularize(stream, plan.reg)

    nb = run_emulation(stream, routes, profile=plan.profile)
    del stream   # freed before the engines run
    # from here the reference run's flow table is the only full per-flow
    # record: of the virtual net's result only the arrivals are kept
    injections, t_arrive, n_flows = nb.schedule(), nb.t_arrive, len(nb)
    del nb
    ct = run_ct(injections, routes, types, plan.eps)
    del injections
    dt = run_dt(ct, routes, types, arrive_times=t_arrive)
    del t_arrive
    stats = summarize(dt.ledger, config.burn_in * config.horizon, plan.profile, plan.eps,
                      extra_wait=plan.extra_wait)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_ledger_csv(dt.ledger, os.path.join(out_dir, "ledger.csv"))
        if config.emit_hop_tables:
            write_injection_trace(dt.ledger, os.path.join(out_dir, "injections.csv"))
            write_ct_table(dt.ledger, routes, os.path.join(out_dir, "ct_table.csv"))
            write_hop_table_jsonl(dt.ledger, routes, os.path.join(out_dir, "hops.jsonl"))

    return PointResult(
        mult=mult,
        stats=stats,
        n_flows=n_flows,
        flow_hops_checked=dt.flow_hops_checked,
        flow_hops_expected=int(np.array([r.hop_count for r in routes])[dt.ledger.route].sum()),
    )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    points: list[PointResult]
    verdict: dict
    out_dir: str | None

    @property
    def passed(self) -> bool:
        return self.verdict["pass"]


def _build_verdict(config: ExperimentConfig, points: list[PointResult]) -> dict:
    checks = []

    checked = sum(p.flow_hops_checked for p in points)
    expected = sum(p.flow_hops_expected for p in points)
    checks.append(
        {
            "name": "emulation_invariants",
            "pass": all(p.flow_hops_checked == p.flow_hops_expected for p in points),
            "detail": f"{checked} of {expected} flow-hops passed A <= S and "
                      f"Delta <= eps*ceil(delta/eps) across {len(points)} points",
        }
    )

    slack = config.bound_slack
    for p in points:
        bad = [
            f"route {s.route} size {s.size}"
            for s in p.stats
            if not s.within_bounds(slack)
        ]
        counts = ", ".join(f"route {s.route} size {s.size} n={s.count}" for s in p.stats)
        checks.append(
            {
                "name": f"delay_bounds[mult={p.mult}]",
                "pass": not bad,
                "detail": ("all types within bounds" if not bad else "violated: " + ", ".join(bad))
                          + f"; flows after burn-in: {counts}",
            }
        )

    if len(points) > 1:
        ordered = sorted(points, key=lambda p: p.mult)
        monotone = True
        for prev, cur in zip(ordered, ordered[1:]):
            for s_prev, s_cur in zip(prev.stats, cur.stats):
                if s_prev.mean_d is None or s_cur.mean_d is None:
                    continue
                if s_cur.mean_d < s_prev.mean_d * 0.98:
                    monotone = False
        checks.append(
            {
                "name": "delay_growth_trend",
                "pass": monotone,
                "detail": "mean delay nondecreasing in load (2% slack)",
            }
        )

    return {
        "format": "dcflow-verdict",
        "version": 1,
        "dcflow_version": __version__,
        "experiment": config.name,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def run_experiment(config: ExperimentConfig, out_dir: str | None = None,
                   seed: int | None = None, jobs: int = 1) -> ExperimentResult:
    """Validate, run every sweep point, and write the combined artifacts."""
    validate_config(config)
    multipliers = list(config.sweep)

    def point_dir(i: int, mult: float) -> str | None:
        if out_dir is None:
            return None
        if len(multipliers) == 1:
            return out_dir
        return os.path.join(out_dir, f"point_{i:02d}")

    points: list[PointResult] = []
    if jobs > 1 and len(multipliers) > 1:
        # imported here: a serial run need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(run_point, config, mult, point_dir(i, mult), seed)
                for i, mult in enumerate(multipliers)
            ]
            points = [f.result() for f in futures]
    else:
        for i, mult in enumerate(multipliers):
            points.append(run_point(config, mult, point_dir(i, mult), seed))

    verdict = _build_verdict(config, points)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stats_by_point = [(p.mult, p.stats) for p in points]
        write_summary_csv(stats_by_point, os.path.join(out_dir, "summary.csv"),
                          slack=config.bound_slack)
        with open(os.path.join(out_dir, "report.txt"), "w") as fh:
            fh.write(format_report(stats_by_point, slack=config.bound_slack))
        with open(os.path.join(out_dir, "verdict.json"), "w") as fh:
            json.dump(verdict, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return ExperimentResult(config=config, points=points, verdict=verdict, out_dir=out_dir)
