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
import sys
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields

from . import __version__
from .ct_network import EpsilonConfig, choose_epsilon, rule_violations, run_ct
from .dt_network import (hop_columns, run_dt, write_ct_table, write_hop_table_jsonl,
                         write_injection_trace, write_ledger_csv)
from .errors import ConfigError, MalformedTreeError, StabilityViolationError
from .flow_gen import FlowType, gen_poisson, regularize
from .metrics import TypeStats, format_report, summarize, write_summary_csv
from .topology import LoadProfile, Route, TreeSpec, compute_loads, make_route, require_admissible
from .virtual_bandwidth_net import run_emulation


@dataclass(kw_only=True)
class ExperimentConfig:
    """An experiment as its JSON config gives it; `FIELDS` has each field's kind and range."""

    name: str = "experiment"
    topology_nodes: tuple[str, ...]
    topology_root: str
    topology_parent: dict[str, str] = field(default_factory=dict)
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
        """The config as JSON values, a tuple standing for a list."""
        out = {}
        for f in FIELDS:
            if f.kind == "object":
                out[f.key] = {k: getattr(self, f"{f.key}_{k}") for k in f.members}
            else:
                value = getattr(self, f.key)
                out[f.key] = [dict(zip(f.members, v)) for v in value] if f.members else value
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Raises one ConfigError that lists, by path, every field that is
        missing or not of its JSON kind.  Unknown keys are ignored."""
        if type(raw) is not dict:
            raise ConfigError(f"config: must be a JSON object, got {raw!r}")
        errors, values = [], {}
        for f in FIELDS:
            value = _read(raw, f.key, f.kind, f.key, errors, f.nullable,
                          f.kind == "object" or f.key in _REQUIRED)
            if value is _UNSET or not f.members:
                values[f.key] = value
            elif f.kind == "object":
                for k, kind in f.members.items():
                    values[f"{f.key}_{k}"] = _read(value, k, kind, f"{f.key}.{k}", errors,
                                                   required=f"{f.key}_{k}" in _REQUIRED)
            elif f.kind == "list of objects":
                values[f.key] = tuple(tuple(_read(item, k, kind, f"{f.key}[{i}].{k}", errors)
                                            for k, kind in f.members.items())
                                      for i, item in enumerate(value))
        if errors:
            raise ConfigError("; ".join(errors))
        return cls(**{k: v for k, v in values.items() if v is not _UNSET})


# A top-level config key: its JSON kind (in `KINDS`), whether a null takes the
# default, and the range rule `ok` that `validate_config` holds a value to, with
# its message; `members` gives the kinds in an object or in each listed object.
ConfigField = namedtuple("ConfigField", "key kind nullable ok rule members",
                         defaults=(False, None, "", None))

# The Python types a JSON value of each kind may have, those of its items,
# and how a config holds it: a boolean is no number, a string of digits is
# no list, and a list is no node name.
_NUMBER = {int, float}
KINDS = {
    "string": ({str}, None, str),
    "integer": ({int}, None, int),
    "number": (_NUMBER, None, float),
    "boolean": ({bool}, None, bool),
    "list of strings": ({list}, {str}, tuple),
    "list of numbers": ({list}, _NUMBER, lambda v: tuple(map(float, v))),
    "object of strings": ({dict}, {str}, dict),
    "object": ({dict}, None, dict),
    "list of objects": ({list}, {dict}, tuple),
}

FIELDS = (
    ConfigField("name", "string"),
    ConfigField("seed", "integer", ok=lambda v: v >= 0, rule="must be nonnegative"),
    ConfigField("horizon", "number", ok=lambda v: v > 0, rule="must be positive"),
    ConfigField("burn_in", "number", ok=lambda v: 0.0 <= v < 1.0, rule="must lie in [0, 1)"),
    ConfigField("c0", "number", ok=lambda v: v > 1.0, rule="C0 must exceed 1"),
    ConfigField("bound_slack", "number", ok=lambda v: v >= 0, rule="must be nonnegative"),
    ConfigField("epsilon_override", "number", True, lambda v: v > 0, "must be positive"),
    ConfigField("emit_hop_tables", "boolean"),
    ConfigField("sweep", "list of numbers", True, lambda v: v and all(m > 0 for m in v),
                "multipliers must be positive"),
    ConfigField("regularizer", "list of numbers", True),
    ConfigField("topology", "object", members={"nodes": "list of strings", "root": "string",
                                               "parent": "object of strings"}),
    ConfigField("routes", "list of objects", members={"src": "string", "dst": "string"}),
    ConfigField("types", "list of objects", ok=bool, rule="at least one flow type required",
                members={"route": "integer", "size": "number", "rate": "number"}),
)

_SEED = next(f for f in FIELDS if f.key == "seed")
_REQUIRED = {f.name for f in fields(ExperimentConfig)
             if f.default is MISSING and f.default_factory is MISSING}
_UNSET = object()


def _read(obj: dict, key: str, kind: str, path: str, errors: list[str],
          nullable: bool = False, required: bool = True):
    """`obj[key]` as a config holds its kind, or _UNSET for the default, which a missing
    key, a null where `nullable` and [] of numbers take.  `errors` gets, under `path`,
    a value not of its kind, or a missing one where `required`.  A number must be
    finite as a float: JSON reads `1e400` as infinity, and also takes NaN."""
    types, inner, hold = KINDS[kind]
    value = obj.get(key)
    if key not in obj or (nullable and value is None) or (kind == "list of numbers" and value == []):
        if required:
            errors.append(f"{path}: missing, must be a JSON {kind}")
        return _UNSET
    items = [*value, *value.values()] if type(value) is dict else value
    numbers = {"number": [value], "list of numbers": value}.get(kind, ())
    if (type(value) not in types or (inner and not {*map(type, items)} <= inner)
            or not all(abs(v) <= sys.float_info.max for v in numbers)):
        errors.append(f"{path}: must be a JSON {kind}, got {value!r}")
        return _UNSET
    return hold(value)


def parse_config(text: str | bytes, path: str = "config") -> ExperimentConfig:
    """Raises ConfigError naming `path` when `text` is no JSON document."""
    try:
        raw = json.loads(text)
    except ValueError as exc:   # not JSON, or bytes in no JSON encoding
        raise ConfigError(f"{path}: not a JSON document: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def serialize_config(config: ExperimentConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    return parse_config(text, path)


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
    weak, the load is inadmissible, no slot length keeps it feasible, or
    `epsilon_override` leaves the slot rule's guarantees.
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
    if config.epsilon_override is not None and (broken := rule_violations(profile, eps)):
        raise ConfigError(f"epsilon_override at sweep {mult}: {'; '.join(broken)}")
    return PointPlan(routes, types, reg, profile, eps, extra_wait)


def validate_config(config: ExperimentConfig) -> list[PointPlan]:
    """Check every invariant; return the plan of each sweep point, in sweep
    order, or raise ConfigError listing each violation with the offending field."""
    errors = [f"{f.key}: {f.rule}" for f in FIELDS
              if f.ok and (value := getattr(config, f.key)) is not None and not f.ok(value)]

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

    plans = []
    if not errors:
        for mult in config.sweep:
            try:
                plans.append(plan_point(config, mult))
            except ConfigError as exc:
                errors.append(str(exc))  # report the first failing point only
                break

    if errors:
        raise ConfigError("; ".join(errors))
    return plans


@dataclass
class PointResult:
    mult: float
    stats: list[TypeStats]
    n_flows: int
    flow_hops_checked: int     # flow-hops whose departure slot `run_ct` verified


def run_point(config: ExperimentConfig, mult: float, out_dir: str | None = None,
              seed: int | None = None) -> PointResult:
    """Execute one sweep point end to end; optionally write its artifacts.
    A `seed` given here overrides the config's; both obey `FIELDS`' seed rule."""
    seed = config.seed if seed is None else seed
    if not _SEED.ok(seed):
        raise ConfigError(f"seed: {_SEED.rule}")
    plan = plan_point(config, mult)
    routes, types = plan.routes, plan.types

    stream = gen_poisson(types, config.horizon, seed)
    if plan.reg is not None:
        stream = regularize(stream, plan.reg)

    nb = run_emulation(stream, routes, profile=plan.profile)
    del stream   # freed before the engines run
    # from here the injections, which the reference run keeps as its flow
    # table, are the only full per-flow record beside the arrivals
    (injections, t_arrive), n_flows = nb.schedule(), len(nb)
    del nb
    ct = run_ct(injections, routes, types, plan.eps)
    dt = run_dt(ct, routes, types, arrive_times=t_arrive)
    del t_arrive
    stats = summarize(dt.ledger, config.burn_in * config.horizon, plan.profile, plan.eps,
                      extra_wait=plan.extra_wait, slack=config.bound_slack)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_ledger_csv(dt.ledger, os.path.join(out_dir, "ledger.csv"))
        if config.emit_hop_tables:
            write_injection_trace(dt.ledger, os.path.join(out_dir, "injections.csv"))
            hops = hop_columns(dt.ledger)   # both tables read one set of hop records
            write_ct_table(dt.ledger, hops, os.path.join(out_dir, "ct_table.csv"))
            write_hop_table_jsonl(dt.ledger, hops, os.path.join(out_dir, "hops.jsonl"))

    return PointResult(mult=mult, stats=stats, n_flows=n_flows,
                       flow_hops_checked=dt.flow_hops_checked)


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
    """The checks that can fail.  `run_ct` raises on a late flow-hop, so
    a finished run's emulation result is reported as the count it verified."""
    checks = []
    for p in points:
        bad = [f"route {s.route} size {s.size}" for s in p.stats if not s.within_bounds]
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
        "version": 2,
        "dcflow_version": __version__,
        "experiment": config.name,
        "pass": all(c["pass"] for c in checks),
        "flow_hops_checked": sum(p.flow_hops_checked for p in points),
        "checks": checks,
    }


def run_experiment(config: ExperimentConfig, out_dir: str | None = None,
                   seed: int | None = None, jobs: int = 1) -> ExperimentResult:
    """Validate, run every sweep point, and write the combined artifacts.
    `jobs` must be at least 1; a parallel sweep starts at most one worker
    per point.  `out_dir` is created before any point runs."""
    validate_config(config)
    if jobs < 1:
        raise ConfigError(f"jobs: must be at least 1, got {jobs}")
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{out_dir}: cannot write: {exc}") from exc
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

        with ProcessPoolExecutor(max_workers=min(jobs, len(multipliers))) as pool:
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
        stats_by_point = [(p.mult, p.stats) for p in points]
        write_summary_csv(stats_by_point, os.path.join(out_dir, "summary.csv"))
        with open(os.path.join(out_dir, "report.txt"), "w") as fh:
            fh.write(format_report(stats_by_point))
        with open(os.path.join(out_dir, "verdict.json"), "w") as fh:
            json.dump(verdict, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return ExperimentResult(config=config, points=points, verdict=verdict, out_dir=out_dir)
