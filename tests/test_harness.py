import concurrent.futures
import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from dcflow import harness, metrics, selftest, sfa_core
from dcflow.cli import main as cli_main
from dcflow.ct_network import run_ct
from dcflow.dt_network import hop_columns, run_dt, write_ledger_csv
from dcflow.errors import ConfigError, InternalConsistencyError
from dcflow.flow_gen import gen_poisson
from dcflow.harness import (
    ExperimentConfig,
    load_config,
    parse_config,
    plan_point,
    run_experiment,
    run_point,
    serialize_config,
    validate_config,
)
from dcflow.virtual_bandwidth_net import run_emulation

from columns import write_ledger_rows
from lcfs_oracle import lattice_instants, run_ct_stack

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMOKE = ExperimentConfig(
    name="smoke",
    topology_nodes=("r", "a", "g"),
    topology_root="r",
    topology_parent={"a": "r", "g": "a"},
    routes=(("g", "r"),),
    types=((0, 1.0, 0.3),),
    horizon=2_000.0,
    seed=17,
)


def sweep_config(horizon=1_500.0):
    return ExperimentConfig(
        name="mini-sweep",
        topology_nodes=("r", "a", "b"),
        topology_root="r",
        topology_parent={"a": "r", "b": "r"},
        routes=(("r", "a"), ("r", "b")),
        types=((0, 1.0, 0.25), (0, 2.0, 0.125), (1, 1.0, 0.25), (1, 2.0, 0.125)),
        horizon=horizon,
        seed=23,
        sweep=(0.5, 0.8),
    )


def test_config_roundtrip():
    for config in (SMOKE, sweep_config()):
        assert parse_config(serialize_config(config)) == config


@pytest.mark.parametrize("field, value", [
    ("emit_hop_tables", "false"),
    ("emit_hop_tables", "no"),
    ("emit_hop_tables", 1),
    ("seed", 2.9),
    ("seed", True),
    ("seed", "3"),
    ("seed", None),
])
def test_config_rejects_loosely_typed_switch_and_seed(field, value):
    # "false" once turned the traces on, 2.9 ran as seed 2 and true as seed 1
    raw = {**json.loads(serialize_config(SMOKE)), field: value}
    with pytest.raises(ConfigError, match=f"^{field}: must be a JSON "):
        parse_config(json.dumps(raw))


@pytest.mark.parametrize("path, value", [
    # the first four once ran: "59" as multipliers 5.0 and 9.0, "99" as
    # rates (9.0, 9.0), 0.7 as route 0 and true as horizon 1.0
    (("sweep",), "59"),
    (("regularizer",), "99"),
    (("types", 1, "route"), 0.7),
    (("horizon",), True),
    (("c0",), True),
    (("burn_in",), "0.5"),
    (("bound_slack",), False),
    (("epsilon_override",), "0.4"),
    (("types", 2, "size"), "1.0"),
    (("types", 0, "rate"), None),
    (("sweep",), [0.5, True]),
    # of the next ones, [1] once ran as the name "[1]", "rag" as the nodes
    # r, a and g, and [1] as a parent map raised an AttributeError
    (("name",), [1]),
    (("topology", "nodes"), "rag"),
    (("topology", "parent"), [1]),
    (("topology", "nodes"), ["r", "a", 2]),
    (("topology", "root"), 0),
    (("topology", "parent"), {"a": "r", "b": ["r"]}),
    (("routes", 0, "src"), None),
    (("routes", 1, "dst"), ["b"]),
    # {} once loaded as no routes, and the next three raised an error
    # that named no field
    (("routes",), {}),
    (("types",), "ab"),
    (("topology",), [1]),
    (("routes",), [["a", "b"]]),
    # JSON reads 1e400 as infinity and takes NaN; each of these once passed
    # the parser and died later, in the run or in validation, naming no field
    (("horizon",), float("inf")),
    (("c0",), float("inf")),
    (("epsilon_override",), float("nan")),
    (("types", 0, "size"), float("inf")),
    (("types", 2, "size"), float("nan")),
    (("types", 1, "rate"), float("nan")),
    (("regularizer",), [1.0, float("nan"), 1.0, 1.0]),
    (("sweep",), [0.5, float("-inf")]),
], ids=lambda x: "-".join(map(str, x)) if isinstance(x, tuple) else repr(x))
def test_config_requires_json_numbers_and_lists(path, value):
    with open(os.path.join(HERE, "configs", "sweep.json")) as fh:
        raw = json.load(fh)
    *outer, key = path
    node = raw
    for step in outer:
        node = node[step]
    node[key] = value
    field = "".join(f"[{step}]" if type(step) is int else f".{step}" for step in path)[1:]
    with pytest.raises(ConfigError, match=f"^{re.escape(field)}: must be a JSON "):
        parse_config(json.dumps(raw))


@pytest.mark.parametrize("path, value, field", [
    (("types", 1), 3, "types"),
    (("horizon",), None, "horizon"),
    (("topology", "root"), None, "topology.root"),
], ids=["types-entry-not-an-object", "horizon-missing", "topology.root-missing"])
def test_config_names_a_missing_field_or_a_bad_entry(path, value, field):
    # a missing key once read "malformed config: 'horizon'", naming no field
    with open(os.path.join(HERE, "configs", "sweep.json")) as fh:
        raw = json.load(fh)
    *outer, key = path
    node = raw
    for step in outer:
        node = node[step]
    if value is None:
        del node[key]
    else:
        node[key] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(field)}: "):
        parse_config(json.dumps(raw))


def test_config_error_names_every_bad_field():
    raw = {**json.loads(serialize_config(SMOKE)), "seed": "17", "c0": True}
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(raw))
    assert re.fullmatch(r"seed: must be a JSON integer, got '17'; "
                        r"c0: must be a JSON number, got True", str(info.value))


def test_config_refuses_a_negative_seed(tmp_path, capsys):
    # a negative seed once passed validation and died in np.random.SeedSequence
    bad = dataclasses.replace(SMOKE, seed=-1)
    with pytest.raises(ConfigError, match="^seed: must be nonnegative$"):
        validate_config(bad)
    path = write_config(tmp_path, SMOKE)
    assert cli_main(["run", "--config", path, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed: must be nonnegative\n"


def test_run_entry_points_refuse_a_negative_seed_argument():
    # the seed argument is held to the config's seed rule, as a config seed is
    with pytest.raises(ConfigError, match="^seed: must be nonnegative$"):
        run_experiment(SMOKE, seed=-1)
    with pytest.raises(ConfigError, match="^seed: must be nonnegative$"):
        run_point(SMOKE, 1.0, seed=-1)
    short = dataclasses.replace(SMOKE, horizon=200.0)
    assert run_experiment(short, seed=0).points[0].n_flows > 0
    assert run_point(short, 1.0, seed=0).n_flows > 0


@pytest.mark.parametrize("text, message", [
    ('{"name": ', r"not a JSON document: Expecting value: line 1 column 10"),
    (b'{"name": "\xff"}', r"not a JSON document: 'utf-8' codec can't decode"),
    (None, r"cannot read: No such file or directory"),
    ("directory", r"cannot read: Is a directory"),
], ids=["not-json", "not-utf-8", "missing", "directory"])
def test_cli_names_an_unreadable_config(tmp_path, capsys, text, message):
    # each of these once printed a traceback and exited 1
    path = tmp_path / "config.json"
    if text == "directory":
        path.mkdir()
    elif text is not None:
        path.write_bytes(text if type(text) is bytes else text.encode())
    assert cli_main(["validate", "--config", str(path)]) == 2
    assert re.fullmatch(f"error: {re.escape(str(path))}: {message}.*\n", capsys.readouterr().err)


def test_cli_names_an_infinite_horizon(tmp_path, capsys):
    # the literal 1e400, which JSON reads as infinity, once validated and
    # then died in the run with an OverflowError
    text = serialize_config(SMOKE).replace('"horizon": 2000.0', '"horizon": 1e400')
    assert '"horizon": 1e400' in text
    path = tmp_path / "config.json"
    path.write_text(text)
    for command in ("validate", "run"):
        assert cli_main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: horizon: must be a JSON number, got inf\n"


def test_shipped_and_benchmark_configs_load():
    for folder in (("configs",), ("perfbench", "workloads")):
        names = sorted(os.listdir(os.path.join(HERE, *folder)))
        assert names
        for name in names:
            config = load_config(os.path.join(HERE, *folder, name))
            assert type(config.seed) is int and type(config.emit_hop_tables) is bool, name
            assert parse_config(serialize_config(config)) == config, name


def test_epsilon_override_must_keep_the_rules_guarantees():
    # with this override every delay_bounds check of configs/sweep.json
    # once failed: at x0.8, eps = 0.4 exceeds 1 - rho = 0.2 on both routes,
    # and at x0.9 it also leaves the floor of the rounded gap
    with open(os.path.join(HERE, "configs", "sweep.json")) as fh:
        config = parse_config(json.dumps({**json.load(fh), "epsilon_override": 0.4}))
    assert plan_point(config, 0.5).eps.epsilon == 0.4
    with pytest.raises(ConfigError, match=r"^epsilon_override at sweep 0\.8: slot length 0\.4 "
                                          r"exceeds 1 - rho = 0\.19+6 on route 0"):
        validate_config(config)
    with pytest.raises(ConfigError, match=r"^epsilon_override at sweep 0\.9: .* below the floor"):
        plan_point(config, 0.9)


def test_ledger_file_is_the_same_across_its_chunks(tmp_path):
    # the writer derives the ledger's columns CSV_CHUNK rows at a time; the
    # first point of configs/sweep.json has 7,512 rows, so its file
    # crosses several chunk boundaries
    config = load_config(os.path.join(HERE, "configs", "sweep.json"))
    plan = plan_point(config, config.sweep[0])
    nb = run_emulation(gen_poisson(plan.types, config.horizon, config.seed), plan.routes,
                       profile=plan.profile)
    injections, t_arrive = nb.schedule()
    ct = run_ct(injections, plan.routes, plan.types, plan.eps)
    ledger = run_dt(ct, plan.routes, plan.types, arrive_times=t_arrive).ledger
    assert len(ledger) == 7_512
    write_ledger_rows(ledger, tmp_path / "rows.csv")
    write_ledger_csv(ledger, str(tmp_path / "ledger.csv"))
    assert (tmp_path / "ledger.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    # and the file a sweep point writes
    run_point(config, config.sweep[0], str(tmp_path / "point"))
    assert (tmp_path / "point" / "ledger.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_validate_echoes_epsilon():
    (plan,) = validate_config(SMOKE)
    assert plan == plan_point(SMOKE, 1.0)
    assert plan.eps.epsilon > 0
    assert plan.profile.rho[0] == pytest.approx(0.3)
    assert set(map(str, plan.profile.f)) == {"g/up", "a/up"}
    plans = validate_config(sweep_config())
    assert [p.types[0].rate for p in plans] == [0.25 * 0.5, 0.25 * 0.8]


def test_validate_rejects_c0_one():
    bad = ExperimentConfig(**{**SMOKE.__dict__, "c0": 1.0})
    with pytest.raises(ConfigError, match="C0 must exceed 1"):
        validate_config(bad)


def test_validate_rejects_malformed_tree():
    bad = ExperimentConfig(**{**SMOKE.__dict__, "topology_parent": {"a": "g", "g": "a"}})
    with pytest.raises(ConfigError, match="topology/routes: cycle in parent map"):
        validate_config(bad)


def test_validate_rejects_overload():
    bad = ExperimentConfig(**{**SMOKE.__dict__, "types": ((0, 1.0, 1.01),)})
    with pytest.raises(ConfigError, match="inadmissible"):
        validate_config(bad)


def test_validate_rejects_unknown_route_and_duplicates():
    bad = ExperimentConfig(**{**SMOKE.__dict__, "types": ((3, 1.0, 0.1),)})
    with pytest.raises(ConfigError, match="unknown route"):
        validate_config(bad)
    dup = ExperimentConfig(**{**SMOKE.__dict__, "types": ((0, 1.0, 0.1), (0, 1.0, 0.2))})
    with pytest.raises(ConfigError, match="duplicate"):
        validate_config(dup)


def test_validate_rejects_weak_regularizer():
    bad = ExperimentConfig(**{**SMOKE.__dict__, "regularizer": (0.2,)})
    with pytest.raises(ConfigError, match="emission rate"):
        validate_config(bad)


def test_smoke_run_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    result = run_experiment(SMOKE, out_dir=str(out))
    assert result.passed
    # the traces are written only with emit_hop_tables on
    assert sorted(os.listdir(out)) == ["ledger.csv", "report.txt", "summary.csv",
                                       "verdict.json"]
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["pass"] is True
    assert verdict["version"] == 2
    assert [c["name"] for c in verdict["checks"]] == ["delay_bounds[mult=1.0]"]
    # the bounds check reports how many flows it averaged over
    burn = SMOKE.burn_in * SMOKE.horizon
    rows = [line.split(",") for line in (out / "ledger.csv").read_text().splitlines()[2:]]
    n = sum(1 for row in rows if float(row[3]) >= burn)
    assert 0 < n < len(rows)
    (bounds,) = [c for c in verdict["checks"] if c["name"] == "delay_bounds[mult=1.0]"]
    assert bounds["detail"] == f"all types within bounds; flows after burn-in: route 0 size 1.0 n={n}"


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(SMOKE, out_dir=str(a))
    run_experiment(SMOKE, out_dir=str(b))
    for name in ("ledger.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_sweep_points_and_trend(tmp_path):
    config = sweep_config()
    result = run_experiment(config, out_dir=str(tmp_path / "sweep"))
    assert len(result.points) == 2
    assert result.passed
    lo, hi = sorted(result.points, key=lambda p: p.mult)
    for s_lo, s_hi in zip(lo.stats, hi.stats):
        if s_lo.mean_d is not None and s_hi.mean_d is not None:
            assert s_hi.mean_d > s_lo.mean_d * 0.9
    assert (tmp_path / "sweep" / "point_00" / "ledger.csv").exists()
    assert (tmp_path / "sweep" / "point_01" / "ledger.csv").exists()
    assert (tmp_path / "sweep" / "summary.csv").exists()


def test_parallel_sweep_matches_serial(tmp_path):
    config = sweep_config(horizon=600.0)
    a = tmp_path / "serial"
    b = tmp_path / "parallel"
    run_experiment(config, out_dir=str(a), jobs=1)
    run_experiment(config, out_dir=str(b), jobs=2)
    for point in ("point_00", "point_01"):
        assert (a / point / "ledger.csv").read_bytes() == (b / point / "ledger.csv").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


def test_serial_runs_do_not_import_multiprocessing():
    # only a parallel sweep starts a process pool, so only it loads one
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    code = "import sys, dcflow.harness; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_parallel_sweep_starts_at_most_one_worker_per_point(monkeypatch):
    # the pool forks every worker it is given at its first submit, so a
    # 3-point sweep under --jobs 64 once forked 64 processes.  The stand-in
    # pool records the worker count it is asked for and runs each call
    # inline, starting no process
    sizes = []

    class InlinePool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    config = dataclasses.replace(sweep_config(horizon=300.0), sweep=(0.5, 0.6, 0.8))
    assert len(run_experiment(config, jobs=64).points) == 3
    assert len(run_experiment(config, jobs=2).points) == 3
    assert sizes == [3, 2]


def record_points(monkeypatch) -> list:
    """Replace `run_point` with a stub and return the list of its calls."""
    calls = []
    monkeypatch.setattr(harness, "run_point", lambda *args: calls.append(args))
    return calls


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_refuses_fewer_than_one_job(tmp_path, monkeypatch, capsys, jobs):
    # these once ran the sweep serially and exited 0
    calls = record_points(monkeypatch)
    path = write_config(tmp_path, sweep_config())
    assert cli_main(["sweep", "--config", path, "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"error: jobs: must be at least 1, got {jobs}\n"
    assert calls == []


@pytest.mark.parametrize("argv", [["run"], ["sweep", "--jobs", "3"]])
def test_cli_names_an_output_directory_it_cannot_make(tmp_path, monkeypatch, capsys, argv):
    # an --out under a regular file was once found only after the first
    # point had run, and escaped as a NotADirectoryError traceback, exit 1
    calls = record_points(monkeypatch)
    path = write_config(tmp_path, sweep_config())
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert cli_main([argv[0], "--config", path, "--out", str(out), *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}: cannot write: ")
    assert calls == []


def test_verdict_counts_checked_flow_hops():
    # the slot engine raises on a late flow-hop, so the verdict reports
    # the count it verified rather than a check that cannot fail
    result = run_experiment(SMOKE)
    n_flows = result.points[0].n_flows
    assert result.verdict["flow_hops_checked"] == 2 * n_flows > 0  # two queues per flow
    assert "emulation_invariants" not in json.dumps(result.verdict)


def test_a_bound_decision_reads_the_same_everywhere(tmp_path, monkeypatch):
    # with every bound halved, the smoke type's waiting mean (whose bound
    # equals its oracle there) is out of bounds; summary.csv, report.txt
    # and the verdict must all read the one decision summarize made
    real_table = metrics.oracle_table

    def halved(*args, **kwargs):
        return {key: dataclasses.replace(o, bound_dw=o.bound_dw / 2, bound_ds=o.bound_ds / 2,
                                         bound_d=o.bound_d / 2)
                for key, o in real_table(*args, **kwargs).items()}

    monkeypatch.setattr(metrics, "oracle_table", halved)
    smoke = load_config(os.path.join(HERE, "configs", "smoke.json"))
    result = run_experiment(smoke, out_dir=str(tmp_path))
    (s,) = result.points[0].stats
    assert not s.within_bounds and s.count > 0
    header, row = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert dict(zip(header.split(","), row.split(",")))["within_bounds"] == "0"
    assert (tmp_path / "report.txt").read_text().splitlines()[2].split()[-1] == "NO"
    assert not result.passed
    (check,) = result.verdict["checks"]
    assert not check["pass"]
    assert check["detail"].startswith("violated: route 0 size 1.0; ")


def test_regularized_star_keeps_wait_identity(monkeypatch):
    # a regularized flow waits for an emission epoch before it enters the
    # virtual net; every flow of these seeds must pass the pipeline's checks
    config = ExperimentConfig(
        name="regularized-star",
        topology_nodes=("r", "a", "b"),
        topology_root="r",
        topology_parent={"a": "r", "b": "r"},
        routes=(("r", "a"), ("r", "b")),
        types=((0, 1.0, 0.2), (1, 1.0, 0.2)),
        horizon=300.0,
        regularizer=(0.3, 0.3),
    )
    ledgers = []
    real_run_dt = harness.run_dt

    def capturing_run_dt(*args, **kwargs):
        dt = real_run_dt(*args, **kwargs)
        ledgers.append(dt.ledger)
        return dt

    monkeypatch.setattr(harness, "run_dt", capturing_run_dt)
    routes = plan_point(config, 1.0).routes
    for seed in (2, 4):
        point = run_point(config, 1.0, seed=seed)
        hops = sum(routes[j].hop_count for j in ledgers[-1].route.tolist())
        assert point.flow_hops_checked == hops > 0


def test_smoke_reference_run_matches_stack_oracle():
    # the closed-form reference run against the stack sweep in exact
    # arithmetic on the shipped smoke point: every instant on the lattice
    # is the exact one
    smoke = load_config(os.path.join(HERE, "configs", "smoke.json"))
    plan = harness.plan_point(smoke, smoke.sweep[0])
    nb = harness.run_emulation(harness.gen_poisson(plan.types, smoke.horizon, smoke.seed),
                               plan.routes, profile=plan.profile)
    args = (nb.schedule()[0], plan.routes, plan.types, plan.eps)
    got, want = harness.run_ct(*args), run_ct_stack(*args)
    hops = got.hop_records()
    assert got.uid.tolist() == want.uid
    assert hops.offsets.tolist() == want.offsets
    assert lattice_instants(got, hops.tau_key) == want.tau
    assert lattice_instants(got, hops.delta_key) == want.delta


def test_config_with_retired_occupancy_cap_loads_and_runs(tmp_path):
    # configs written before the normalizer lost its occupancy budget
    # still carry the key; it is ignored, even at a value that budget refused
    with open(os.path.join(HERE, "configs", "smoke.json")) as fh:
        raw = json.load(fh)
    assert "occupancy_cap" not in raw
    config = parse_config(json.dumps({**raw, "occupancy_cap": 1}))
    assert config == load_config(os.path.join(HERE, "configs", "smoke.json"))
    assert run_experiment(config, out_dir=str(tmp_path)).passed


# two 5-queue routes sharing three queues at load 0.9
TREE5 = ExperimentConfig(
    name="tree5hop-0.9",
    topology_nodes=("r", "a1", "a2", "h1", "h2", "h3", "h4"),
    topology_root="r",
    topology_parent={"a1": "r", "a2": "r", "h1": "a1", "h2": "a1", "h3": "a2", "h4": "a2"},
    routes=(("h1", "h3"), ("h2", "h4")),
    types=((0, 1.0, 0.45), (1, 1.0, 0.45)),
    horizon=20_000.0,
)


def test_tree_five_hop_at_high_load_needs_no_occupancy_budget():
    # its peak total occupancy passes 64, the default budget the
    # normalizer once had
    result = run_experiment(TREE5)
    assert result.passed, result.verdict


def test_cli_run_reports_the_memo_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sfa_core, "_EVALUATORS", {})
    monkeypatch.setattr(sfa_core, "MAX_MEMO_ENTRIES", 2)
    path = write_config(tmp_path, SMOKE)
    assert cli_main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: normalizer memo over 1 routes would exceed its budget of "
                          "2 entries at occupancy (2,)")


def test_regularized_run_completes(tmp_path):
    # the waiting bound is equality-tight here, so leave statistical
    # headroom; tight-tolerance checks live in the acceptance suite
    config = ExperimentConfig(
        **{**SMOKE.__dict__, "regularizer": (0.45,), "horizon": 3_000.0,
           "bound_slack": 0.25}
    )
    result = run_experiment(config, out_dir=str(tmp_path / "reg"))
    assert result.passed
    # dummies traverse the network but never reach the ledger statistics
    stats = result.points[0].stats
    assert 0 < stats[0].count <= result.points[0].n_flows
    # the regularizer stage contributes its exact expected sojourn
    assert stats[0].oracle_dw == pytest.approx(1 / 0.15 + 2 / 0.55)


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(serialize_config(config))
    return str(path)


def test_cli_validate_and_oracle(tmp_path, capsys):
    path = write_config(tmp_path, SMOKE)
    assert cli_main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out and "epsilon" in out
    assert cli_main(["oracle", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "bound_total" in out


@pytest.fixture(scope="module")
def regularized_cli_runs(tmp_path_factory):
    """Two `dcflow run`s of the shipped smoke config with a regularizer and
    hop tables on.  Returns the config path, both output directories and
    the ledger the first run wrote its hop table from."""
    tmp = tmp_path_factory.mktemp("regularized")
    smoke = load_config(os.path.join(HERE, "configs", "smoke.json"))
    config = dataclasses.replace(smoke, regularizer=(0.45,), horizon=3_000.0,
                                 bound_slack=0.25, emit_hop_tables=True)
    path = write_config(tmp, config)
    ledgers = []
    real_writer = harness.write_hop_table_jsonl

    def capturing_writer(ledger, routes, out):
        ledgers.append(ledger)
        real_writer(ledger, routes, out)

    outs = (tmp / "a", tmp / "b")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "write_hop_table_jsonl", capturing_writer)
        for out in outs:
            assert cli_main(["run", "--config", path, "--out", str(out)]) == 0
    return path, outs, ledgers[0]


def test_cli_oracle_matches_regularized_summary(regularized_cli_runs, capsys):
    # the oracle command and the run's summary read one oracle table, so
    # both include the regularizer stage's expected sojourn
    path, (out, _), _ = regularized_cli_runs
    capsys.readouterr()
    assert cli_main(["oracle", "--config", path]) == 0
    printed = dict(re.findall(r"(\w+)=([-\d.]+)", capsys.readouterr().out.splitlines()[1]))
    header, row = (out / "summary.csv").read_text().splitlines()[1:3]
    summary = dict(zip(header.split(","), row.split(",")))
    for oracle_key, summary_key in (("wait", "oracle_DW"), ("bound_wait", "bound_DW"),
                                    ("bound_total", "bound_D")):
        assert printed[oracle_key] == f"{float(summary[summary_key]):.4f}", oracle_key
    assert printed["wait"] == f"{1 / 0.15 + 2 / 0.55:.4f}"


def test_cli_regularized_run_writes_hop_tables(regularized_cli_runs):
    _, (a, b), ledger = regularized_cli_runs
    ledger_uids = [int(line.split(",")[0])
                   for line in (a / "ledger.csv").read_text().splitlines()[2:]]
    assert ledger_uids == ledger.uid.tolist()
    assert min(ledger_uids) < 0 < max(ledger_uids)  # dummies and real flows

    # ct_table.csv: one row per flow-hop, dummies included
    hops = hop_columns(ledger)
    ct_rows = [line.split(",") for line in (a / "ct_table.csv").read_text().splitlines()[2:]]
    assert len(ct_rows) == len(hops.uid) == 2 * len(ledger_uids)
    ct = {(int(uid), node): (float(tau), float(delta)) for uid, node, tau, delta in ct_rows}

    # hops.jsonl: one record per flow-hop in ledger order, matching the
    # ledger's hop columns and the reference instants in ct_table.csv
    lines = (a / "hops.jsonl").read_text().splitlines()
    assert json.loads(lines[0]) == {"format": "dcflow-hops", "version": 1}
    records = [json.loads(line) for line in lines[1:]]
    assert len(records) == len(hops.uid)
    for rec, uid, tau, delta, s_slot, d_slot in zip(
            records, hops.uid.tolist(), hops.tau.tolist(), hops.delta.tolist(),
            hops.s_slot.tolist(), hops.delta_slot.tolist()):
        assert rec["uid"] == uid
        assert rec["delta_slot"] == d_slot
        assert rec["S"] == s_slot * ledger.ct.epsilon
        assert ct[(uid, rec["node"])] == (rec["tau"], rec["delta"]) == (tau, delta)

    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_cli_run_and_artifacts(tmp_path, capsys):
    path = write_config(tmp_path, SMOKE)
    out_dir = tmp_path / "cli-out"
    assert cli_main(["run", "--config", path, "--out", str(out_dir)]) == 0
    verdict = json.loads((out_dir / "verdict.json").read_text())
    printed = capsys.readouterr().out
    assert json.dumps(verdict, indent=2, sort_keys=True) in printed
    assert verdict["flow_hops_checked"] > 0


def test_cli_runs_a_config_whose_every_type_has_rate_zero(tmp_path, capsys):
    # no queue carries flows, so the slot rule's per-queue minimum is empty
    # and the route term sets the slot length; the empty minimum once
    # escaped both commands as a ValueError traceback
    config = ExperimentConfig(topology_nodes=("r", "a"), topology_root="r",
                              topology_parent={"a": "r"}, routes=(("r", "a"),),
                              types=((0, 1.0, 0.0),), horizon=100.0)
    path = write_config(tmp_path, config)
    assert cli_main(["validate", "--config", path]) == 0
    assert "epsilon=1.0\n" in capsys.readouterr().out
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", path, "--out", str(out_dir)]) == 0
    verdict = json.loads((out_dir / "verdict.json").read_text())
    assert verdict["pass"] and verdict["flow_hops_checked"] == 0


def test_cli_sweep_requires_sweep(tmp_path, capsys):
    path = write_config(tmp_path, SMOKE)
    assert cli_main(["sweep", "--config", path]) == 2
    assert "sweep" in capsys.readouterr().err


def test_cli_seed_override_changes_output(tmp_path):
    path = write_config(tmp_path, SMOKE)
    a, b = tmp_path / "s1", tmp_path / "s2"
    assert cli_main(["run", "--config", path, "--out", str(a), "--seed", "1"]) == 0
    assert cli_main(["run", "--config", path, "--out", str(b), "--seed", "2"]) == 0
    assert (a / "ledger.csv").read_bytes() != (b / "ledger.csv").read_bytes()


def test_cli_selftest_fast():
    assert cli_main(["selftest", "--fast"]) == 0


def test_selftest_reports_a_broken_slot_rule(monkeypatch, capsys):
    def broken(profile, c0, override=None):
        raise InternalConsistencyError("slot rule failed its load-inflation guarantee")

    monkeypatch.setattr(selftest, "choose_epsilon", broken)
    result = selftest.check_epsilon_rule(n_configs=3)
    assert result.passed is False
    assert result.detail.startswith("config 0: slot rule failed")
    assert cli_main(["selftest", "--fast"]) == 1
    assert "FAIL  epsilon_rule: config 0:" in capsys.readouterr().out


def test_load_config_file(tmp_path):
    path = write_config(tmp_path, sweep_config())
    assert load_config(path) == sweep_config()


def test_shipped_configs(tmp_path):
    import time

    smoke = load_config(os.path.join(HERE, "configs", "smoke.json"))
    t0 = time.monotonic()
    result = run_experiment(smoke, out_dir=str(tmp_path / "shipped"))
    assert time.monotonic() - t0 < 5.0
    assert result.passed
    validate_config(load_config(os.path.join(HERE, "configs", "sweep.json")))
