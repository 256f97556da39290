"""Every file a pinned run writes, against its sha256 in `tests/pins.json`.

Each row of `pins.json` names a shipped config file (one of `configs/*.json`
or a benchmark workload in `perfbench/workloads/`), the JSON fields that
override it, the seed, the sweep's `jobs`, and the sha256 of every file the
run writes, keyed by its path under the output directory.  A change that
keeps the arithmetic keeps every digest.  A change that moves one on purpose
updates its row: the failure prints every digest the run wrote.
"""

import hashlib
import json
import os

import pytest

from dcflow.harness import parse_config, run_experiment

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(HERE, "tests", "pins.json")) as fh:
    PINS = json.load(fh)


def written_digests(out_dir):
    digests = {}
    for folder, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("row", PINS, ids=[row["name"] for row in PINS])
def test_run_writes_its_pinned_files(row, tmp_path):
    with open(os.path.join(HERE, row["config"])) as fh:
        config = parse_config(json.dumps({**json.load(fh), **row["overrides"]}))
    run_experiment(config, out_dir=str(tmp_path), seed=row["seed"], jobs=row["jobs"])
    got = written_digests(tmp_path)
    assert got == row["files"], json.dumps(got, indent=2, sort_keys=True)


def test_every_shipped_config_and_workload_is_pinned():
    names = [row["name"] for row in PINS]
    assert len(set(names)) == len(names)
    pinned = {row["config"] for row in PINS}
    for name in sorted(os.listdir(os.path.join(HERE, "configs"))):
        assert f"configs/{name}" in pinned, name
    # a registered workload as the benchmark runs it: the file as it is, one job
    as_benchmarked = {(row["config"], row["seed"]) for row in PINS
                      if not row["overrides"] and row["jobs"] == 1}
    with open(os.path.join(HERE, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    assert workloads
    for workload in workloads:
        for seed in (1, 9001):
            assert (f"perfbench/workloads/{workload}.json", seed) in as_benchmarked, (workload, seed)
