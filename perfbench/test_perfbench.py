"""Smoke tests of the benchmark at short horizons.

    python3 -m pytest perfbench -q

Each test runs `run.py` from the repository root on a horizon cut to a
few percent, and checks that every metric `BENCHMARK.json` names is
emitted with its unit, on the benchmark seed and on the holdout seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import HOLDOUT_SEED, WORKLOAD_DIR  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, seed: int, trace: int, scale: float = 0.05) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--horizon-scale", str(scale)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_every_registered_workload_has_a_config():
    for w in SPEC["workloads"]:
        assert os.path.isfile(os.path.join(WORKLOAD_DIR, w["name"] + ".json")), w["name"]


@pytest.mark.parametrize("seed", [1, HOLDOUT_SEED])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, seed):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(workload, seed, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), name
    # from the traced run: measured, not a difference of two noisy walls
    assert result["metrics"]["trace.overhead_s"]["value"] >= 0
    assert result["metrics"]["sfa_core.fill_s"]["value"] > 0


@pytest.mark.parametrize("workload, dims", [
    ("star-mixed-0.9", 4), ("star-sweep", 4), ("star-sweep-0.7", 4), ("tree5hop-0.9", 2),
])
def test_memo_dimension_follows_the_types(workload, dims):
    metrics = bench(workload, 1, 1)["metrics"]
    assert metrics["sfa_core.memo_dims"]["value"] == dims
    if metrics["harness.points"]["value"] > 1:
        # later sweep points reuse the memo that earlier points filled
        assert metrics["sfa_core.memo_new"]["value"] < metrics["sfa_core.memo_entries"]["value"]


def test_refuses_to_run_without_the_program(tmp_path):
    # only BENCHMARK.json and the benchmark's own files, no src/
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
