"""One benchmark repetition, in a fresh interpreter.

    python3 perfbench/child.py CONFIG OUT_DIR SEED [--trace RUN_ID]

Runs the config through the harness's public path (`load_config`,
`validate_config`, `run_experiment`) with `jobs=1`, writing every artifact
to OUT_DIR, and prints one JSON line with CLOCK_MONOTONIC instants (shared
with the parent process) at which validation and the run returned.  With
`--trace` the stage functions are wrapped first, and the spans, the
wrappers' own time and the normalizer memo's fill time are printed too.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dcflow import harness  # noqa: E402


def main(argv: list[str]) -> int:
    config_path, out_dir, seed = argv[0], argv[1], int(argv[2])
    tracer = None
    if argv[3:4] == ["--trace"]:
        from stagetrace import Tracer, memo_fill_s

        tracer = Tracer(argv[4])
        tracer.install(harness)

    config = harness.load_config(config_path)
    harness.validate_config(config)
    t_setup = time.monotonic()
    with tracer.stage("run_experiment", "harness.run") if tracer else contextlib.nullcontext():
        result = harness.run_experiment(config, out_dir=out_dir, seed=seed, jobs=1)
    t_done = time.monotonic()
    print(json.dumps({
        "t_setup": t_setup,
        "t_done": t_done,
        "passed": result.passed,
        "spans": tracer.spans if tracer else [],
        "trace_overhead_s": tracer.overhead_s if tracer else 0.0,
        "memo_fill_s": memo_fill_s() if tracer else 0.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
