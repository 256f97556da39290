"""Stage spans for the traced repetition.

`Tracer.install` replaces the stage functions that `dcflow.harness` calls with
wrappers that record one span per call: name, layer, start, end, parent
span and run id, plus counters read from the call's arguments and return
value.  Nothing under `src/` changes; the wrappers only observe.  Spans
stay in memory (`Tracer.spans`) until the repetition ends; the child prints them.

`layer_metrics` turns the spans of one repetition into the per-layer
metrics that `run.py` reports.  `memo_fill_s` times how long the normalizer
memo takes to fill: it recomputes every entry the run left in a fresh
evaluator, after the run, so the traced stages are not slowed by it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

# harness attribute -> layer it belongs to.  Artifact writers count as
# harness work whatever module defines them.
STAGES = {
    "gen_poisson": "flow_gen",
    "regularize": "flow_gen",
    "run_emulation": "virtual_bandwidth_net",
    "choose_epsilon": "ct_network",
    "run_ct": "ct_network",
    "run_dt": "dt_network",
    "summarize": "metrics",
    "write_ledger_csv": "harness.artifacts",
    "write_injection_trace": "harness.artifacts",
    "write_ct_table": "harness.artifacts",
    "write_hop_table_jsonl": "harness.artifacts",
    "run_point": "harness.point",
}


def _memo_tables() -> list[dict]:
    """Normalizer memo tables alive in this process."""
    from dcflow import sfa_core

    return [ev._memo for ev in sfa_core._EVALUATORS.values()]


def _peak_occupancy(nb) -> int:
    """Most flows present in the virtual net at once, from the enter and
    inject instants.  At equal instants departures count first."""
    events = [(t, 1) for t in nb.enter_times.values()]
    events += [(t, -1) for t in nb.injections.values()]
    events.sort()
    cur = peak = 0
    for _, step in events:
        cur += step
        peak = max(peak, cur)
    return peak


def memo_fill_s() -> float:
    """Seconds a cold evaluator takes to recompute every normalizer memo
    entry alive in this process.  Keys are replayed in insertion order, in
    which each entry's predecessors come first, so each call computes one
    entry."""
    from dcflow import sfa_core

    total = 0.0
    for ev in sfa_core._EVALUATORS.values():
        fresh = sfa_core._PhiEvaluator(ev.spec, ev.exact)
        keys = list(ev._memo)
        start = time.perf_counter()
        for key in keys:
            fresh.phi(key)
        total += time.perf_counter() - start
    return total


def _counters(name: str, bound: inspect.BoundArguments, result, before: dict) -> dict:
    """Work counters of one stage call."""
    args = bound.arguments
    if name in ("gen_poisson", "regularize"):
        return {"arrivals": len(result.events)}
    if name == "run_emulation":
        out = {"events": result.n_events, "peak_occupancy": _peak_occupancy(result)}
        tables = _memo_tables()
        # every workload has one spec, so the largest table is the point's
        memo = max(tables, key=len, default={})
        out["memo_entries"] = len(memo)
        out["memo_new"] = sum(map(len, tables)) - before["memo_total"]
        out["memo_dims"] = len(next(iter(memo))) if memo else 0
        return out
    if name == "choose_epsilon":
        return {"epsilon": result.epsilon}
    if name == "run_ct":
        return {"flow_hops": sum(len(v) for v in result.taus.values())}
    if name == "run_dt":
        by_id = {r.id: r for r in args["routes"]}
        queues = {q for t in args["types"] for q in by_id[t.route].queue_path}
        return {
            "slots": result.n_slots_processed,
            "transmissions": result.n_transmissions,
            "queues": len(queues),
        }
    return {}


class Tracer:
    """Span recorder for one process; `run_id` tags every span.
    `overhead_s` sums the time the wrappers spend outside the calls they
    wrap: opening and closing spans and reading counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def stage(self, name: str, layer: str):
        """Record one span around the body; yields its record so the
        caller can attach counters."""
        span = {"run": self.run_id, "id": len(self.spans), "name": name, "layer": layer,
                "start": time.monotonic(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = time.monotonic()

    def wrap(self, name: str, layer: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.monotonic()
            before = {"memo_total": sum(map(len, _memo_tables()))} if name == "run_emulation" else {}
            with self.stage(name, layer) as span:
                called = time.monotonic()
                result = fn(*args, **kwargs)
                returned = time.monotonic()
            span["attrs"] = _counters(name, sig.bind(*args, **kwargs), result, before)
            self.overhead_s += time.monotonic() - entered - (returned - called)
            return result

        return traced

    def install(self, harness) -> None:
        for name, layer in STAGES.items():
            setattr(harness, name, self.wrap(name, layer, getattr(harness, name)))


# ----------------------------------------------------------- aggregation --

def _covered(start: float, end: float, children: list[dict]) -> float:
    """Length of [start, end] covered by the union of the children."""
    total, cur = 0.0, start
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], cur), min(c["end"], end)
        if hi > lo:
            total += hi - lo
            cur = hi
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer seconds and counters of one traced repetition.

    Times sum over every point; per-point counters that describe a state
    (memo size, epsilon) are taken at the last point, which in every
    workload is the highest load.
    """
    root = next(s for s in spans if s["name"] == "run_experiment")
    # calls made while the child validated its config are set-up, not run
    spans = [s for s in spans if s["start"] >= root["start"]]

    def dur(s):
        return s["end"] - s["start"]

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(layer):
        return sum(dur(s) for s in spans if s["layer"] == layer)

    def count(name, key):
        return sum(s["attrs"][key] for s in of(name))

    points, dt = of("run_point"), of("run_dt")
    last_nb = of("run_emulation")[-1]["attrs"]
    eps = of("choose_epsilon")[-1]["attrs"]["epsilon"]
    kids: dict = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)

    events = count("run_emulation", "events")
    flow_hops = count("run_ct", "flow_hops")
    slots = count("run_dt", "slots")
    trans = count("run_dt", "transmissions")
    queue_slots = sum(s["attrs"]["slots"] * s["attrs"]["queues"] for s in dt)
    # summary, report and verdict are written after the last point
    tail = root["end"] - max((p["end"] for p in points), default=root["start"])
    return {
        "flow_gen.s": total("flow_gen"),
        "flow_gen.arrivals": count("gen_poisson", "arrivals"),
        "virtual_bandwidth_net.s": total("virtual_bandwidth_net"),
        "virtual_bandwidth_net.events": events,
        "virtual_bandwidth_net.us_per_event": 1e6 * total("virtual_bandwidth_net") / max(events, 1),
        "virtual_bandwidth_net.peak_occupancy": max(s["attrs"]["peak_occupancy"]
                                                    for s in of("run_emulation")),
        "sfa_core.memo_entries": last_nb["memo_entries"],
        "sfa_core.memo_new": last_nb["memo_new"],
        "sfa_core.memo_dims": last_nb["memo_dims"],
        "ct_network.s": total("ct_network"),
        "ct_network.flow_hops": flow_hops,
        "ct_network.us_per_flow_hop": 1e6 * total("ct_network") / max(flow_hops, 1),
        "ct_network.epsilon": eps,
        "dt_network.s": total("dt_network"),
        "dt_network.slots": slots,
        "dt_network.transmissions": trans,
        "dt_network.transmissions_per_flow_hop": trans / max(flow_hops, 1),
        "dt_network.busy_share": trans / max(queue_slots, 1),
        "dt_network.us_per_slot": 1e6 * total("dt_network") / max(slots, 1),
        "metrics.s": total("metrics"),
        "harness.artifacts_s": total("harness.artifacts") + tail,
        "harness.self_s": sum(dur(p) - _covered(p["start"], p["end"], kids.get(p["id"], []))
                              for p in points),
        "harness.points": len(points),
    }
