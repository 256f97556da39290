"""Slotted packet network that emulates the continuous reference network.

Flows are split into slot-sized packets.  A node transmits at most one
packet per slot.  Scheduling is preemptive LCFS keyed not on a flow's
actual arrival instant but on its schedule time S = eps * ceil(tau / eps),
where tau is the flow's arrival instant at the same queue in the
continuous reference run; ties prefer the larger tau, then the larger
uid.  On the reference run's exact lattice tau = I * eps + r, 0 <= r < eps,
so the schedule slot is I + (r > 0) at every horizon.  Packets of a flow
only become transmittable once the whole flow is present, and a packet
sent during slot k is available at the next queue when the slot ends.

The queues never interact.  A flow becomes transmittable at a queue at
its schedule slot there, which depends only on its reference arrival tau
at that queue, not on when its last packet left the previous queue.  So
each queue is an LCFS server driven by its own reference arrivals alone.
A queue's activations, sorted by tau, come in priority order, so the
reference network's closed form, `ct_network.lcfs_pr`, serves it, with
schedule slots for instants and packet counts for work: a flow leaves at
its schedule slot plus the packets of every activation it waits under,
its own included.  Sent packets then equal demanded packets by
construction.  `ct_network.run_ct` serves both networks in one pass per
queue, and this module checks the engine's run and reports it.

What couples the queues is checked, not simulated.  Two sample-path
invariants hold for every flow at every queue:

  * the flow has fully arrived by its schedule time (A <= S), and
  * it departs no later than the slot boundary that covers its
    continuous-time departure (Delta <= eps * ceil(delta / eps)).

The first is the second read one hop on.  Hops take no time, so a flow's
reference arrival at its next queue is its reference departure from this
one, and its schedule slot there is the very slot ceiling that bounds
Delta here.  At a flow's first queue its reference arrival is its
injection, which the schedule slot rounds up.  So `run_dt` compares the
engine's departure slot with that ceiling at every flow-hop, exactly in
integers; if none is late, every flow is present when its schedule slot
comes, activating it there is what the coupled network does, and the
per-queue runs are that network's run.  A violation raises
EmulationInfeasibilityError naming the flow and queue; of several, the
one met first in uid order, and within a flow in route order.

The CSV writers format each numeric column in one orjson call
(`column_tokens`), whose shortest round-trip floats have `repr`'s digits;
the values orjson writes in another exponent form (non-finite ones,
|x| >= 1e16 and 0 < |x| < 1e-4) go through `repr`, so every file is the
one a `repr` per cell writes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import orjson

from .ct_network import CtResult
from .errors import EmulationInfeasibilityError
from .flow_gen import FlowType
from .topology import Route, queue_paths


COLUMNS = ("uid", "route", "size", "t_arrive", "t_inject", "d_w", "d_s", "d")


@dataclass(eq=False)
class DelayLedger:
    """Per-flow delays, rows in (t_arrive, uid) order, held as two arrays
    beside the reference run `ct` they are read from: 16 bytes per flow.

    `flow` holds each row's flow number in `ct`, `t_arrive` its external
    arrival, and `delta_slots` the slot engine's departure slot at every
    flow-hop, at `ct`'s flow-hop offsets; `hop_columns` reads all three.
    The other `COLUMNS` are built from `ct` when read, so read each once:
    D_W = t_inject - t_arrive, D_S = (last departure slot) * eps -
    t_inject and D = D_W + D_S, where eps is `ct.epsilon`; a negative uid
    marks a dummy flow.  `ledger[rows]` is the ledger of some of its rows,
    which derives only theirs."""

    ct: CtResult = field(repr=False)
    delta_slots: np.ndarray = field(repr=False)
    flow: np.ndarray
    t_arrive: np.ndarray

    def __len__(self) -> int:
        return len(self.flow)

    def __getitem__(self, rows) -> "DelayLedger":
        return DelayLedger(self.ct, self.delta_slots, self.flow[rows], self.t_arrive[rows])

    @property
    def uid(self) -> np.ndarray:
        return self.ct.uid[self.flow]

    @property
    def route(self) -> np.ndarray:
        return np.array([t.route for t in self.ct.types], dtype=np.int64)[self.ct.ti[self.flow]]

    @property
    def size(self) -> np.ndarray:
        return np.array([t.size for t in self.ct.types], dtype=np.float64)[self.ct.ti[self.flow]]

    @property
    def t_inject(self) -> np.ndarray:
        return self.ct.t_inject[self.flow]

    @property
    def d_w(self) -> np.ndarray:
        return self.t_inject - self.t_arrive

    @property
    def d_s(self) -> np.ndarray:
        last = self.ct.offsets[self.flow + 1] - 1
        return self.delta_slots[last] * self.ct.epsilon - self.t_inject

    @property
    def d(self) -> np.ndarray:
        return self.d_w + self.d_s


class HopColumns(NamedTuple):
    """Every flow-hop of a ledger, in ledger-row order, then route order:
    continuous instants from the reference run, slot indices from the
    slot engine, and `a`, the instant the flow is fully present."""

    uid: np.ndarray
    tau: np.ndarray
    delta: np.ndarray
    a: np.ndarray
    s_slot: np.ndarray
    delta_slot: np.ndarray


def hop_columns(ledger: DelayLedger) -> HopColumns:
    """The per-queue trail of every ledger row, as flat columns."""
    ct, slots = ledger.ct, ledger.delta_slots
    n_hops = np.diff(ct.offsets)[ledger.flow]
    row = np.repeat(np.arange(len(ledger)), n_hops)
    hop = np.arange(len(row)) - np.repeat(np.cumsum(n_hops) - n_hops, n_hops)
    offs = ct.offsets[ledger.flow][row] + hop
    tau = ct.tau[offs]
    # a flow is present at its first queue from its injection, its reference
    # arrival there, and at each next one when its last packet's slot ends
    a = np.where(hop == 0, tau, slots[offs - 1] * ct.epsilon)
    return HopColumns(uid=ledger.uid[row], tau=tau, delta=ct.instant(ct.delta_key[offs]), a=a,
                      s_slot=ct.slot(ct.tau_key[offs]), delta_slot=slots[offs])


@dataclass(eq=False)
class DtRunResult:
    """`n_slots_processed` counts slots in which at least one queue sends
    a packet; `flow_hops_checked` counts flow-hops that passed the
    departure check, and with it the arrival check one hop on."""

    ledger: DelayLedger
    n_slots_processed: int
    n_transmissions: int
    flow_hops_checked: int


def _ledger(ct: CtResult, delta_slots: np.ndarray,
            arrive_times: np.ndarray | None) -> DelayLedger:
    """The ledger of a slot engine's run.  `delta_slots` holds its
    departure slot at every flow-hop, at the reference run's flow-hop
    offsets; `arrive_times` is in the order of the injections `run_ct`
    took, and defaults to the injection instants."""
    t_arrive = ct.t_inject if arrive_times is None else np.asarray(arrive_times,
                                                                   dtype=np.float64)[ct.order]
    flow = np.lexsort((ct.uid, t_arrive))
    return DelayLedger(ct=ct, delta_slots=delta_slots, flow=flow, t_arrive=t_arrive[flow])


def run_dt(
    ct: CtResult,
    routes: list[Route],
    types: tuple[FlowType, ...],
    arrive_times: np.ndarray | None = None,
) -> DtRunResult:
    """Check and report the slot engine's run that `run_ct` made.

    `arrive_times` holds each flow's external arrival, in the order of
    the injections `run_ct` took (defaults to its injection time).
    """
    late = np.flatnonzero(ct.delta_slot > ct.slot(ct.delta_key))
    if late.size:
        # late flow-hops ascend, so the first with the least uid is the
        # first in (uid, hop) order
        flow = np.searchsorted(ct.offsets, late, side="right") - 1
        i = np.argmin(ct.uid[flow])
        f, o = flow[i], late[i]
        queues, route_paths = queue_paths(routes)
        q = queues[route_paths[types[ct.ti[f]].route][o - ct.offsets[f]]]
        raise EmulationInfeasibilityError(f"flow {ct.uid[f]} left {q} in slot {ct.delta_slot[o]}, "
                                          f"reference bound is {ct.slot(ct.delta_key[o])}")

    # The union of every queue's busy periods.  Sorted apart, the i-th end
    # is never before the i-th begin, and the slots no queue sends in are
    # the gaps from the i-th end to the (i+1)-th begin.
    opener = np.flatnonzero(ct.opens)
    begins = np.sort(ct.slot(ct.tau_key[opener]))
    ends = np.sort(ct.delta_slot[opener])
    gaps = np.maximum(begins[1:] - ends[:-1], 0).sum()
    return DtRunResult(
        ledger=_ledger(ct, ct.delta_slot, arrive_times),
        n_slots_processed=int(ends[-1] - begins[0] - gaps) if opener.size else 0,
        n_transmissions=int(ends.sum() - begins.sum()),
        flow_hops_checked=len(ct.delta_slot),
    )


LEDGER_VERSION = "# dcflow ledger v1"
LEDGER_COLUMNS = "uid,route,size,t_arrive,t_inject,D_W,D_S,D"

# Rows formatted at once: a chunk's text tokens take about 80 bytes a cell.
CSV_CHUNK = 1024


def column_tokens(column: np.ndarray, text=repr) -> list[str]:
    """The text of each value of a contiguous float64 or int64 column:
    `repr(float(x))` for a float, `str(int(x))` for an integer.

    orjson writes the whole column at once, floats with a shortest
    round-trip algorithm (Ryu), so its digits are `repr`'s.  Only its
    exponent form differs: it writes `1e16` and `0.000025` where `repr`
    writes `1e+16` and `2.5e-05`, and `null` for nan and inf.  So values
    with `|x| >= 1e16` or `0 < |x| < 1e-4`, and non-finite ones, take
    `text(float(x))` instead: `json.dumps` for JSON, which writes NaN and
    Infinity where `repr` writes nan and inf."""
    if not len(column):
        return []
    tokens = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    if column.dtype == np.float64:
        size = np.abs(column)
        plain = ((size >= 1e-4) & (size < 1e16)) | (size == 0)
        for i in np.flatnonzero(~plain).tolist():
            tokens[i] = text(float(column[i]))
    return tokens


def _csv_rows(columns: list[np.ndarray]) -> str:
    """CSV lines of equal-length non-empty columns: numeric ones as
    `column_tokens` writes them, string ones as they are."""
    tokens = [c.tolist() if c.dtype == object else column_tokens(c) for c in columns]
    return "\n".join(map(",".join, zip(*tokens))) + "\n"


def _chunks(n: int):
    """Slices of `CSV_CHUNK` rows that cover `n` rows."""
    return (slice(lo, lo + CSV_CHUNK) for lo in range(0, n, CSV_CHUNK))


def write_ledger_csv(ledger: DelayLedger, path: str) -> None:
    """The ledger as CSV, its columns derived and formatted `CSV_CHUNK`
    rows at a time."""
    with open(path, "w") as fh:
        fh.write(LEDGER_VERSION + "\n")
        fh.write(LEDGER_COLUMNS + "\n")
        for span in _chunks(len(ledger)):
            part = ledger[span]
            fh.write(_csv_rows([getattr(part, c) for c in COLUMNS]))


def write_injection_trace(ledger: DelayLedger, path: str) -> None:
    """CSV trace `uid,t_arrive,t_inject`, one row per flow, in uid order."""
    order = np.argsort(ledger.uid)
    cols = (ledger.uid[order], ledger.t_arrive[order], ledger.t_inject[order])
    with open(path, "w") as fh:
        fh.write("# dcflow injection-trace v1\n")
        fh.write("uid,t_arrive,t_inject\n")
        for span in _chunks(len(order)):
            fh.write(_csv_rows([c[span] for c in cols]))


def _hop_nodes(ledger: DelayLedger, routes: list[Route], name=str) -> np.ndarray:
    """`name` of every flow-hop's queue, in `hop_columns` order."""
    names = {r.id: [name(str(q)) for q in r.queue_path] for r in routes}
    return np.array([node for route in ledger.route.tolist() for node in names[route]],
                    dtype=object)


def write_ct_table(ledger: DelayLedger, routes: list[Route], path: str) -> None:
    """CSV table `uid,node,tau,delta` of the reference run, one row per
    flow-hop, in uid order, then route order."""
    hops = hop_columns(ledger)
    order = np.argsort(hops.uid, kind="stable")
    cols = (hops.uid[order], _hop_nodes(ledger, routes)[order], hops.tau[order],
            hops.delta[order])
    with open(path, "w") as fh:
        fh.write("# dcflow ct-table v1\n")
        fh.write("uid,node,tau,delta\n")
        for span in _chunks(len(order)):
            fh.write(_csv_rows([c[span] for c in cols]))


def write_hop_table_jsonl(ledger: DelayLedger, routes: list[Route], path: str) -> None:
    """Per-flow per-queue timestamps, one JSON object per line, in
    `hop_columns` order: the text `json.dumps` writes for each, formatted
    `CSV_CHUNK` rows at a time."""
    hops = hop_columns(ledger)
    nodes = _hop_nodes(ledger, routes, json.dumps)
    cols = hops.uid, hops.tau, hops.delta, hops.a, hops.s_slot * ledger.ct.epsilon, hops.delta_slot
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": "dcflow-hops", "version": 1}) + "\n")
        for span in _chunks(len(nodes)):
            uid, *times, d_slot = (column_tokens(c[span], json.dumps) for c in cols)
            fh.write("".join(f'{{"uid": {u}, "node": {n}, "tau": {t}, "delta": {d}, "A": {a}, '
                             f'"S": {s}, "delta_slot": {k}}}\n'
                             for u, n, t, d, a, s, k in zip(uid, nodes[span], *times, d_slot)))
