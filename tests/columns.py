"""Views of the engines' flat columns, for tests.

`as_flows` builds a `FLOW` array from (t, ti, uid) rows, in arrival
order; `per_flow` reads any per-flow-hop column of a reference run's hop
records, one list per flow;
`assert_same_run` compares two slot-engine results column by column,
including every flow-hop of their ledgers' hop trails; `write_ledger_rows`
writes a ledger file the plain way, row by row from whole columns.
"""

from __future__ import annotations

import numpy as np

from dcflow.dt_network import COLUMNS, hop_columns
from dcflow.flow_gen import FLOW


def as_flows(rows) -> np.ndarray:
    """A `FLOW` array of (t, type index, uid) rows, as `run_ct` takes it:
    sorted into arrival order, (t, uid)."""
    return np.sort(np.array(list(rows), dtype=FLOW), order=["t", "uid"])


def per_flow(hops, column) -> dict[int, list]:
    """uid -> the flow's entries of `column`, a flat column at the hop
    records `hops`' flow-hop offsets, in route order."""
    values = np.asarray(column).tolist()
    bounds = hops.offsets.tolist()
    return {u: values[a:b] for u, a, b in zip(hops.ct.uid.tolist(), bounds, bounds[1:])}


def assert_same_run(got, want) -> None:
    """Two slot-engine results agree on their tallies, on every ledger
    column and on every hop column: `run_dt`'s, which derives its tallies
    from the reference run, or the per-slot oracle's, which steps them."""
    assert (got.n_slots_processed, got.n_transmissions, got.flow_hops_checked) == (
        want.n_slots_processed, want.n_transmissions, want.flow_hops_checked)
    a, b = got.ledger, want.ledger
    assert a.ct.epsilon == b.ct.epsilon
    for name in ("flow",) + COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name, x, y in zip(hop_columns(a)._fields, hop_columns(a), hop_columns(b)):
        assert np.array_equal(x, y), name


def write_ledger_rows(ledger, path) -> None:
    """The ledger file `write_ledger_csv` writes, built row by row from the
    ledger's whole columns."""
    columns = [getattr(ledger, name).tolist() for name in COLUMNS]
    with open(path, "w") as fh:
        fh.write("# dcflow ledger v1\nuid,route,size,t_arrive,t_inject,D_W,D_S,D\n")
        for uid, route, *delays in zip(*columns):
            fh.write(",".join([str(uid), str(route)] + [repr(x) for x in delays]) + "\n")
