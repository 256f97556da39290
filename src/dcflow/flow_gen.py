"""Exogenous flow arrivals.

Each flow type (route, size) gets its own counter-keyed random substream,
so adding or removing a type never perturbs the arrivals of the others.
Streams are deterministic functions of (types, horizon, seed).

A flow is one `FLOW` record, (t, ti, uid): an instant, a type index and
a uid.  A stream holds its flows as one `FLOW` array, and the virtual
net hands the reference net the same record with t its injection
instant.  Dummy flows produced by the Poissonization regularizer carry
negative uids; everything downstream treats uid < 0 as "consumes
bandwidth, never counted in delay statistics".
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Sequence
from itertools import chain
from dataclasses import dataclass

import numpy as np

from .errors import UnstableRegularizerError

FLOW = np.dtype([("t", "f8"), ("ti", "i8"), ("uid", "i8")])


def flow_array(t, ti, uid) -> np.ndarray:
    """A `FLOW` array from its three columns."""
    flows = np.empty(len(t), dtype=FLOW)
    flows["t"], flows["ti"], flows["uid"] = t, ti, uid
    return flows


def rows(columns: Sequence[np.ndarray], chunk: int = 4096) -> Iterator[tuple]:
    """Rows of equal-length columns as tuples of Python numbers,
    converted a chunk at a time."""
    return chain.from_iterable(zip(*(c[lo:lo + chunk].tolist() for c in columns))
                               for lo in range(0, len(columns[0]), chunk))


@dataclass(frozen=True)
class FlowType:
    route: int
    size: float
    rate: float

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("flow size must be positive")
        if self.rate < 0:
            raise ValueError("arrival rate must be nonnegative")


@dataclass
class ArrivalStream:
    """Time-ordered exogenous arrivals over a finite horizon.

    `events` is a `FLOW` array: times nondecreasing, ties broken by type
    index.  `t_arrive` gives each flow's external arrival instant, which
    for a regularized stream's real flow is before its emission and for
    every other flow is its time in `events`.
    """

    horizon: float
    rng_seed: int
    types: tuple[FlowType, ...]
    events: np.ndarray
    t_arrive: np.ndarray


def _float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def _substream(seed: int, ftype: FlowType, salt: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence([int(seed), int(ftype.route), _float_bits(ftype.size), salt])
    return np.random.Generator(np.random.PCG64(ss))


def _poisson_times(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    if rate <= 0:
        return np.empty(0)
    times = np.empty(0)
    budget = 0.0
    while True:
        expect = max(16, int((horizon - budget) * rate * 1.1) + 32)
        gaps = rng.exponential(1.0 / rate, size=expect)
        chunk = budget + np.cumsum(gaps)
        times = np.concatenate([times, chunk])
        budget = times[-1]
        if budget > horizon:
            break
    return times[times <= horizon]


def gen_poisson(types: list[FlowType] | tuple[FlowType, ...], horizon: float, seed: int) -> ArrivalStream:
    """Superpose one independent Poisson process per type."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    types = tuple(types)
    if len({(t.route, t.size) for t in types}) != len(types):
        raise ValueError("duplicate (route, size) flow type")

    times = [_poisson_times(_substream(seed, ftype), ftype.rate, horizon) for ftype in types]
    t = np.concatenate([np.empty(0), *times])
    ti = np.repeat(np.arange(len(types)), [len(ts) for ts in times])
    order = np.lexsort((ti, t))
    events = flow_array(t[order], ti[order], np.arange(len(t)))
    return ArrivalStream(horizon=float(horizon), rng_seed=int(seed), types=types,
                         events=events, t_arrive=events["t"])


def regularize(stream: ArrivalStream, reg_rates: Sequence[float]) -> ArrivalStream:
    """Re-emit each type at Poisson epochs, substituting dummies when idle.

    Emission epochs are an independent Poisson process per type at the
    given rate; each epoch releases the oldest waiting real flow of that
    type (FIFO) or, if none has arrived yet, a dummy flow of the same
    size.  Real flows keep their uid and remember their original arrival
    time; dummies get fresh negative uids, -1, -2, ... in type order, then
    emission order.  A real flow still waiting at the horizon is dropped.

    FIFO in closed form: with s_i the first epoch at or after the i-th
    arrival, that arrival leaves at epoch r_i = max(s_i, r_{i-1} + 1),
    so r_i - i is the running maximum of s_k - k.
    """
    rates = list(reg_rates)
    if len(rates) != len(stream.types):
        raise ValueError("need one regularizer rate per type")
    for ti, ftype in enumerate(stream.types):
        if rates[ti] <= ftype.rate:
            raise UnstableRegularizerError(
                f"type {ti}: emission rate {rates[ti]} must exceed arrival rate {ftype.rate}"
            )

    parts, came = [np.zeros(0, dtype=FLOW)], [np.empty(0)]
    n_dummies = 0
    for ti, ftype in enumerate(stream.types):
        emit = _poisson_times(_substream(stream.rng_seed, ftype, salt=1), rates[ti], stream.horizon)
        real = stream.events[stream.events["ti"] == ti]
        i = np.arange(len(real))
        release = i + np.maximum.accumulate(np.searchsorted(emit, real["t"], "left") - i)
        real = real[release < len(emit)]   # release increases: the flows sent are a prefix
        release = release[:len(real)]
        idle = np.ones(len(emit), dtype=bool)
        idle[release] = False
        uid = -n_dummies - np.cumsum(idle)
        uid[release] = real["uid"]
        n_dummies += len(emit) - len(real)
        t_arrive = emit.copy()
        t_arrive[release] = real["t"]
        parts.append(flow_array(emit, np.full(len(emit), ti), uid))
        came.append(t_arrive)

    flows = np.concatenate(parts)
    order = np.lexsort((flows["ti"], flows["t"]))
    return ArrivalStream(horizon=stream.horizon, rng_seed=stream.rng_seed, types=stream.types,
                         events=flows[order], t_arrive=np.concatenate(came)[order])
