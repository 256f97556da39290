"""Exogenous flow arrivals.

Each flow type (route, size) gets its own counter-keyed random substream,
so adding or removing a type never perturbs the arrivals of the others.
Streams are deterministic functions of (types, horizon, seed).

Dummy flows produced by the Poissonization regularizer carry negative
uids; everything downstream treats uid < 0 as "consumes bandwidth, never
counted in delay statistics".
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import UnstableRegularizerError


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

    events: list of (time, type_index, uid).  Times are nondecreasing and
    ties are broken by type index.  For a regularized stream,
    `external_times` maps a real flow's uid to its original arrival
    instant (emission time otherwise).
    """

    horizon: float
    rng_seed: int
    types: tuple[FlowType, ...]
    events: list[tuple[float, int, int]]
    external_times: dict[int, float] = field(default_factory=dict)


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

    all_times: list[np.ndarray] = []
    all_tids: list[np.ndarray] = []
    for ti, ftype in enumerate(types):
        ts = _poisson_times(_substream(seed, ftype), ftype.rate, horizon)
        all_times.append(ts)
        all_tids.append(np.full(len(ts), ti, dtype=np.int64))

    if all_times:
        times = np.concatenate(all_times)
        tids = np.concatenate(all_tids)
        order = np.lexsort((tids, times))
        times, tids = times[order], tids[order]
    else:
        times = np.empty(0)
        tids = np.empty(0, dtype=np.int64)

    events = list(zip(times.tolist(), tids.tolist(), range(len(times))))
    return ArrivalStream(horizon=float(horizon), rng_seed=int(seed), types=types, events=events)


def regularize(stream: ArrivalStream, reg_rates: Sequence[float]) -> ArrivalStream:
    """Re-emit each type at Poisson epochs, substituting dummies when idle.

    Emission epochs are an independent Poisson process per type at the
    given rate; each epoch releases the oldest waiting real flow of that
    type (FIFO) or, if none has arrived yet, a dummy flow of the same
    size.  Real flows keep their uid and remember their original arrival
    time; dummies get fresh negative uids.
    """
    rates = list(reg_rates)
    if len(rates) != len(stream.types):
        raise ValueError("need one regularizer rate per type")
    for ti, ftype in enumerate(stream.types):
        if rates[ti] <= ftype.rate:
            raise UnstableRegularizerError(
                f"type {ti}: emission rate {rates[ti]} must exceed arrival rate {ftype.rate}"
            )

    per_type_real: dict[int, list[tuple[float, int]]] = {ti: [] for ti in range(len(stream.types))}
    for t, ti, uid in stream.events:
        per_type_real[ti].append((t, uid))

    out: list[tuple[float, int, int]] = []
    external: dict[int, float] = {}
    next_dummy = -1
    for ti, ftype in enumerate(stream.types):
        emit_times = _poisson_times(_substream(stream.rng_seed, ftype, salt=1), rates[ti], stream.horizon)
        queue = per_type_real[ti]
        head = 0
        for emit in emit_times:
            e = float(emit)
            if head < len(queue) and queue[head][0] <= e:
                t_arr, uid = queue[head]
                head += 1
                external[uid] = t_arr
                out.append((e, ti, uid))
            else:
                out.append((e, ti, next_dummy))
                next_dummy -= 1

    out.sort(key=lambda ev: (ev[0], ev[1]))
    return ArrivalStream(
        horizon=stream.horizon,
        rng_seed=stream.rng_seed,
        types=stream.types,
        events=out,
        external_times=external,
    )
