"""Emission-by-emission reference implementation of the regularizer, for tests.

`regularize_loop` walks each type's emission epochs in order, releasing
the oldest waiting real flow (FIFO) or, when none has arrived yet, a
dummy with the next negative uid, and sorts the result by (time, type).
It takes the same arguments and returns the same stream as
`flow_gen.regularize`, so tests can check the closed form against it
event for event.
"""

from __future__ import annotations

import numpy as np

from dcflow.flow_gen import FLOW, ArrivalStream, _poisson_times, _substream


def regularize_loop(stream: ArrivalStream, reg_rates) -> ArrivalStream:
    rates = list(reg_rates)
    per_type_real: dict[int, list[tuple[float, int]]] = {ti: [] for ti in range(len(stream.types))}
    for t, ti, uid in stream.events.tolist():
        per_type_real[ti].append((t, uid))

    out: list[tuple[float, int, int]] = []
    external: dict[int, float] = {}
    next_dummy = -1
    for ti, ftype in enumerate(stream.types):
        emit_times = _poisson_times(_substream(stream.rng_seed, ftype, salt=1), rates[ti],
                                    stream.horizon)
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
    events = np.array(out, dtype=FLOW)
    t_arrive = np.array([external.get(uid, t) for t, _, uid in out], dtype=np.float64)
    return ArrivalStream(horizon=stream.horizon, rng_seed=stream.rng_seed, types=stream.types,
                         events=events, t_arrive=t_arrive)
