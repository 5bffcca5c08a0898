"""Host-speed reference: fixed pure-Python work timed around the measured calls.

The speed of a shared host drifts: on a 2-core VM one run of
`reference_work` took anywhere from 21 to 38 ms within the same half hour,
and the median time of the same `search --n 7 --max-classes 4` call moved
with it, from 1.45 to 2.17 s.  So the benchmark times `reference_work`
before the first call and again whenever CALIBRATE_EVERY_S of calls have
passed, and reports every time scaled to a nominal host, one on which
`reference_work` takes REFERENCE_S: measured seconds times REFERENCE_S over
the mean time of the two reference runs around the measured work.

The work never changes with the program, so a faster program gives smaller
scaled times on any host.  It mixes the kinds of work the program's hot
paths do (small-int arithmetic, tuple keys, dict updates, method calls with
attribute lookups, NamedTuple creation), and one run lasts tens of
milliseconds so that brief stalls average out.
"""

from __future__ import annotations

import time
from typing import NamedTuple

REFERENCE_S = 0.025  # time of reference_work on the nominal host
CALIBRATE_EVERY_S = 0.5  # seconds of calls between two reference runs


class _Pair(NamedTuple):
    u: int
    v: int
    clause: str


class _Params:
    __slots__ = ("n", "order", "is_odd")

    def __init__(self, n: int) -> None:
        self.n, self.order, self.is_odd = n, 8 * n, n % 2 == 1


def _classify(params: _Params, u: int, v: int) -> _Pair:
    if (u // params.n) % 4 == (v // params.n) % 4 and (u + v) % 3 == 0:
        return _Pair(u, v, "blocked")
    if u - v not in (4 * params.n, -4 * params.n):
        return _Pair(u, v, "displacement")
    return _Pair(u, v, "antipodal")


def reference_work() -> int:
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(32000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
        acc = (acc * 31 + (i ^ (i >> 3))) % 1000003
    params = _Params(7)
    for _ in range(8):
        for u in range(params.order):
            for v in range(u + 1, params.order):
                acc += _classify(params, u, v).clause == "antipodal"
    return acc + len(counts)


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scaled(seconds: float, reference_s: float) -> float:
    """`seconds` measured while reference_work took `reference_s`, on the nominal host."""
    return seconds * REFERENCE_S / reference_s
