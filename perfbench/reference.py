"""A fixed piece of reference work that gauges how fast the machine runs.

On a shared virtual machine the same code runs a third faster or slower
from one stretch of seconds or minutes to the next.  run.py times this
work between requests, 8% of the time spent in requests, and scales each
request's latency by REFERENCE_S / (median time of the samples of this
work taken nearest to it): the times it reports are seconds on a machine
that does this work in REFERENCE_S.  The work uses no code of the
program, so a faster or slower program moves the scaled times exactly as
it moves the raw ones; the machine's own speed mostly cancels.

The work mixes what the program spends its time on: Python dicts keyed
by tuples (posets, tables), big-integer row operations (Smith normal
form) and numpy gathers and row sorts on permutation arrays (groups).
Neither the work nor REFERENCE_S may change once figures were recorded
against them.
"""

from __future__ import annotations

import numpy as np

# the unit of the scaled times: about the median time of reference_work()
# on the machine the benchmark was defined on (2 vCPUs of an Intel Xeon,
# Python 3.11, numpy 2.4) in its slower, more common state; in its faster
# state the work takes 13-16 ms
REFERENCE_S = 0.023

_PERMS = np.argsort(np.random.default_rng(12345).random((8000, 8)), axis=1).astype(np.int16)


def reference_work() -> int:
    table: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i
    pivot = 3**200
    row = [pivot + 7 * j for j in range(24)]
    for i in range(1, 25):
        other = [(i * 7919 + j) ** 6 for j in range(24)]
        row = [(a * other[0] - b * pivot) % (1 << 512) for a, b in zip(other, row)]
    perms = _PERMS
    for _ in range(3):
        perms = np.take_along_axis(perms, perms[:, ::-1], axis=1)
    return len(table) + len(np.unique(perms, axis=0)) + row[0] % 2

