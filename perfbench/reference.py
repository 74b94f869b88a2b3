"""A fixed reference computation that gauges the host's current speed.

On a shared host the same pass can take 1.5 s one moment and 3 s a few
seconds later, and the share of slow moments drifts over minutes, so medians
of wall time disagree from run to run by more than any useful bound. The
slowdown hits all single-threaded Python and numpy code alike. The benchmark
therefore times this kernel right before and after every measured pass or
set-up and divides by it: ``normalised(t, before, after)`` is ``t`` expressed
in seconds on a host where the kernel takes ``REFERENCE_S``.

The kernel mixes the program's two kinds of work: parsing and grouping CSV
rows in pure Python, like ``dataset``, and sorting and cumulative sums on
small numpy arrays, like ``tree``. It never calls ``gradecast``, so a change
to the program moves the passes and leaves the kernel alone.
"""

from __future__ import annotations

import csv
import gc
import io
import time

import numpy as np

REFERENCE_S = 0.03  # the kernel's time that normalised seconds refer to
_REPEATS = 6

_rng = np.random.default_rng(0)
_TEXT = "\n".join(
    f"s{i % 97:03d},t{i % 13},{_rng.random():.6f},{''.join('PF'[int(b)] for b in _rng.random(12) < 0.5)}"
    for i in range(3000)
)
_VALUES = _rng.random((400, 6))


def _kernel() -> float:
    total = 0.0
    for _ in range(_REPEATS):
        groups: dict[tuple[str, str], list] = {}
        for row in csv.reader(io.StringIO(_TEXT)):
            groups.setdefault((row[0], row[1]), []).append((float(row[2]), row[3].count("P")))
        total += sum(max(rows)[1] for rows in groups.values())
        for j in range(60):
            column = _VALUES[:, j % 6]
            ordered = column[np.argsort(column, kind="stable")]
            total += float(np.cumsum(ordered)[-1]) + int(np.count_nonzero(ordered[:-1] != ordered[1:]))
    return total


def seconds() -> float:
    """Wall time of one run of the kernel.

    The cyclic garbage collector is off meanwhile: a collection would walk
    every object the program keeps alive, and the kernel's time must not
    depend on the program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalised(t: float, before: float, after: float) -> float:
    """``t`` scaled by the kernel's times just before and after it."""
    return t * REFERENCE_S / ((before + after) / 2)
