"""Machine-speed yardsticks: fixed loops that run none of kuroda's code.

On a shared machine the same work can take a third longer at one moment
than at another, and the slowdown differs between interpreter-bound Python
and numpy array work.  Every run interleaves short chunks of a yardstick
with its operations and rescales each op's time by
``(nominal / median of the chunks around it) ** ELASTICITY``, so that a
slower machine moment slows the chunks and the operations alike and the
rescaled figures stay put.

* ``exact``: tuple keys, dict updates, integer products and ``Fraction``
  additions, the work of kuroda's exact layer;
* ``array``: uniform draws, fractional powers, row maxima and boolean
  filtering on 20000 x 3 float arrays, the work of the float layer's
  samplers and margins.

Exact workloads are rescaled by ``exact`` alone; float workloads, whose ops
mix Python loops with array work, by the geometric mean of both factors;
set-up, which is interpreter work plus loading numpy, by both as well.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from fractions import Fraction

import numpy as np


def _exact(n: int = 6000):
    acc: dict[tuple[int, int, int], int] = {}
    total = Fraction(0)
    for i in range(n):
        key = (i % 7, i % 5, i & 3)
        acc[key] = acc.get(key, 0) + i * i
        if not i & 15:
            total += Fraction(i, 7)
    return len(acc), total


def _array():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-5.0, 5.0, size=(20000, 3))
    kept = []
    for e in (1.5, 2.5, 3.5):
        margins = (np.abs(pts) ** e).max(axis=1) - 8.0
        kept.append(pts[margins < 0])
    return len(np.vstack(kept))


# How far op times follow the yardstick, in log terms.  Measured on a shared
# 2-core x86-64 VM (Python 3.11, numpy 2.4): between fast and slow moments
# the short chunks changed speed more than the ops did (regression slopes of
# 0.3-0.7 per run), and the run-to-run spread of the rescaled metrics was
# lowest near 0.75; full rescaling, 1.0, widened it.  A quiet machine keeps
# the chunks at nominal speed, where the exponent has no effect.
ELASTICITY = 0.75
# Chunks, nearest in time, whose median gives the machine speed around an op.
NEAREST = 25

# Median chunk time in milliseconds that defines "nominal speed", per kind.
# Fixed once; changing one rescales every timing reported with that kind.
NOMINAL_MS = {"exact": 4.5, "array": 6.0}
_LOOPS = {"exact": _exact, "array": _array}
KINDS = tuple(NOMINAL_MS)


def chunk(kind: str) -> float:
    """Run one chunk of the ``kind`` yardstick; return its wall time in seconds."""
    loop = _LOOPS[kind]
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def factors(at: list[float], chunks: dict[str, list[list[float]]], kinds) -> list[float]:
    """Per-time multipliers that turn measured times into times at nominal speed.

    ``chunks[kind]`` holds ``[start, seconds]`` pairs in start order.  For
    each time in ``at`` the multiplier is the geometric mean over ``kinds``
    of ``nominal / median of the NEAREST chunks closest in time``, raised to
    :data:`ELASTICITY`, so an op is rescaled by the machine speed around it.
    """
    out = [0.0] * len(at)
    for kind in kinds:
        starts = [c[0] for c in chunks[kind]]
        nominal = NOMINAL_MS[kind] / 1e3
        for i, t in enumerate(at):
            j = bisect.bisect_left(starts, t)
            near = sorted(chunks[kind][max(0, j - NEAREST): j + NEAREST],
                          key=lambda c: abs(c[0] - t))[:NEAREST]
            out[i] += math.log(nominal / statistics.median(c[1] for c in near))
    return [math.exp(v * ELASTICITY / len(kinds)) for v in out]
