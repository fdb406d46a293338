"""A fixed pure-Python loop that measures how fast the CPU runs right now.

Dividing a time by the loop's time, taken next to it, cancels most of a
slow or fast phase of the host; multiplying by ``NOMINAL_S`` turns the
ratio back into seconds on a CPU where the loop takes ``NOMINAL_S``.
"""

import statistics
import time

NOMINAL_S = 0.05

_TRANS = [[(q * 7 + c) % 25 for c in range(8)] for q in range(25)]
_BUF = [(i * 2654435761 >> 7) & 7 for i in range(4096)]


def _once() -> float:
    start = time.perf_counter()
    q = 0
    for i in range(800_000):
        q = _TRANS[q][_BUF[i & 4095]]
    return time.perf_counter() - start


def reference_time(samples: int) -> float:
    """Median of ``samples`` timings of the loop, in seconds."""
    return statistics.median(_once() for _ in range(samples))
