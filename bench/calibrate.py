"""A fixed stdlib loop that measures how fast the host runs right now.

The host the benchmark was tuned on changes speed by itself: a fixed
pure-Python loop runs about 40% slower in some stretches than in others, and
each stretch lasts tens of seconds, longer than a run.  CPU time follows
wall time, so the process is not losing the processor; the processor is
slower.  A median over passes cannot remove that.

The benchmark therefore times this loop next to each timed interval and
reports the interval in calibrated seconds: the seconds it took, times
``NOMINAL_S`` over the loop's seconds.  A slow stretch stretches both and
cancels.  The loop is stdlib only and never calls the package, so a change
to the package cannot move it.  It mixes the kinds of work the package
does: integer arithmetic in a Python loop, ``Fraction`` sums, tuple-keyed
dict updates, sorting and ``json.dumps``.  Either half alone cancelled the
drift less well than both together; a part that allocates megabytes did no
better and would have raised the measured process's peak RSS.
"""
from __future__ import annotations

import json
import time
from fractions import Fraction

# About the loop's own time on a 2-core x86-64 host with python 3.11, so
# calibrated seconds read close to wall seconds there.
NOMINAL_S = 0.040


def _work() -> int:
    total = 0
    for i in range(300_000):
        total += i * i % 7
    acc, counts = Fraction(0), {}
    for i in range(1, 3000):
        acc += Fraction(i % 17, i % 13 + 1)
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return total + int(acc) + len(json.dumps(sorted(counts.items())))


def loop_s() -> float:
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def calibrated(seconds: float, loop_seconds: float) -> float:
    """``seconds`` measured while the loop took ``loop_seconds``, in calibrated seconds."""
    return seconds * NOMINAL_S / loop_seconds
