"""A fixed reference loop that measures how fast the core runs right now.

On a shared host the speed of a core changes in phases of seconds to
minutes, by up to 2x.  CPU time slows down with wall time, so timing CPU
time does not remove it.  The benchmark therefore runs this loop between
specs, about every `EVERY_NS` of work, and scales each spec's latency by
how long the loop took around it:

    scaled = measured * REFERENCE_NS / median of the nearby loop times

A set-up probe is scaled by `scale_now`, run in the probe's own
interpreter just after the timed part.

A scaled time reads as the time on a core where the loop takes
`REFERENCE_NS`.  The loop uses only the standard library, so no change to
orbiseif changes its time; it does the kind of work orbiseif does most,
`Fraction` arithmetic and dictionaries keyed by small tuples.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter_ns

# The loop's time on a quiet core of a 2-vCPU Intel Xeon VM with
# Python 3.11.7; a unit, not a target.
REFERENCE_NS = 550_000
EVERY_NS = 10_000_000
# bursts on each side of a spec whose median scales it (about +-0.25 s)
WINDOW = 25


def reference_loop():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        f = Fraction(i, i + 7)
        acc += f * f
        key = (i % 17, i % 5)
        seen[key] = seen.get(key, 0) + 1
    return acc, len(seen)


def time_loop() -> int:
    start = perf_counter_ns()
    reference_loop()
    return perf_counter_ns() - start


class Reference:
    """Loop times of one run, and the scale they give each moment of it."""

    def __init__(self):
        self.bursts = []         # ns of each run of the loop, in time order
        self._next = 0

    def tick(self) -> int:
        """Run the loop if `EVERY_NS` has passed since the last run; the
        index of the latest run, which the next spec is scaled by."""
        if perf_counter_ns() >= self._next:
            self.bursts.append(time_loop())
            self._next = perf_counter_ns() + EVERY_NS
        return len(self.bursts) - 1

    def scales(self) -> list:
        """REFERENCE_NS over the median loop time within `WINDOW` runs,
        per run index."""
        bursts = self.bursts
        return [REFERENCE_NS / statistics.median(
                    bursts[max(0, k - WINDOW):k + WINDOW + 1])
                for k in range(len(bursts))]


def scale_now(runs: int = 2 * WINDOW + 1) -> float:
    """The scale of this moment, from `runs` runs of the loop in a row."""
    return REFERENCE_NS / statistics.median(time_loop() for _ in range(runs))
