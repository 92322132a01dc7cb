"""The floor estimator: pure functions over lists of numbers.

One *round* drives the same transaction list once and yields one wall
time per transaction.  Interference on a shared host only ever adds
time, so the cleanest observations of transaction *i* are the
smallest of its times across rounds.  Its **floor** is the
second-smallest: the very smallest is sometimes *too* small (a burst
of host speed that the calibration below missed), and sparing one
sample halved the run-to-run spread of every metric in the noise
study.  A rung's throughput is the transaction count over the sum of
floors, and its latency percentiles are taken over the set of floors.
The median-of-rounds total is kept beside it (:func:`noise_share`),
so whatever the floor hides stays visible.

Nothing here imports the system under test; ``perf/tests`` drives
these functions with synthetic rounds.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence


def floors(rounds: Sequence[Sequence[float]]) -> List[float]:
    """Per-position floor across *rounds* (equal-length lists): the
    second-smallest value, or the smallest with fewer than 3 rounds."""
    if not rounds:
        raise ValueError("floors needs at least one round")
    width = len(rounds[0])
    if any(len(times) != width for times in rounds):
        raise ValueError("rounds differ in length")
    spared = 1 if len(rounds) >= 3 else 0
    return [sorted(column)[spared] for column in zip(*rounds)]


def window_min(values: Sequence[float], radius: int = 1) -> List[float]:
    """For each position, the minimum over it and *radius* neighbours
    on either side (fewer at the ends)."""
    return [
        min(values[max(0, index - radius): index + radius + 1])
        for index in range(len(values))
    ]


def calibrated(
    rounds: Sequence[Sequence[float]],
    reference: Sequence[float],
    nominal: float,
) -> List[List[float]]:
    """Rescale each round by the host's speed around it.

    ``reference[r]`` is the reference kernel's best time in round *r*.
    Its floor over the rounds around *r* says how fast the host could
    go just then; round *r*'s times are expressed in units where that
    floor is *nominal*.  The windowed floor never exceeds the kernel's
    true time at any moment of the round, so a calibrated time is
    never too small -- the floor over rounds still converges from
    above.
    """
    if len(rounds) != len(reference):
        raise ValueError("one reference time per round is needed")
    return [
        [time * nominal / speed for time in times]
        for times, speed in zip(rounds, window_min(reference))
    ]


def per_second(floor_ns: Sequence[float]) -> float:
    """Items per second, from their floors in nanoseconds."""
    return len(floor_ns) * 1e9 / sum(floor_ns)


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; p90 of 100 values has 10 beyond it."""
    if not values:
        raise ValueError("nearest_rank needs at least one value")
    ordered = sorted(values)
    last = len(ordered) - 1
    return ordered[min(last, max(0, int(round(fraction * last))))]


def noise_share(rounds: Sequence[Sequence[float]]) -> float:
    """(median round total - floor total) / floor total.

    Zero on a silent host; the share of a typical round that the floor
    estimator discards as interference.
    """
    floor_total = sum(floors(rounds))
    typical = statistics.median(sum(times) for times in rounds)
    return (typical - floor_total) / floor_total


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the driver's
    steadiness measure over ten runs)."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))
