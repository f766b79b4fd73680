"""Order statistics and interval arithmetic shared by the runner, the
layer attribution and the comparator."""

from __future__ import annotations

import statistics

#: Percentiles the tail rule may choose from, highest last (the median
#: is always reported on its own).
TAIL_CANDIDATES = (75, 90, 95, 99)

#: A reported tail percentile must have at least this many samples
#: beyond it.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p: float) -> float:
    """The ``p``-th percentile by linear interpolation between order
    statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> int | None:
    """The highest candidate percentile with at least ten of ``n``
    samples beyond it, or None when none has."""
    best = None
    for p in TAIL_CANDIDATES:
        if n * (100 - p) >= TAIL_MIN_BEYOND * 100:
            best = p
    return best


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, counting
    overlaps once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its children cover."""
    clipped = [(max(s, start), min(e, end)) for s, e in children
               if e > start and s < end]
    return (end - start) - union_length(clipped)
