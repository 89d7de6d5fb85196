"""Pure statistics for the benchmark: medians, tails, self time, ABBA.

Nothing here touches the system under test, so the benchmark's own
tests exercise these functions directly.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Iterator, List, Sequence, Tuple

#: Candidate tail percentiles, highest first.  The tail reported is the
#: first one that leaves at least :data:`TAIL_BEYOND` samples above it.
#: The ladder stops at p90.  On a 2-vCPU host a varying share (1-5%) of
#: follows hit 5-20 ms scheduler stalls, so across runs of one workload
#: p95 moved by up to 1.7x and p99 by 2.5x, while p90 stays in the body
#: of the distribution.
TAIL_LADDER = (90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10

ARM_A = "A"
ARM_B = "B"


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest ladder percentile that
    has at least :data:`TAIL_BEYOND` samples strictly beyond its rank.

    With too few samples for any ladder rung (fewer than 20), the tail
    is the maximum and its percentile is reported as 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct, n
    return ordered[-1], 100.0, n


def merge_intervals(intervals: Iterable[Tuple[float, float]]
                    ) -> List[Tuple[float, float]]:
    """Union of closed intervals, as sorted disjoint intervals."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so concurrent children on other threads
    cannot drive self time below zero.
    """
    clipped = ((max(start, s), min(end, e)) for s, e in children)
    covered = sum(e - s for s, e in merge_intervals(clipped))
    return max(0.0, (end - start) - covered)


def abba_arms() -> Iterator[Tuple[str, bool]]:
    """Endless ``(arm, is_warmup)`` sequence: one discarded warm-up on
    each side (A then B), then A B B A repeated.

    Stop only at :func:`balanced` points so both arms keep equal counts
    and each sees the same mix of first and second positions.
    """
    yield ARM_A, True
    yield ARM_B, True
    block = (ARM_A, ARM_B, ARM_B, ARM_A)
    i = 0
    while True:
        yield block[i % 4], False
        i += 1


def paired_ratio(a: Sequence[float], b: Sequence[float]) -> float:
    """Median of ``a[i] / b[i]``.

    With samples appended in :func:`abba_arms` order, ``a[i]`` and
    ``b[i]`` ran next to each other, so each ratio sees the same host
    load and a load change between pairs cancels out.  A failed
    operation leaves one arm a sample short; the unpaired sample at the
    end is dropped.
    """
    return median([x / y for x, y in zip(a, b)])


def balanced(timed_ops: int) -> bool:
    """True after a number of timed ABBA ops that leaves the arms equal."""
    return timed_ops % 2 == 0
