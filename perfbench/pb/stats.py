"""Statistics helpers: percentiles that carry their sample count, and
span self time over overlapping children.

Every latency percentile the benchmark reports goes through
:func:`percentile`, which refuses a tail with fewer than
:data:`MIN_BEYOND` samples beyond it, so a reported p90 or p99 always
rests on at least ten observations that exceed it.  Failed and refused
requests enter the sample as ``math.inf`` (:data:`FAILED`): they count
as missing any latency limit, and a percentile that lands on one reads
as infinite rather than silently improving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple

#: the latency recorded for a failed or refused operation
FAILED = math.inf

#: samples a tail percentile must have strictly beyond its rank
MIN_BEYOND = 10


class TailTooThin(ValueError):
    """A percentile was asked of a sample too small to support it."""


@dataclass(frozen=True)
class Percentile:
    """One percentile estimate with the sample it came from."""

    q: float
    value: float
    count: int
    beyond: int


def percentile(samples: Iterable[float], q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``.

    The rank is ``ceil(q / 100 * n)``; the ``n - rank`` samples above it
    are the tail.  Raises :class:`TailTooThin` when that tail is shorter
    than :data:`MIN_BEYOND`; the median is checked the same way, so it
    needs at least 20 samples.
    """
    values = sorted(samples)
    n = len(values)
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    if n == 0:
        raise TailTooThin(f"p{q:g} of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TailTooThin(
            f"p{q:g} of {n} samples has {beyond} beyond it "
            f"(needs {MIN_BEYOND})"
        )
    return Percentile(q=q, value=values[rank - 1], count=n, beyond=beyond)


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval first; two children
    that overlap (jobs on two pool workers) are subtracted once, not
    twice, so self time never goes negative.
    """
    clipped: List[Tuple[float, float]] = [
        (max(start, s), min(end, e)) for s, e in children
    ]
    return (end - start) - union_length(clipped)
