"""Queue-signal extraction.

The controller monitors two signals per sampling period (paper Section 3.1):

* the **level** signal ``q_i - q_ref`` -- how far occupancy sits from the
  nominal operating point; and
* the **slope** signal ``q_i - q_{i-1}`` -- how fast occupancy is moving.

The level signal detects a sustained speed mismatch between sender and
receiver domains; the slope signal detects a swing in progress, giving the
scheme its fast reaction to severe workload changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class SignalSample:
    """The two queue signals derived from one occupancy sample."""

    occupancy: int
    level: float
    slope: float


class SignalMonitor:
    """Derives level and slope signals from a stream of occupancy samples."""

    def __init__(self, q_ref: float) -> None:
        if q_ref < 0:
            raise ValueError("q_ref must be non-negative")
        self.q_ref = q_ref
        self._prev: Optional[int] = None

    def sample(self, occupancy: int) -> SignalSample:
        """Record one occupancy sample and return the derived signals.

        The first sample has zero slope (there is no previous point).
        """
        level, slope = self.signals(occupancy)
        return SignalSample(occupancy=occupancy, level=level, slope=slope)

    def signals(self, occupancy: int) -> Tuple[float, float]:
        """:meth:`sample` as a bare ``(level, slope)`` pair.

        The controllers call this once per 4 ns sample, so it builds no
        :class:`SignalSample`.
        """
        if occupancy < 0:
            raise ValueError("occupancy must be non-negative")
        prev = self._prev
        self._prev = occupancy
        slope = 0.0 if prev is None else float(occupancy - prev)
        return float(occupancy) - self.q_ref, slope

    def reset(self) -> None:
        self._prev = None
