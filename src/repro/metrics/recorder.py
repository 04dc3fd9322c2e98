"""Event-rate tracking and percentiles in virtual time."""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field


@dataclass
class ThroughputTracker:
    """Event times in virtual time, kept sorted (virtual time is
    monotone for simulation callers; out-of-order stamps are
    insorted), so window queries are exact for any window."""

    events: list[float] = field(default_factory=list, repr=False)

    def record(self, time: float) -> None:
        if self.events and time < self.events[-1]:
            insort(self.events, time)
        else:
            self.events.append(time)

    def count_between(self, start: float, end: float) -> int:
        """Events recorded in ``[start, end)``."""
        return (bisect_left(self.events, end)
                - bisect_left(self.events, start))

    def rate_between(self, start: float, end: float) -> float:
        """Mean events/second over ``[start, end)``: events / elapsed,
        exact for any window, aligned or not."""
        if end <= start:
            return 0.0
        return self.count_between(start, end) / (end - start)


def percentile(values: list[float], q: float) -> float:
    """Percentile of ``values`` (``q`` in [0, 100]).

    Interpolates linearly between the two closest order statistics —
    the sample at fractional rank ``(n - 1) * q / 100`` — matching
    ``numpy.percentile``.  (A nearest-rank rule would pin p999 to the
    sample *maximum* for any n < 1000, overstating tail latency.)
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q out of range: {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = math.ceil(position)
    fraction = position - lower
    low, high = ordered[lower], ordered[upper]
    # Rounding can land the blend an ulp outside [low, high] (for equal
    # neighbours: below the sample minimum, and non-monotone in q).
    return min(max(low * (1.0 - fraction) + high * fraction, low), high)
