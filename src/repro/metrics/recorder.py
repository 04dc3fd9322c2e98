"""Time-series collection in virtual time."""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field


@dataclass
class TimeSeries:
    """Scalar samples stamped with virtual time."""

    name: str
    points: list[tuple[float, float]] = field(default_factory=list)

    def add(self, time: float, value: float) -> None:
        self.points.append((time, value))

    def values(self) -> list[float]:
        return [value for _t, value in self.points]

    def mean(self) -> float:
        values = self.values()
        return sum(values) / len(values) if values else 0.0

    def maximum(self) -> float:
        values = self.values()
        return max(values) if values else 0.0


@dataclass
class ThroughputTracker:
    """Counts events into fixed-width virtual-time buckets.

    ``counts`` is the bucketed view used for plotting.  The exact
    event times are kept as well (sorted — virtual time is monotone
    for simulation callers, and out-of-order stamps are insorted), so
    window queries are exact rather than quantised to bucket
    boundaries.
    """

    bucket_width: float = 1.0
    counts: dict[int, int] = field(default_factory=dict)
    events: list[float] = field(default_factory=list, repr=False)

    def record(self, time: float) -> None:
        bucket = int(time // self.bucket_width)
        self.counts[bucket] = self.counts.get(bucket, 0) + 1
        if self.events and time < self.events[-1]:
            insort(self.events, time)
        else:
            self.events.append(time)

    def count_between(self, start: float, end: float) -> int:
        """Events recorded in ``[start, end)``."""
        return (bisect_left(self.events, end)
                - bisect_left(self.events, start))

    def series(self, start: float, end: float) -> list[float]:
        """Events/second for each bucket overlapping ``[start, end)``.

        Edge buckets only partially covered by the window are
        normalised by the overlapped width, so a non-aligned ``end``
        no longer drops the trailing partial bucket (nor dilutes its
        rate), and a non-aligned ``start`` no longer counts events
        from before the window.
        """
        if end <= start:
            return []
        first = int(start // self.bucket_width)
        last = math.ceil(end / self.bucket_width)
        out = []
        for bucket in range(first, last):
            lo = max(start, bucket * self.bucket_width)
            hi = min(end, (bucket + 1) * self.bucket_width)
            if hi > lo:
                out.append(self.count_between(lo, hi) / (hi - lo))
        return out

    def rate_between(self, start: float, end: float) -> float:
        """Mean events/second over ``[start, end)``: events / elapsed.

        Exact for any window, aligned or not — the old implementation
        averaged whole-bucket rates, which both dropped the trailing
        partial bucket and divided by bucket count instead of elapsed
        time.
        """
        if end <= start:
            return 0.0
        return self.count_between(start, end) / (end - start)


def percentile(values: list[float], q: float,
               method: str = "linear") -> float:
    """Percentile of ``values`` (``q`` in [0, 100]).

    ``method="linear"`` (the default) interpolates linearly between
    the two closest order statistics — the sample at fractional rank
    ``(n - 1) * q / 100`` — matching ``numpy.percentile``.  The old
    nearest-rank rule pinned p999 to the sample *maximum* for any
    n < 1000, overstating tail latency in every benchmark; it remains
    available as ``method="nearest"`` for callers asserting exact
    historical values.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q out of range: {q}")
    ordered = sorted(values)
    if method == "nearest":
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]
    if method != "linear":
        raise ValueError(f"unknown percentile method: {method!r}")
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = math.ceil(position)
    fraction = position - lower
    low, high = ordered[lower], ordered[upper]
    # Rounding can land the blend an ulp outside [low, high] (for equal
    # neighbours: below the sample minimum, and non-monotone in q).
    return min(max(low * (1.0 - fraction) + high * fraction, low), high)
