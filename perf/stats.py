"""Small statistics shared by the benchmark's tools (no repro imports)."""

from __future__ import annotations

import math
import statistics
import struct
import zlib
from typing import Iterable, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it (choosing-metrics §1).
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"q out of range: {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = math.ceil(position)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond percentile ``q``."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2
    samples) — the steadiness measure the benchmark contract uses."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def fingerprint(ops: Iterable[tuple]) -> int:
    """crc32 over every op's ``(kind, virtual start, virtual end)``.

    Times are packed as IEEE doubles, so two runs agree only when
    every op started and ended at bit-identical virtual instants.
    """
    crc = 0
    for kind, start, end, *_rest in ops:
        crc = zlib.crc32(kind.encode(), crc)
        crc = zlib.crc32(struct.pack("<dd", start, end), crc)
    return crc


def merged_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
