"""Plain-text result tables, with paper-vs-measured comparisons.

Every benchmark prints one of these so EXPERIMENTS.md can be assembled
directly from bench output.
"""

from __future__ import annotations

from typing import Any, Sequence


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[Any]],
                 title: str | None = None) -> str:
    """A fixed-width text table."""
    table = [list(map(_fmt, headers))] + \
        [list(map(_fmt, row)) for row in rows]
    widths = [max(len(row[col]) for row in table)
              for col in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(table[0], widths)))
    lines.append(separator)
    for row in table[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def comparison_table(title: str,
                     entries: Sequence[tuple[str, float, float]],
                     unit: str = "") -> str:
    """Paper-vs-measured rows with the measured/paper ratio.

    ``entries`` are ``(label, paper_value, measured_value)``.
    """
    rows = []
    for label, paper, measured in entries:
        ratio = measured / paper if paper else float("nan")
        rows.append((label, _quantity(paper, unit),
                     _quantity(measured, unit), f"{ratio:.2f}x"))
    return render_table(
        ["experiment", "paper", "measured", "ratio"], rows, title=title)


def fault_summary(log, retries: dict[str, int] | None = None,
                  title: str = "fault injection") -> str:
    """Render a chaos run: injected/reverted faults per kind, plus any
    per-layer retry counters.

    ``log`` is a :class:`repro.chaos.injector.FaultLog` (anything with
    ``counts(phase)``); ``retries`` maps a layer label to its retry
    counter (e.g. ``{"dso": layer.stats.retries}``) so a report shows
    the injected faults next to the recoveries they forced.
    """
    injected = log.counts("inject")
    reverted = log.counts("revert")
    skipped = log.counts("noop")
    rows: list[tuple[str, Any, Any, Any]] = []
    for kind in sorted(set(injected) | set(reverted) | set(skipped)):
        rows.append((kind, injected.get(kind, 0), reverted.get(kind, 0),
                     skipped.get(kind, 0)))
    for layer, count in sorted((retries or {}).items()):
        rows.append((f"{layer} retries", count, "-", "-"))
    return render_table(["fault", "injected", "reverted", "noop"],
                        rows, title=title)


def cache_summary(stats, title: str = "dso read cache") -> str:
    """Render the DSO layer's lease-cache counters.

    ``stats`` is a :class:`repro.dso.layer.LayerStats`; the table shows
    the hit rate next to the coherence traffic it cost (leases granted
    by read replies, revocations forced by writes, refreshes re-arming
    the revoked caches after the write), so benchmarks can
    report read-path cache behaviour in one block.
    """
    lookups = stats.cache_hits + stats.cache_misses
    rate = stats.cache_hits / lookups if lookups else 0.0
    rows = [
        ("cache hits", stats.cache_hits),
        ("cache misses", stats.cache_misses),
        ("hit rate", f"{rate:.1%}"),
        ("leases granted", stats.leases_granted),
        ("lease revocations", stats.lease_revocations),
        ("lease refreshes", stats.lease_refreshes),
    ]
    return render_table(["counter", "value"], rows, title=title)


def cost_summary(ledger, title: str = "cost ledger") -> str:
    """Render a :class:`repro.metrics.cost.CostLedger` per component.

    Settles pending rent first, then shows each component's requests,
    request dollars, occupancy (node-hours for the ``compute`` tier,
    GB-hours for a storage tier), rent and total, and a total row.
    """
    ledger.settle()
    rows = []
    for name in sorted(ledger.bills):
        bill = ledger.bills[name]
        occupancy = (f"{bill.byte_seconds / 3600.0:.4g} node-h"
                     if bill.tier == "compute" else
                     f"{bill.byte_seconds / 1e9 / 3600.0:.4g} GB-h")
        rows.append((name, bill.tier, bill.requests,
                     f"${bill.request_dollars:.6f}", occupancy,
                     f"${bill.storage_dollars:.6f}",
                     f"${bill.total_dollars:.6f}"))
    rows.append(("total", "-",
                 sum(b.requests for b in ledger.bills.values()),
                 f"${ledger.request_dollars:.6f}", "-",
                 f"${ledger.storage_dollars:.6f}",
                 f"${ledger.total_dollars:.6f}"))
    return render_table(
        ["component", "tier", "requests", "request $", "occupancy",
         "rent $", "total $"],
        rows, title=title)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _quantity(value: float, unit: str) -> str:
    return f"{value:.4g}{unit}" if unit else f"{value:.4g}"
