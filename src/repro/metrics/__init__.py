"""Measurement and reporting: event rates, percentiles, the cost
ledger, result tables."""

from repro.metrics.recorder import ThroughputTracker, percentile
from repro.metrics.cost import BackendBill, CostLedger, Rent
from repro.metrics.report import (
    cache_summary,
    comparison_table,
    cost_summary,
    fault_summary,
    render_table,
)

__all__ = [
    "ThroughputTracker",
    "percentile",
    "BackendBill",
    "CostLedger",
    "Rent",
    "render_table",
    "comparison_table",
    "cost_summary",
    "fault_summary",
    "cache_summary",
]
