"""Monetary-cost models: the Table 3 experiment bill and the
per-backend storage ledger.

:class:`CostModel` prices whole experiments (2019 on-demand AWS
rates): Lambda GB-seconds + requests, plus the DSO storage instance(s)
for Crucial; the EMR cluster for Spark.  As in the paper, provisioning
time is not billed and the free tier is ignored.

:class:`CostLedger` is the storage-tier ledger behind the pluggable
backend API (:mod:`repro.storage.backend`): every request accrues its
per-request fee, and capacity rent accrues as a byte-seconds integral
over virtual time, per backend — so tiered-placement policies can be
compared in dollars, not just microseconds
(:func:`repro.metrics.report.cost_summary` renders it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import Config, DEFAULT_CONFIG


@dataclass
class BackendBill:
    """Accumulated dollars for one storage backend."""

    backend: str
    tier: str
    requests: int = 0
    request_dollars: float = 0.0
    byte_seconds: float = 0.0
    storage_dollars: float = 0.0

    @property
    def total_dollars(self) -> float:
        return self.request_dollars + self.storage_dollars


@dataclass
class CostLedger:
    """Per-backend request fees + capacity rent, in one account.

    Backends report into the ledger as they serve traffic
    (:meth:`request`) and as data rests on them (:meth:`occupancy`);
    :meth:`settle` asks every attached backend to accrue rent up to
    the current virtual time, so totals read mid-run are exact.  One
    ledger may serve many backends (a :class:`~repro.storage.tiering.
    TieredStore` shares one across its tiers), keyed by backend name.
    """

    bills: dict[str, BackendBill] = field(default_factory=dict)
    _backends: list = field(default_factory=list, repr=False)

    def attach(self, backend) -> None:
        """Register ``backend`` for :meth:`settle` sweeps."""
        if backend not in self._backends:
            self._backends.append(backend)

    def bill_for(self, name: str, tier: str = "object") -> BackendBill:
        bill = self.bills.get(name)
        if bill is None:
            bill = self.bills[name] = BackendBill(backend=name, tier=tier)
        return bill

    def request(self, name: str, tier: str, dollars: float,
                count: int = 1) -> None:
        """Accrue ``count`` requests costing ``dollars`` in total."""
        bill = self.bill_for(name, tier)
        bill.requests += count
        bill.request_dollars += dollars

    def occupancy(self, name: str, tier: str, byte_seconds: float,
                  dollars: float) -> None:
        """Accrue capacity rent for ``byte_seconds`` of occupancy."""
        bill = self.bill_for(name, tier)
        bill.byte_seconds += byte_seconds
        bill.storage_dollars += dollars

    def settle(self) -> None:
        """Flush every attached backend's pending rent accrual."""
        for backend in self._backends:
            backend.settle()

    @property
    def request_dollars(self) -> float:
        return sum(b.request_dollars for b in self.bills.values())

    @property
    def storage_dollars(self) -> float:
        return sum(b.storage_dollars for b in self.bills.values())

    @property
    def total_dollars(self) -> float:
        return sum(b.total_dollars for b in self.bills.values())


@dataclass(frozen=True)
class ExperimentCost:
    label: str
    total_seconds: float
    total_dollars: float
    iteration_seconds: float
    iteration_dollars: float

    def row(self) -> tuple:
        return (self.label, round(self.total_seconds),
                round(self.total_dollars, 3),
                round(self.iteration_dollars, 3))


class CostModel:
    def __init__(self, config: Config = DEFAULT_CONFIG):
        self.prices = config.prices
        #: The EMR cluster: the configured workers plus one master.
        self.spark_nodes = config.spark.worker_nodes + 1

    # -- Crucial -------------------------------------------------------------------

    def crucial_rate_per_second(self, functions: int,
                                memory_mb: int) -> float:
        """$/s while all functions and the one DSO node are running.

        With 80 x 1792 MB this is ~0.25 cents/s, with 80 x 2048 MB
        ~0.28 cents/s — Section 6.2.3's quoted rates.
        """
        lambda_rate = (functions * (memory_mb / 1024.0)
                       * self.prices.lambda_gb_second)
        storage_rate = self.prices.ec2_r5_2xlarge_hour / 3600.0
        return lambda_rate + storage_rate

    def crucial_experiment(self, label: str, total_seconds: float,
                           iteration_seconds: float, functions: int,
                           memory_mb: int) -> ExperimentCost:
        """One invocation per function, billed for the whole run."""
        rate = self.crucial_rate_per_second(functions, memory_mb)
        requests = functions * self.prices.lambda_per_request
        return ExperimentCost(
            label=label,
            total_seconds=total_seconds,
            total_dollars=rate * total_seconds + requests,
            iteration_seconds=iteration_seconds,
            iteration_dollars=rate * iteration_seconds)

    # -- Spark on EMR -----------------------------------------------------------------

    def spark_rate_per_second(self) -> float:
        """$/s of the EMR cluster: EC2 + EMR surcharge per node.

        11 m5.2xlarge nodes cost ~0.15 cents/s (Section 6.2.3).
        """
        per_node_hour = (self.prices.ec2_m5_2xlarge_hour
                         + self.prices.emr_m5_2xlarge_hour)
        return self.spark_nodes * per_node_hour / 3600.0

    def spark_experiment(self, label: str, total_seconds: float,
                         iteration_seconds: float) -> ExperimentCost:
        rate = self.spark_rate_per_second()
        return ExperimentCost(
            label=label,
            total_seconds=total_seconds,
            total_dollars=rate * total_seconds,
            iteration_seconds=iteration_seconds,
            iteration_dollars=rate * iteration_seconds)
