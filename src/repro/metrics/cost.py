"""The run's ledger: request fees and rent, per billed component.

:class:`CostLedger` is one account per run: every storage request
accrues its fee as it is served, and every :class:`Rent` integrates a
level (bytes at rest on a backend, member nodes of a grid) over
virtual time and books it at its price, so totals read mid-run are
exact (:func:`repro.metrics.report.cost_summary` renders it).  Prices
come from :class:`repro.config.AwsPrices`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass
class BackendBill:
    """Accumulated dollars for one billed component."""

    backend: str
    tier: str
    requests: int = 0
    request_dollars: float = 0.0
    #: The rented level integrated over time: byte-seconds for a
    #: storage tier, node-seconds for the ``compute`` tier.
    byte_seconds: float = 0.0
    storage_dollars: float = 0.0

    @property
    def total_dollars(self) -> float:
        return self.request_dollars + self.storage_dollars


@dataclass
class CostLedger:
    """Per-component request fees + rent, in one account.

    Backends report into the ledger as they serve traffic
    (:meth:`request`), and every attached :class:`Rent` books its
    occupancy (:meth:`occupancy`); :meth:`settle` brings every rent up
    to the current virtual time.  One ledger may serve many components
    (a :class:`~repro.storage.tiering.TieredStore` shares one across
    its tiers), keyed by name.
    """

    bills: dict[str, BackendBill] = field(default_factory=dict)
    _rents: list[Rent] = field(default_factory=list, repr=False)

    def attach(self, rent: Rent) -> None:
        """Register ``rent`` for :meth:`settle` sweeps."""
        self._rents.append(rent)

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
        """Book every attached rent up to the current virtual time."""
        for rent in self._rents:
            rent.settle()

    @property
    def request_dollars(self) -> float:
        return sum(b.request_dollars for b in self.bills.values())

    @property
    def storage_dollars(self) -> float:
        return sum(b.storage_dollars for b in self.bills.values())

    @property
    def total_dollars(self) -> float:
        return sum(b.total_dollars for b in self.bills.values())


class Rent:
    """Books ``level() x elapsed`` virtual seconds (``clock.now``, the
    kernel's) into ``ledger`` at ``price``.  ``level`` is read when the
    rent settles, so whoever changes it settles first; a zero level
    books nothing."""

    def __init__(self, ledger: CostLedger, clock, name: str, tier: str,
                 level: Callable[[], float],
                 price: Callable[[float], float]):
        self.ledger = ledger
        self.clock = clock
        self.name = name
        self.tier = tier
        self.level = level
        self.price = price
        self.level_seconds = 0.0  # everything booked so far
        self._last = clock.now
        ledger.attach(self)

    def settle(self) -> None:
        now = self.clock.now
        elapsed = now - self._last
        self._last = now
        if elapsed > 0 and (level := self.level()) > 0:
            amount = level * elapsed
            self.level_seconds += amount
            self.ledger.occupancy(self.name, self.tier, amount,
                                  self.price(amount))
