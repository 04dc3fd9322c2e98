"""A heartbeat failure detector.

The membership service's ``report_crash`` models detection as a fixed
delay.  This module provides the mechanism behind that abstraction: a
detector samples member heartbeats every ``period`` seconds and expels
a member once it has been silent for ``timeout`` — the eventually-
perfect detector JGroups' FD_ALL implements for Infinispan clusters.

Enable it on a DSO layer with
:meth:`repro.dso.layer.DsoLayer.enable_failure_detector`; crashes are
then noticed without any explicit report.
"""

from __future__ import annotations

from repro.cluster.membership import MembershipService
from repro.net.network import Network
from repro.simulation.kernel import Kernel
from repro.simulation.thread import PeriodicThread


class HeartbeatFailureDetector:
    """Expels silent members from the membership view."""

    def __init__(self, kernel: Kernel, network: Network,
                 membership: MembershipService, period: float = 1.0,
                 timeout: float = 3.0, name: str = "fd"):
        if timeout < period:
            raise ValueError("timeout must be >= heartbeat period")
        self.kernel = kernel
        self.network = network
        self.membership = membership
        self.period = period
        self.timeout = timeout
        self.name = name
        #: The detector is itself a network participant: heartbeats it
        #: cannot reach (crash OR partition) count as silence, so
        #: injected partitions trigger expulsion like real crashes do.
        self.endpoint = network.ensure_endpoint(name)
        self.last_heartbeat: dict[str, float] = {}
        self.suspected: set[str] = set()
        self._thread: PeriodicThread | None = None

    def start(self) -> "HeartbeatFailureDetector":
        if self._thread is not None:
            raise RuntimeError("failure detector already started")
        self._thread = self.kernel.every(self.period, self._sample,
                                         name=f"{self.name}-monitor",
                                         delay=0)
        return self

    def _sample(self) -> None:
        now = self.kernel.now
        for member in self.membership.view.members:
            if self.network.reachable(self.name, member):
                # Heartbeat received this round.
                self.last_heartbeat[member] = now
                self.suspected.discard(member)
                continue
            last = self.last_heartbeat.get(member, now)
            if member not in self.last_heartbeat:
                self.last_heartbeat[member] = now
            if now - last >= self.timeout and \
                    member not in self.suspected:
                self.suspected.add(member)
                self.membership.expel(member)

    def detection_bound(self) -> float:
        """Worst-case time from crash to view change."""
        return self.timeout + self.period
