"""Deterministic discrete-event simulation substrate.

The kernel keeps a virtual clock and a heap of wakeups; *simulated
threads* (real OS threads, exactly one holding the baton at a time)
run its dispatch loop themselves and hand the baton on in
``(time, sequence)`` order.  All blocking synchronization used by the
upper layers — sleeps, events, locks, semaphores, queues, conditions,
capacity resources — is implemented here in terms of kernel wakeups, so
simulated minutes execute in real milliseconds and runs are
reproducible given seeded RNG streams.
"""

from repro.simulation.kernel import Kernel, current_kernel, current_thread
from repro.simulation.thread import SimThread
from repro.simulation.primitives import (
    Condition,
    Event,
    Lock,
    Queue,
    Semaphore,
)
from repro.simulation.resources import Resource
from repro.simulation.rng import RngRegistry

__all__ = [
    "Kernel",
    "SimThread",
    "Event",
    "Lock",
    "Semaphore",
    "Condition",
    "Queue",
    "Resource",
    "RngRegistry",
    "current_kernel",
    "current_thread",
]
