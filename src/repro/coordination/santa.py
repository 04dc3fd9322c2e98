"""The Santa Claus problem (Section 6.3.3, Fig. 7c).

Santa sleeps until either all nine reindeer return from vacation
(deliver toys — priority) or three of the ten elves need help.  The
workshop is a single monitor object written once and run three ways:

* ``local`` — plain old Java objects: the monitor lives in-process
  (``shared()``'s in-process twin), entities are ordinary threads
  (zero-latency synchronization);
* ``dso``   — the same class, only annotated ``@Shared``: the monitor
  moves into the DSO layer, entities still run in the client;
* ``cloud`` — additionally, entities become CloudThreads.

The paper reports the DSO refinement costs ~8% and cloud threads add
only invocation overhead; the benchmark reproduces that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cloud_thread import run_all
from repro.core.runtime import current_environment
from repro.core.shared import shared
from repro.dso.server import ServerObject
from repro.simulation.kernel import current_thread
from repro.simulation.thread import spawn


class SantaWorkshop(ServerObject):
    """The monitor coordinating Santa, reindeer, and elves.

    A plain monitor: its methods take only their own arguments and
    ``wait()`` on conditions from :meth:`new_condition`, so the same
    code runs in-process (POJO variant) or as a shared object (DSO
    variants), each reached through its proxy — the paper's "code of
    the objects is not changed" claim, made literal.
    """

    def __init__(self, n_reindeer: int = 9, elf_group: int = 3,
                 target_deliveries: int = 15):
        self.n_reindeer = n_reindeer
        self.elf_group = elf_group
        self.target = target_deliveries
        self.reindeer_waiting = 0
        self.delivered = 0
        self.elf_tickets = 0
        self.elves_released = 0
        self.helps_done = 0
        self.finished = False
        self._santa = None
        self._reindeer = None
        self._elves = None

    def _conditions(self):
        if self._santa is None:
            self._santa = self.new_condition()
            self._reindeer = self.new_condition()
            self._elves = self.new_condition()
        return self._santa, self._reindeer, self._elves

    # -- entity-facing methods ---------------------------------------------------

    def reindeer_back(self) -> str:
        santa, reindeer, _elves = self._conditions()
        if self.finished:
            return "stop"
        self.reindeer_waiting += 1
        if self.reindeer_waiting == self.n_reindeer:
            santa.notify_all()
        epoch = self.delivered
        while not self.finished and self.delivered == epoch:
            reindeer.wait()
        return "stop" if self.finished else "delivered"

    def elf_asks(self) -> str:
        santa, _reindeer, elves = self._conditions()
        if self.finished:
            return "stop"
        ticket = self.elf_tickets
        self.elf_tickets += 1
        if self.elf_tickets - self.elves_released >= self.elf_group:
            santa.notify_all()
        while not self.finished and ticket >= self.elves_released:
            elves.wait()
        return "stop" if self.finished else "helped"

    def santa_waits(self) -> str:
        """Block until there is work; reindeer have priority."""
        santa, reindeer, elves = self._conditions()
        while True:
            if self.delivered >= self.target:
                self.finished = True
                reindeer.notify_all()
                elves.notify_all()
                return "done"
            if self.reindeer_waiting == self.n_reindeer:
                self.reindeer_waiting = 0  # harness the sleigh
                return "deliver"
            if self.elf_tickets - self.elves_released >= self.elf_group:
                return "help"
            santa.wait()

    def delivery_done(self) -> None:
        _santa, reindeer, _elves = self._conditions()
        self.delivered += 1
        reindeer.notify_all()

    def help_done(self) -> None:
        _santa, _reindeer, elves = self._conditions()
        self.elves_released += self.elf_group
        self.helps_done += 1
        elves.notify_all()

    def get_stats(self) -> dict:
        return {"delivered": self.delivered, "helps": self.helps_done}


# ---------------------------------------------------------------------------
# Entities
# ---------------------------------------------------------------------------


def _reindeer_loop(workshop, seed: int, vacation_mean: float) -> int:
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, 0xDEE2])))
    trips = 0
    while True:
        current_thread().sleep(float(rng.exponential(vacation_mean)))
        outcome = workshop.reindeer_back()
        if outcome == "stop":
            return trips
        trips += 1


def _elf_loop(workshop, seed: int, work_mean: float) -> int:
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, 0xE1F])))
    helped = 0
    while True:
        current_thread().sleep(float(rng.exponential(work_mean)))
        outcome = workshop.elf_asks()
        if outcome == "stop":
            return helped
        helped += 1


def _santa_loop(workshop, delivery_time: float, help_time: float) -> int:
    actions = 0
    while True:
        action = workshop.santa_waits()
        if action == "done":
            return actions
        current_thread().sleep(
            delivery_time if action == "deliver" else help_time)
        (workshop.delivery_done if action == "deliver"
         else workshop.help_done)()
        actions += 1


class _EntityRunnable:
    """Wraps an entity loop so it can run as a CloudThread."""

    def __init__(self, role: str, workshop, seed: int, params: dict):
        self.role = role
        self.workshop = workshop
        self.seed = seed
        self.params = params

    def run(self):
        if self.role == "reindeer":
            return _reindeer_loop(self.workshop, self.seed,
                                  self.params["vacation_mean"])
        if self.role == "elf":
            return _elf_loop(self.workshop, self.seed,
                             self.params["work_mean"])
        return _santa_loop(self.workshop, self.params["delivery_time"],
                           self.params["help_time"])


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------


VARIANTS = ("local", "dso", "cloud")


@dataclass
class SantaResult:
    variant: str
    elapsed: float
    deliveries: int
    helps: int


class SantaClausProblem:
    """10 elves, 9 reindeer, Santa; 15 toy deliveries (Section 6.3.3)."""

    def __init__(self, elves: int = 10, reindeer: int = 9,
                 deliveries: int = 15, seed: int = 2019,
                 vacation_mean: float = 0.010, work_mean: float = 0.006,
                 delivery_time: float = 0.004, help_time: float = 0.003):
        self.elves = elves
        self.reindeer = reindeer
        self.deliveries = deliveries
        self.seed = seed
        self.params = {
            "vacation_mean": vacation_mean,
            "work_mean": work_mean,
            "delivery_time": delivery_time,
            "help_time": help_time,
        }

    def run(self, variant: str, run_id: str | None = None) -> SantaResult:
        """Solve the problem once; call inside ``env.run(...)``.

        Without a ``run_id``, the environment's first run of a variant
        is ``santa-<variant>`` and each later one ``santa-<variant>-<n>``,
        so every run solves the problem on a workshop of its own.
        """
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        # Here, not at the top: ``import repro`` loads no port.
        from repro.ports.common import local_shared

        env = current_environment()
        if run_id is None:
            runs = env.kernel.locals.setdefault(__name__, {})
            count = runs[variant] = runs.get(variant, 0) + 1
            run_id = f"santa-{variant}" + (f"-{count}" if count > 1 else "")
        workshop = (local_shared if variant == "local" else shared)(
            SantaWorkshop, f"{run_id}/workshop", self.reindeer, 3,
            self.deliveries)
        start = env.now
        if variant == "cloud":
            runnables = (
                [_EntityRunnable("santa", workshop, self.seed, self.params)]
                + [_EntityRunnable("reindeer", workshop, self.seed + 1 + i,
                                   self.params)
                   for i in range(self.reindeer)]
                + [_EntityRunnable("elf", workshop, self.seed + 100 + i,
                                   self.params)
                   for i in range(self.elves)])
            env.pre_warm(len(runnables))
            start = env.now  # exclude provisioning, as the paper does
            run_all(runnables)
        else:
            threads = (
                [spawn(_santa_loop, workshop, self.params["delivery_time"],
                       self.params["help_time"], name="santa")]
                + [spawn(_reindeer_loop, workshop, self.seed + 1 + i,
                         self.params["vacation_mean"],
                         name=f"reindeer-{i}")
                   for i in range(self.reindeer)]
                + [spawn(_elf_loop, workshop, self.seed + 100 + i,
                         self.params["work_mean"], name=f"elf-{i}")
                   for i in range(self.elves)])
            for thread in threads:
                thread.join()
        stats = workshop.get_stats()
        return SantaResult(variant=variant, elapsed=env.now - start,
                           deliveries=stats["delivered"],
                           helps=stats["helps"])
