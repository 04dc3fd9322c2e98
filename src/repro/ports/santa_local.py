"""The Santa Claus problem — single-machine threads and monitors."""

from repro.coordination.santa import SantaWorkshop
from repro.ports.common import LocalThread as Thread
from repro.ports.common import local_shared as shared
from repro.simulation.thread import sleep

import numpy as np

VACATION_MEAN = 0.05
WORK_MEAN = 0.03
DELIVERY_TIME = 0.02
HELP_TIME = 0.01


def make_workshop(deliveries: int, run_id: str):
    return shared(SantaWorkshop, f"{run_id}/workshop", 9, 3, deliveries)


class Reindeer:
    def __init__(self, workshop, seed: int):
        self.workshop = workshop
        self.seed = seed

    def run(self) -> None:
        rng = np.random.Generator(np.random.PCG64(self.seed))
        while True:
            sleep(float(rng.exponential(VACATION_MEAN)))
            if self.workshop.reindeer_back() == "stop":
                return


class Elf:
    def __init__(self, workshop, seed: int):
        self.workshop = workshop
        self.seed = seed

    def run(self) -> None:
        rng = np.random.Generator(np.random.PCG64(self.seed))
        while True:
            sleep(float(rng.exponential(WORK_MEAN)))
            if self.workshop.elf_asks() == "stop":
                return


class Santa:
    def __init__(self, workshop):
        self.workshop = workshop

    def run(self) -> None:
        while True:
            action = self.workshop.santa_waits()
            if action == "done":
                return
            sleep(DELIVERY_TIME if action == "deliver" else HELP_TIME)
            (self.workshop.delivery_done if action == "deliver"
             else self.workshop.help_done)()


def solve(deliveries: int = 15, run_id: str = "santa") -> dict:
    workshop = make_workshop(deliveries, run_id)
    entities = ([Santa(workshop)]
                + [Reindeer(workshop, 1 + i) for i in range(9)]
                + [Elf(workshop, 100 + i) for i in range(10)])
    threads = [Thread(entity) for entity in entities]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return workshop.get_stats()
