"""DSO shared objects lose no update under contention.

Random concurrent histories of every Table 1 object, checked against
its own server class on five transports, are the generic hunts of
``tests/explore/guarantees.py``; this file keeps the plain count.
"""

from repro import AtomicLong, CrucialEnvironment
from repro.simulation.thread import spawn


def test_contended_counter_total_is_exact():
    """No lost updates under contention (wait-free linearizable adds)."""
    with CrucialEnvironment(seed=5, dso_nodes=2) as env:
        def main():
            counter = AtomicLong("exact")

            def worker():
                for _ in range(25):
                    counter.add_and_get(1)

            threads = [spawn(worker) for _ in range(8)]
            for t in threads:
                t.join()
            return counter.get()

        assert env.run(main) == 200
