"""Property-based tests on the synchronization objects' invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CrucialEnvironment, CyclicBarrier, Semaphore
from repro.simulation.thread import sleep, spawn


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 9999),
    parties=st.integers(2, 6),
    rounds=st.integers(1, 4),
    delays=st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
)
def test_barrier_rounds_never_mix(seed, parties, rounds, delays):
    """No thread enters round r+1 before every thread finished round r,
    whatever the arrival jitter."""
    with CrucialEnvironment(seed=seed, dso_nodes=1) as env:
        def main():
            barrier = CyclicBarrier("prop", parties)
            log: list[tuple[int, int]] = []  # (thread, round)

            def party(i):
                for round_number in range(rounds):
                    sleep(delays[(i + round_number) % len(delays)])
                    barrier.wait()
                    log.append((i, round_number))

            threads = [spawn(party, i) for i in range(parties)]
            for t in threads:
                t.join()
            return log

        log = env.run(main)
    assert len(log) == parties * rounds
    # Generations appear in non-decreasing blocks of exactly `parties`.
    round_sequence = [r for _i, r in log]
    assert round_sequence == sorted(round_sequence)
    for round_number in range(rounds):
        block = [i for i, r in log if r == round_number]
        assert sorted(block) == list(range(parties))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 9999),
    permits=st.integers(1, 4),
    workers=st.integers(2, 8),
    hold=st.floats(0.01, 0.5),
)
def test_semaphore_never_exceeds_permits(seed, permits, workers, hold):
    with CrucialEnvironment(seed=seed, dso_nodes=1) as env:
        def main():
            semaphore = Semaphore("prop-sem", permits)
            active = [0]
            peak = [0]

            def worker():
                with semaphore:
                    active[0] += 1
                    peak[0] = max(peak[0], active[0])
                    sleep(hold)
                    active[0] -= 1

            threads = [spawn(worker) for _ in range(workers)]
            for t in threads:
                t.join()
            return peak[0], semaphore.available_permits()

        peak, permits_after = env.run(main)
    assert peak <= permits
    assert permits_after == permits


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(1, 10))
def test_latch_exactly_n_countdowns_release(seed, n):
    from repro import CountDownLatch

    with CrucialEnvironment(seed=seed, dso_nodes=1) as env:
        def main():
            latch = CountDownLatch("prop-latch", n)
            released = []

            def waiter():
                latch.wait()
                released.append(env.now)

            thread = spawn(waiter)
            for i in range(n - 1):
                latch.count_down()
            sleep(1.0)
            premature = bool(released)
            latch.count_down()
            thread.join()
            return premature, len(released)

        premature, count = env.run(main)
    assert premature is False
    assert count == 1


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 9999),
       values=st.lists(st.integers(-100, 100), min_size=1, max_size=8))
def test_future_single_assignment(seed, values):
    """Exactly one producer wins; every consumer sees its value."""
    from repro import Future

    with CrucialEnvironment(seed=seed, dso_nodes=1) as env:
        def main():
            future = Future("prop-future")
            wins = []

            def producer(v):
                try:
                    future.set(v)
                    wins.append(v)
                except ValueError:
                    pass

            producers = [spawn(producer, v) for v in values]
            consumers = [spawn(future.get) for _ in range(3)]
            for t in producers + consumers:
                t.join()
            return wins, [c.result() for c in consumers]

        wins, seen = env.run(main)
    assert len(wins) == 1
    assert all(v == wins[0] for v in seen)
