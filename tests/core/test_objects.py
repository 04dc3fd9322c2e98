"""Unit tests for the built-in shared-object library."""

import pytest

from repro import (
    AtomicBoolean,
    AtomicByteArray,
    AtomicInt,
    AtomicLong,
    AtomicReference,
    CrucialEnvironment,
    SharedList,
    SharedMap,
)
from repro.simulation.thread import sleep, spawn


@pytest.fixture
def env():
    with CrucialEnvironment(seed=43, dso_nodes=2) as environment:
        yield environment


def test_atomic_long_basics(env):
    def main():
        counter = AtomicLong("c", 10)
        assert counter.get() == 10
        assert counter.add_and_get(5) == 15
        assert counter.get_and_add(5) == 15
        assert counter.increment_and_get() == 21
        assert counter.decrement_and_get() == 20
        counter.set(0)
        return counter.get()

    assert env.run(main) == 0


def test_atomic_long_compare_and_set(env):
    def main():
        counter = AtomicLong("cas", 1)
        assert counter.compare_and_set(1, 2) is True
        assert counter.compare_and_set(1, 3) is False
        return counter.get()

    assert env.run(main) == 2


def test_atomic_int_initial_value(env):
    def main():
        return AtomicInt("i", 7).get()

    assert env.run(main) == 7


def test_atomic_boolean(env):
    def main():
        flag = AtomicBoolean("b", False)
        assert flag.get() is False
        assert flag.compare_and_set(False, True) is True
        assert flag.compare_and_set(False, True) is False
        return flag.get()

    assert env.run(main) is True


def test_atomic_reference(env):
    def main():
        reference = AtomicReference("r", None)
        assert reference.get() is None
        old = reference.get_and_set({"model": [1, 2]})
        assert old is None
        assert reference.compare_and_set(None, {}) is False
        # Compared by value: the argument arrives as a copy.
        assert reference.compare_and_set({"model": [1, 2]}, {"model": [3]})
        return reference.get()

    assert env.run(main) == {"model": [3]}


def test_atomic_byte_array(env):
    def main():
        array = AtomicByteArray("bytes", 4)
        assert array.length() == 4
        array.set(2, 255)
        assert array.get(2) == 255
        array.fill(7)
        return array.to_bytes()

    assert env.run(main) == bytes([7, 7, 7, 7])


def test_shared_list(env):
    def main():
        items = SharedList("list")
        items.append("a")
        items.extend(["b", "c"])
        items.set(0, "A")
        assert items.get(1) == "b"
        assert items.size() == 3
        all_items = items.get_all()
        items.clear()
        return all_items, items.size()

    all_items, size = env.run(main)
    assert all_items == ["A", "b", "c"]
    assert size == 0


def test_shared_map(env):
    def main():
        table = SharedMap("map")
        assert table.put("k", 1) is None
        assert table.put("k", 2) == 1
        assert table.get("k") == 2
        assert table.put_if_absent("k", 9) == 2
        assert table.put_if_absent("j", 9) is None
        assert table.contains_key("j") is True
        assert sorted(table.keys()) == ["j", "k"]
        assert sorted(table.entries()) == [("j", 9), ("k", 2)]
        assert table.remove("j") == 9
        return table.size()

    assert env.run(main) == 1


def test_shared_map_merge_aggregates_in_store(env):
    def main():
        table = SharedMap("agg")
        for delta in (1.5, 2.5, 3.0):
            table.merge("gradient", delta)
        # A combiner replaces the addition.
        assert [table.merge("best", score, max) for score in (2, 5, 3)] \
            == [2, 5, 5]
        return table.get("gradient")

    assert env.run(main) == 7.0


def test_same_key_same_object_across_proxies(env):
    def main():
        AtomicLong("shared-key").add_and_get(4)
        return AtomicLong("shared-key").get()

    assert env.run(main) == 4


def test_different_types_same_key_are_distinct(env):
    def main():
        AtomicLong("name").set(1)
        SharedList("name").append("x")
        return AtomicLong("name").get(), SharedList("name").size()

    assert env.run(main) == (1, 1)


def test_concurrent_adds_lose_nothing(env):
    def main():
        def worker():
            counter = AtomicLong("hot")
            for _ in range(20):
                counter.add_and_get(1)

        threads = [spawn(worker) for _ in range(10)]
        for t in threads:
            t.join()
        return AtomicLong("hot").get()

    assert env.run(main) == 200


def test_persistent_object_replicated(env):
    def main():
        counter = AtomicLong("durable", 0, persistent=True)
        counter.add_and_get(9)
        return counter.ref.rf, counter.get()

    rf, value = env.run(main)
    assert rf == 2
    assert value == 9


def test_list_extend_with_one_pass_iterables_survives_failover(env):
    """Generators and dict views do not pickle, and a ``map`` the
    primary consumed is empty when replayed on a backup: the proxy
    ships a list, so the backup holds every item."""
    def main():
        items = SharedList("replicated", persistent=True)
        items.extend(map(str, range(3)))
        items.extend(n * n for n in range(3))
        items.extend({"k": 1}.keys())
        primary = env.dso.placement_of(items.ref)[0]
        env.dso.crash_node(primary)
        sleep(5.0)
        return items.ref.rf, items.get_all()

    rf, values = env.run(main)
    assert rf == 2
    assert values == ["0", "1", "2", 0, 1, 4, "k"]


def test_explicit_delete(env):
    from repro.errors import NoSuchObjectError

    def main():
        counter = AtomicLong("temp")
        counter.add_and_get(1)
        counter.delete()
        with pytest.raises(NoSuchObjectError):
            counter.delete()

    env.run(main)
