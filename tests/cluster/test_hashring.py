"""Unit and property-based tests for consistent hashing."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ConsistentHashRing

MEMBERS = ["node-0", "node-1", "node-2", "node-3", "node-4"]


def test_empty_ring_lookup_fails():
    ring = ConsistentHashRing()
    with pytest.raises(LookupError):
        ring.lookup("k")


def test_lookup_is_deterministic():
    ring_a = ConsistentHashRing(MEMBERS)
    ring_b = ConsistentHashRing(MEMBERS)
    for i in range(100):
        assert ring_a.lookup(f"key-{i}") == ring_b.lookup(f"key-{i}")


def test_lookup_returns_member():
    ring = ConsistentHashRing(MEMBERS)
    for i in range(100):
        assert ring.lookup(("T", f"key-{i}")) in MEMBERS


def test_balance():
    ring = ConsistentHashRing(MEMBERS, virtual_nodes=256)
    counts = Counter(ring.lookup(f"key-{i}") for i in range(10_000))
    expected = 10_000 / len(MEMBERS)
    for member in MEMBERS:
        assert counts[member] == pytest.approx(expected, rel=0.35)


def test_duplicate_member_rejected():
    ring = ConsistentHashRing(["a"])
    with pytest.raises(ValueError):
        ring.add("a")


def test_preference_list_distinct_and_ordered():
    ring = ConsistentHashRing(MEMBERS)
    for i in range(200):
        owners = ring.preference_list(f"key-{i}", 3)
        assert len(owners) == 3
        assert len(set(owners)) == 3
        assert owners[0] == ring.lookup(f"key-{i}")


def test_preference_list_caps_at_membership():
    ring = ConsistentHashRing(["a", "b"])
    assert len(ring.preference_list("k", 5)) == 2


def test_invalid_virtual_nodes():
    with pytest.raises(ValueError):
        ConsistentHashRing(virtual_nodes=0)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.sampled_from(MEMBERS), min_size=2, max_size=5),
       st.sampled_from(MEMBERS))
def test_monotonicity_on_removal(members, to_remove):
    """The ring rebuilt without one member (what the DSO's placement
    does on every view change) only moves keys that member owned."""
    members = set(members) | {to_remove}
    before = ConsistentHashRing(sorted(members))
    after = ConsistentHashRing(sorted(members - {to_remove}))
    for key in (f"key-{i}" for i in range(300)):
        owner_before, owner_after = before.lookup(key), after.lookup(key)
        if owner_before != to_remove:
            assert owner_after == owner_before
        else:
            assert owner_after != to_remove


@settings(max_examples=25, deadline=None)
@given(st.sets(st.sampled_from(MEMBERS[:4]), min_size=1, max_size=4))
def test_monotonicity_on_addition(members):
    """Adding a member only moves keys *to* the new member."""
    ring = ConsistentHashRing(sorted(members))
    keys = [f"key-{i}" for i in range(300)]
    owners_before = {k: ring.lookup(k) for k in keys}
    ring.add("node-new")
    for key in keys:
        owner_after = ring.lookup(key)
        assert owner_after in (owners_before[key], "node-new")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.text(min_size=1, max_size=20))
def test_preference_list_prefix_stability(rf, key):
    """preference_list(k, n) is a prefix of preference_list(k, n+1)."""
    ring = ConsistentHashRing(MEMBERS)
    shorter = ring.preference_list(key, rf)
    longer = ring.preference_list(key, rf + 1)
    assert tuple(longer[:len(shorter)]) == tuple(shorter)
