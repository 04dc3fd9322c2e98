"""The built-in shared-object library (Table 1).

Each entry is written once, as a *server class* (the state machine
living on DSO nodes); its *proxy class* (the client stub) names that
class and derives one remote method per public method from it.  All
objects are wait-free and linearizable: every invocation completes in
a bounded number of steps at its primary replica, under the
per-object lock.

Side-effect-free methods carry the :func:`~repro.dso.cache.readonly`
marker, making them eligible for the lease-based client cache when a
layer enables it (``read_cache=True``); mutating methods never carry
it, so they revoke outstanding leases before acknowledging.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.proxy import DsoProxy
from repro.dso.cache import readonly

# ---------------------------------------------------------------------------
# Server-side state machines
# ---------------------------------------------------------------------------


class _AtomicReference:
    """Shared scalar with read-modify-write primitives."""

    def __init__(self, value: Any = None):
        self.value = value

    @readonly
    def get(self) -> Any:
        return self.value

    def set(self, value: Any) -> None:
        self.value = value

    def get_and_set(self, value: Any) -> Any:
        previous = self.value
        self.value = value
        return previous

    def compare_and_set(self, expected: Any, update: Any) -> bool:
        if self.value == expected:
            self.value = update
            return True
        return False


class _AtomicNumber(_AtomicReference):
    def __init__(self, value: int = 0):
        super().__init__(int(value))

    def add_and_get(self, delta) -> Any:
        self.value += delta
        return self.value

    def get_and_add(self, delta) -> Any:
        previous = self.value
        self.value += delta
        return previous


class _AtomicInt(_AtomicNumber):
    pass


class _AtomicLong(_AtomicNumber):
    pass


class _AtomicBoolean:
    def __init__(self, value: bool = False):
        self.value = bool(value)

    @readonly
    def get(self) -> bool:
        return self.value

    def set(self, value: bool) -> None:
        self.value = bool(value)

    def compare_and_set(self, expected: bool, update: bool) -> bool:
        if self.value == bool(expected):
            self.value = bool(update)
            return True
        return False


class _AtomicByteArray:
    def __init__(self, size: int):
        self.data = bytearray(size)

    @readonly
    def get(self, index: int) -> int:
        return self.data[index]

    def set(self, index: int, value: int) -> None:
        self.data[index] = value

    @readonly
    def length(self) -> int:
        return len(self.data)

    @readonly
    def to_bytes(self) -> bytes:
        return bytes(self.data)

    def fill(self, value: int) -> None:
        for i in range(len(self.data)):
            self.data[i] = value


class _SharedList:
    def __init__(self, items: Iterable[Any] = ()):
        self.items = list(items)

    def append(self, item: Any) -> None:
        self.items.append(item)

    def extend(self, items: Iterable[Any]) -> None:
        self.items.extend(items)

    @readonly
    def get(self, index: int) -> Any:
        return self.items[index]

    def set(self, index: int, item: Any) -> None:
        self.items[index] = item

    @readonly
    def get_all(self) -> list[Any]:
        return list(self.items)

    @readonly
    def size(self) -> int:
        return len(self.items)

    def clear(self) -> None:
        self.items.clear()


class _SharedMap:
    def __init__(self, items: dict | None = None):
        self.items = dict(items or {})

    def put(self, key: Any, value: Any) -> Any:
        previous = self.items.get(key)
        self.items[key] = value
        return previous

    @readonly
    def get(self, key: Any, default: Any = None) -> Any:
        return self.items.get(key, default)

    def put_if_absent(self, key: Any, value: Any) -> Any:
        if key not in self.items:
            self.items[key] = value
            return None
        return self.items[key]

    def remove(self, key: Any) -> Any:
        return self.items.pop(key, None)

    @readonly
    def contains_key(self, key: Any) -> bool:
        return key in self.items

    @readonly
    def keys(self) -> list[Any]:
        return list(self.items.keys())

    @readonly
    def entries(self) -> list[tuple[Any, Any]]:
        return list(self.items.items())

    @readonly
    def size(self) -> int:
        return len(self.items)

    def merge(self, key: Any, value: Any,
              fn: Callable[[Any, Any], Any] | None = None) -> Any:
        """In-store aggregate: combine ``value`` into ``key``'s entry.

        With no combiner, numeric addition is used — the fine-grained
        "aggregate small granules of updates" pattern of Section 4.2.
        """
        if key not in self.items:
            self.items[key] = value
        elif fn is not None:
            self.items[key] = fn(self.items[key], value)
        else:
            self.items[key] = self.items[key] + value
        return self.items[key]


# ---------------------------------------------------------------------------
# Client proxies: only calls that are not a same-named pass-through
# ---------------------------------------------------------------------------


class _Counter(DsoProxy):
    def increment_and_get(self):
        return self._invoke("add_and_get", 1)

    def decrement_and_get(self):
        return self._invoke("add_and_get", -1)


class AtomicInt(_Counter):
    """A linearizable shared integer."""

    _server_cls = _AtomicInt


class AtomicLong(_Counter):
    """A linearizable shared long (Listing 1's counter)."""

    _server_cls = _AtomicLong


class AtomicBoolean(DsoProxy):
    """A linearizable shared boolean flag."""

    _server_cls = _AtomicBoolean


class AtomicReference(DsoProxy):
    """A linearizable shared reference to any picklable value."""

    _server_cls = _AtomicReference


class AtomicByteArray(DsoProxy):
    """A linearizable shared byte array with per-cell access."""

    _server_cls = _AtomicByteArray


class SharedList(DsoProxy):
    """A linearizable shared list."""

    _server_cls = _SharedList

    def extend(self, items: Iterable[Any]) -> None:
        # A list: a generator does not pickle, and an iterator the
        # primary used up would reach every backup empty.
        self._invoke("extend", list(items))


class SharedMap(DsoProxy):
    """A linearizable shared map with in-store merge."""

    _server_cls = _SharedMap
