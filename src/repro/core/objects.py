"""The built-in shared-object library (Table 1).

Each entry pairs a *server class* (the state machine living on DSO
nodes) with a *proxy class* (the typed client stub).  All objects are
wait-free and linearizable: every invocation completes in a bounded
number of steps at its primary replica, under the per-object lock.

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


class _AtomicValue:
    """Shared scalar with read-modify-write primitives."""

    def __init__(self, value: Any = 0):
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

    def add_and_get(self, delta) -> Any:
        self.value += delta
        return self.value

    def get_and_add(self, delta) -> Any:
        previous = self.value
        self.value += delta
        return previous


class _AtomicInt(_AtomicValue):
    def __init__(self, value: int = 0):
        super().__init__(int(value))


class _AtomicLong(_AtomicValue):
    def __init__(self, value: int = 0):
        super().__init__(int(value))


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


class _AtomicReference(_AtomicValue):
    def __init__(self, value: Any = None):
        super().__init__(value)


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
# Client proxies
# ---------------------------------------------------------------------------


class _ScalarProxy(DsoProxy):
    def get(self):
        return self._invoke("get")

    def set(self, value) -> None:
        self._invoke("set", value)

    def get_and_set(self, value):
        return self._invoke("get_and_set", value)

    def compare_and_set(self, expected, update) -> bool:
        return self._invoke("compare_and_set", expected, update)


class _NumericProxy(_ScalarProxy):
    def add_and_get(self, delta):
        return self._invoke("add_and_get", delta)

    def get_and_add(self, delta):
        return self._invoke("get_and_add", delta)

    def increment_and_get(self):
        return self._invoke("add_and_get", 1)

    def decrement_and_get(self):
        return self._invoke("add_and_get", -1)


class AtomicInt(_NumericProxy):
    """A linearizable shared integer."""

    _server_cls = _AtomicInt


class AtomicLong(_NumericProxy):
    """A linearizable shared long (Listing 1's counter)."""

    _server_cls = _AtomicLong


class AtomicBoolean(DsoProxy):
    """A linearizable shared boolean flag."""

    _server_cls = _AtomicBoolean

    def get(self) -> bool:
        return self._invoke("get")

    def set(self, value: bool) -> None:
        self._invoke("set", value)

    def compare_and_set(self, expected: bool, update: bool) -> bool:
        return self._invoke("compare_and_set", expected, update)


class AtomicReference(_ScalarProxy):
    """A linearizable shared reference to any picklable value."""

    _server_cls = _AtomicReference


class AtomicByteArray(DsoProxy):
    """A linearizable shared byte array with per-cell access."""

    _server_cls = _AtomicByteArray

    def get(self, index: int) -> int:
        return self._invoke("get", index)

    def set(self, index: int, value: int) -> None:
        self._invoke("set", index, value)

    def length(self) -> int:
        return self._invoke("length")

    def to_bytes(self) -> bytes:
        return self._invoke("to_bytes")

    def fill(self, value: int) -> None:
        self._invoke("fill", value)


class SharedList(DsoProxy):
    """A linearizable shared list."""

    _server_cls = _SharedList

    def append(self, item) -> None:
        self._invoke("append", item)

    def extend(self, items) -> None:
        self._invoke("extend", list(items))

    def get(self, index: int):
        return self._invoke("get", index)

    def set(self, index: int, item) -> None:
        self._invoke("set", index, item)

    def get_all(self) -> list:
        return self._invoke("get_all")

    def size(self) -> int:
        return self._invoke("size")

    def clear(self) -> None:
        self._invoke("clear")


class SharedMap(DsoProxy):
    """A linearizable shared map with in-store merge."""

    _server_cls = _SharedMap

    def put(self, key, value):
        return self._invoke("put", key, value)

    def get(self, key, default=None):
        return self._invoke("get", key, default)

    def put_if_absent(self, key, value):
        return self._invoke("put_if_absent", key, value)

    def remove(self, key):
        return self._invoke("remove", key)

    def contains_key(self, key) -> bool:
        return self._invoke("contains_key", key)

    def keys(self) -> list:
        return self._invoke("keys")

    def entries(self) -> list:
        return self._invoke("entries")

    def size(self) -> int:
        return self._invoke("size")

    def merge(self, key, value, fn=None):
        return self._invoke("merge", key, value, fn)
