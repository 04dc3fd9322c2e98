"""The library's wire: what each Table 1 proxy call ships.

Proxy methods are derived from the server classes, so this table is
the one place the ``(method, args, kwargs)`` of every public call is
written down.  A call ships its arguments exactly as the caller passed
them; the rows marked "As passed" changed shape when the hand-written
proxies, which filled in defaults, went away.
"""

import inspect
import types

import pytest

from repro import (
    AtomicBoolean,
    AtomicByteArray,
    AtomicInt,
    AtomicLong,
    AtomicReference,
    CountDownLatch,
    CyclicBarrier,
    Future,
    Semaphore,
    SharedList,
    SharedMap,
)
from repro.core import proxy as proxy_module
from repro.core.proxy import DsoProxy
from repro.core.shared import dso_costs, shared
from repro.dso.server import ServerObject

TABLE1 = (AtomicInt, AtomicLong, AtomicBoolean, AtomicReference,
          AtomicByteArray, SharedList, SharedMap, CyclicBarrier, Semaphore,
          Future, CountDownLatch)

_COUNTER = {
    "get": ((), ("get", (), {})),
    "set": ((5,), ("set", (5,), {})),
    "get_and_set": ((5,), ("get_and_set", (5,), {})),
    "compare_and_set": ((1, 2), ("compare_and_set", (1, 2), {})),
    "add_and_get": ((3,), ("add_and_get", (3,), {})),
    "get_and_add": ((3,), ("get_and_add", (3,), {})),
    "increment_and_get": ((), ("add_and_get", (1,), {})),
    "decrement_and_get": ((), ("add_and_get", (-1,), {})),
}

#: proxy class -> method -> (call args, shipped (method, args, kwargs)).
WIRE = {
    AtomicInt: _COUNTER,
    AtomicLong: _COUNTER,
    AtomicBoolean: {
        "get": ((), ("get", (), {})),
        "set": ((True,), ("set", (True,), {})),
        "compare_and_set": ((False, True),
                            ("compare_and_set", (False, True), {})),
    },
    AtomicReference: {
        "get": ((), ("get", (), {})),
        "set": (("v",), ("set", ("v",), {})),
        "get_and_set": (("v",), ("get_and_set", ("v",), {})),
        "compare_and_set": ((None, "v"),
                            ("compare_and_set", (None, "v"), {})),
    },
    AtomicByteArray: {
        "get": ((2,), ("get", (2,), {})),
        "set": ((2, 7), ("set", (2, 7), {})),
        "length": ((), ("length", (), {})),
        "to_bytes": ((), ("to_bytes", (), {})),
        "fill": ((1,), ("fill", (1,), {})),
    },
    SharedList: {
        "append": (("x",), ("append", ("x",), {})),
        # Written by hand: ships list(items), so a one-pass iterator
        # reaches every replica.
        "extend": (((1, 2),), ("extend", ([1, 2],), {})),
        "get": ((0,), ("get", (0,), {})),
        "set": ((0, "y"), ("set", (0, "y"), {})),
        "get_all": ((), ("get_all", (), {})),
        "size": ((), ("size", (), {})),
        "clear": ((), ("clear", (), {})),
    },
    SharedMap: {
        "put": (("k", 1), ("put", ("k", 1), {})),
        # As passed: no default filled in, where it shipped ("k", None).
        "get": (("k",), ("get", ("k",), {})),
        "put_if_absent": (("k", 1), ("put_if_absent", ("k", 1), {})),
        "remove": (("k",), ("remove", ("k",), {})),
        "contains_key": (("k",), ("contains_key", ("k",), {})),
        "keys": ((), ("keys", (), {})),
        "entries": ((), ("entries", (), {})),
        "size": ((), ("size", (), {})),
        # As passed: no combiner filled in, where it shipped fn=None.
        "merge": (("k", 2), ("merge", ("k", 2), {})),
    },
    CyclicBarrier: {
        "wait": ((), ("await_", (), {})),
        "await_": ((), ("await_", (), {})),
        "reset": ((), ("reset", (), {})),
        "get_parties": ((), ("get_parties", (), {})),
        "get_number_waiting": ((), ("get_number_waiting", (), {})),
    },
    Semaphore: {
        # As passed: acquire/try_acquire/release with no argument
        # ship no permits, where they shipped (1,).
        "acquire": ((), ("acquire", (), {})),
        "try_acquire": ((), ("try_acquire", (), {})),
        "release": ((), ("release", (), {})),
        "available_permits": ((), ("available_permits", (), {})),
    },
    Future: {
        "set": ((4,), ("set", (4,), {})),
        "get": ((), ("get", (), {})),
        "cancel": ((), ("cancel", (), {})),
        "is_done": ((), ("is_done", (), {})),
    },
    CountDownLatch: {
        "count_down": ((), ("count_down", (), {})),
        "wait": ((), ("await_", (), {})),
        "await_": ((), ("await_", (), {})),
        "get_count": ((), ("get_count", (), {})),
    },
}

CTOR_ARGS = {CyclicBarrier: (3,), Semaphore: (2,), CountDownLatch: (2,),
             AtomicByteArray: (4,)}


class Shipped(list):
    """Each call's ``(method, args, kwargs)``; its cost in ``costs``."""

    def __init__(self):
        super().__init__()
        self.costs = []


@pytest.fixture
def shipped(monkeypatch):
    """Record what each proxy call hands to ``env.dso.invoke``."""
    calls = Shipped()

    def invoke(client, ref, method, args, kwargs, ctor, cost):
        calls.append((method, args, kwargs))
        calls.costs.append(cost)

    env = types.SimpleNamespace(dso=types.SimpleNamespace(invoke=invoke))
    monkeypatch.setattr(proxy_module, "current_environment", lambda: env)
    monkeypatch.setattr(proxy_module, "current_location", lambda: "client")
    return calls


def _public(cls):
    return {name for name in dir(cls) if not name.startswith("_")
            and callable(getattr(cls, name)) and not hasattr(DsoProxy, name)}


def test_table_covers_every_public_method():
    assert set(WIRE) == set(TABLE1)
    for cls in TABLE1:
        assert set(WIRE[cls]) == _public(cls), cls.__name__


@pytest.mark.parametrize("cls, name", [
    (cls, name) for cls in TABLE1 for name in WIRE[cls]],
    ids=lambda value: getattr(value, "__name__", value))
def test_call_ships_its_arguments_as_passed(shipped, cls, name):
    args, expected = WIRE[cls][name]
    proxy = cls("wire", *CTOR_ARGS.get(cls, ()))
    getattr(proxy, name)(*args)
    assert shipped == [expected]


@pytest.mark.parametrize("cls", TABLE1, ids=lambda cls: cls.__name__)
def test_every_public_server_method_is_a_proxy_class_attribute(cls):
    """And each is signed as its server method: a proxy call takes
    what the method takes, nothing the host fills in."""
    server = cls._server_cls
    methods = {name for name in dir(server) if not name.startswith("_")
               and callable(getattr(server, name))
               and not hasattr(ServerObject, name)}
    assert methods
    assert [name for name in methods if not hasattr(cls, name)] == []
    assert {name: inspect.signature(getattr(cls, name)) for name in methods} \
        == {name: inspect.signature(getattr(server, name))
            for name in methods}


def test_semaphore_with_block_ships_acquire_then_release(shipped):
    with Semaphore("wire", 1):
        pass
    assert shipped == [("acquire", (), {}), ("release", (), {})]


@dso_costs(charge=lambda cost=0, method=None: 0.5)
class Till:
    def charge(self, cost=0, method=None):
        return cost


def test_user_kwargs_named_like_the_transports_ship_untouched(shipped):
    """``cost`` and ``method`` are the server method's own parameters
    here; the modelled cost still comes from ``__dso_costs__``."""
    shared(Till, "till").charge(cost=4, method="card")
    assert shipped == [("charge", (), {"cost": 4, "method": "card"})]
    assert shipped.costs == [0.5]
