"""Literal virtual timelines and bills of the priced stores.

One fixed script — three PUT sizes, a GET, a missed GET, LIST, HEAD
inside and after the visibility lag, an overwrite, DELETE, ``seed`` and
``settle`` — run on the S3 store, the gp3 store and the grid / Redis
adapters with a fixed kernel seed.  ``kernel.now`` after every step,
the request counters, the dollars and the bytes at rest are literals
(the style of ``tests/dso/test_hot_path.py``), so a change meant to
keep the stores' behaviour can show that it did.
"""

from dataclasses import astuple

import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import NoSuchKeyError
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.simulation.thread import sleep
from repro.storage import BlockStore, DataGrid, ObjectStore, RedisCluster

LAG = DEFAULT_CONFIG.storage.s3_visibility_lag


def _make(label, kernel):
    if label == "s3":
        return ObjectStore(kernel)
    if label == "gp3":
        return BlockStore(kernel)
    network = Network(kernel, LatencyModel(0.0001))
    if label == "grid":
        return DataGrid(kernel, network, nodes=2).backend()
    return RedisCluster(kernel, network, shards=2).backend()


def _script(label, traced=False):
    with Kernel(seed=17) as kernel:
        if traced:
            kernel.enable_tracing()
        store = _make(label, kernel)
        steps = []

        def step(result=None):
            steps.append((kernel.now, result))

        def main():
            store.put("p/small", b"x" * 10)
            step()
            store.put("p/kb", b"y" * 1024)
            step()
            store.put("p/nominal", b"z", nbytes=5_000_000)
            step()
            step(store.exists("p/nominal"))  # S3: inside the lag
            step(tuple(store.list_prefix("p/")))
            step(store.get("p/kb") == b"y" * 1024)
            with pytest.raises(NoSuchKeyError):
                store.get("p/missing")
            step()
            sleep(LAG)
            step(store.exists("p/nominal"))
            step(tuple(store.list_prefix("p/")))
            store.put("p/kb", b"w" * 2048)  # overwrite
            step(store.stored_bytes())
            store.delete("p/small")
            step(store.stored_bytes())
            store.seed("q/seeded", b"s" * 100, nbytes=1_000_000_000)
            store.seed("q/sized", {"n": 1})
            step(store.size())
            sleep(3600.0)
            step(tuple(store.list_prefix("q/")))

        kernel.run_main(main)
        store.settle()
        bill = store.ledger.bills[store.name]
        spans = [(span.name, span.kind, span.endpoint, span.attributes,
                  span.status) for span in kernel.tracer.spans]
        return (steps, astuple(store.stats), store.stored_bytes(),
                (bill.requests, bill.request_dollars, bill.byte_seconds,
                 bill.storage_dollars),
                store.ledger.total_dollars), spans


#: Per store: (kernel.now, result) after each step; BackendStats as a
#: tuple (puts, gets, deletes, lists, heads, bytes_written, bytes_read,
#: request_dollars); stored_bytes(); the store's BackendBill (requests,
#: request dollars, byte-seconds, storage dollars); ledger.total_dollars.
#: Captured before the stores were moved onto one metered core.  One
#: event was re-captured: the adapters used not to count the missed GET
#: (``gets`` 1 -> 2, the bill's requests 11 -> 12; memory-tier requests
#: are free, so no dollar moved).
PINS = {
    "s3": ([(0.029987537160658585, None),
          (0.06813120631846309, None),
          (0.1494834919151607, None),
          (0.16617228792060343, False),
          (0.19060188202799988, ('p/kb', 'p/small')),
          (0.21799813583012753, True),
          (0.2350808255308861, None),
          (0.33606572304845506, True),
          (0.3491322929653679, ('p/kb', 'p/nominal', 'p/small')),
          (0.38432980375144626, 5002091),
          (0.4128282927435188, 5002066),
          (0.4128282927435188, 4),
          (3600.456171575075, ('q/seeded', 'q/sized'))],
         (4, 2, 1, 3, 2, 5003133, 1042, 2.7799999999999998e-05),
         1005002087,
         (12,
          2.7799999999999998e-05,
          3618052390411.133,
          3.166484207741859e-05),
         5.946484207741859e-05),
    "gp3": ([(0.0017001658974231941, None),
          (0.0033099460337264906, None),
          (0.04488853437269147, None),
          (0.04633250091081626, True),
          (0.04762847339538501, ('p/kb', 'p/nominal', 'p/small')),
          (0.04910708804010999, True),
          (0.05033560946541576, None),
          (0.1316897680554583, True),
          (0.13313553246825927, ('p/kb', 'p/nominal', 'p/small')),
          (0.13465790640551442, 5002091),
          (0.13648574702584473, 5002066),
          (0.13648574702584473, 4),
          (3600.138007923641, ('q/seeded', 'q/sized'))],
         (4, 2, 1, 3, 2, 5003133, 1042, 0.0),
         1005002087,
         (12, 0.0, 3618009501120.749, 0.0001115139914728998),
         0.0001115139914728998),
    "grid": ([(0.00022651062324038863, None),
          (0.0004535917542100903, None),
          (0.0006730174141137431, None),
          (0.0008804024795156317, True),
          (0.0012899074078579506, ('p/kb', 'p/nominal', 'p/small')),
          (0.0014895073690317753, True),
          (0.0016925197381354314, None),
          (0.0819059463347376, True),
          (0.08230469338773964, ('p/kb', 'p/nominal', 'p/small')),
          (0.08252856451286336, 5002091),
          (0.08276307997648708, 5002066),
          (0.08276307997648708, 4),
          (3600.0831876363177, ('q/seeded', 'q/sized'))],
         (4, 2, 1, 3, 2, 5003133, 1042, 0.0),
         1005002087,
         (12, 0.0, 3618008350418.392, 0.007916114160923042),
         0.007916114160923042),
    "redis": ([(0.00023035826889776083, None),
          (0.0004612595962977661, None),
          (0.0006838249888584509, None),
          (0.0009132460608005285, True),
          (0.0013662933153104125, ('p/kb', 'p/nominal', 'p/small')),
          (0.0015870646892682866, True),
          (0.0018116701286156414, None),
          (0.08204773688487803, True),
          (0.08248895047651363, ('p/kb', 'p/nominal', 'p/small')),
          (0.0827162354641497, 5002091),
          (0.08295540014080245, 5002066),
          (0.08295540014080245, 4),
          (3600.083425005449, ('q/seeded', 'q/sized'))],
         (4, 2, 1, 3, 2, 5003133, 1042, 0.0),
         1005002087,
         (12, 0.0, 3618008396600.4624, 0.007916114261968287),
         0.007916114261968287),
}


@pytest.mark.parametrize("label", ["s3", "gp3", "grid", "redis"])
def test_store_timeline_and_bill_are_pinned(label):
    assert _script(label) == (PINS[label], [])


#: What each request records under an enabled tracer: verb, attributes,
#: status ("<store>.<verb>", kind "client", endpoint = the store).
SPANS = [
    ("put", {"key": "p/small", "bytes": 25}, "ok"),
    ("put", {"key": "p/kb", "bytes": 1042}, "ok"),
    ("put", {"key": "p/nominal", "bytes": 5_000_000}, "ok"),
    ("head", {"key": "p/nominal"}, "ok"),
    ("list", {"prefix": "p/"}, "ok"),
    ("get", {"key": "p/kb", "bytes": 1042}, "ok"),
    ("get", {"key": "p/missing", "bytes": 0}, "error"),
    ("head", {"key": "p/nominal"}, "ok"),
    ("list", {"prefix": "p/"}, "ok"),
    ("put", {"key": "p/kb", "bytes": 2066}, "ok"),
    ("delete", {"key": "p/small"}, "ok"),
    ("list", {"prefix": "q/"}, "ok"),
]


@pytest.mark.parametrize("label", ["s3", "gp3"])
def test_traced_requests_keep_their_span_names_and_attributes(label):
    pinned, spans = _script(label, traced=True)
    # Tracing only observes: the timeline and the bill are the untraced ones.
    assert pinned == PINS[label]
    assert spans == [(f"{label}.{verb}", "client", label, attributes, status)
                     for verb, attributes, status in SPANS]
