"""The synchronous DSO round trip's wire and tracing discipline
(DESIGN.md "Wire discipline", "Tracing is free when off").

Three things are pinned here: the virtual timeline of a mixed script is
the same bytes with tracing off and on (literals, so a change meant to
keep the timeline can show that it did); a disabled tracer is never
*called* on the per-op path; and nothing mutable is shared between a
caller, the wire and the session table.
"""

import zlib

import pytest

from repro import AtomicLong, CrucialEnvironment, chrome_trace_json
from repro.dso import DsoLayer, DsoReference
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from repro.storage import BlockStore
from repro.trace.tracer import NULL_TRACER


def _mixed_script(trace_enabled):
    """get / put / rf=2 increment / 4-key txn / put_async, one client."""
    with CrucialEnvironment(seed=5, dso_nodes=3,
                            trace_enabled=trace_enabled) as env:
        log = []
        dso, client = env.dso, env.client_endpoint

        def timed(op, function, *args):
            start = env.now
            function(*args)
            log.append((op, start, env.now))

        def transact(sequence):
            with env.transaction() as txn:
                for j in range(4):
                    txn.write(f"t{j}", sequence)

        def pipelined():
            futures = [dso.put_async(client, f"a{i % 2}", [i])
                       for i in range(8)]
            dso.flush(client)
            for future in futures:
                future.result()

        def main():
            for i in range(6):
                timed("put", dso.put, client, f"k{i % 3}", {"i": i})
                timed("get", dso.get, client, f"k{i % 3}")
            counter = AtomicLong("p", persistent=True)
            for _ in range(3):
                timed("rf2", counter.add_and_get, 1)
            for sequence in range(2):
                timed("txn4", transact, sequence)
            timed("put_async", pipelined)
            timed("get", dso.get, client, "a1")

        env.run(main)
        tracer = env.kernel.tracer
        export = chrome_trace_json(tracer) if trace_enabled else ""
        return (len(log), zlib.crc32(repr(log).encode()), len(tracer.spans),
                zlib.crc32(export.encode()))


#: ops, crc of (op, virtual start, virtual end), spans, Chrome export crc.
#: Re-captured when flushes became scatter-gather: the txn4 and put_async
#: steps span two and three primaries, so they got shorter, draw their
#: latencies in another order and record ``dso.flush`` spans (the first
#: 15 ops and every op's result are as before: 1251481845 / 144 spans /
#: 3112914668 was the sequential-run timeline).  Re-captured again when
#: the async queue became per thread with a pump that retires when idle
#: (timeline and span count unchanged; Chrome crc was 1196378880): each
#: flush now runs on a freshly spawned pump, so the export has more
#: thread tracks, and a pump inherits the span of the submit that
#: spawned it — the second transaction's ``dso.flush`` spans now nest
#: under its own ``dso.txn_commit`` and the ``put_async`` flush is a
#: root, where the one long-lived pump had put all of them under the
#: first transaction's commit.
UNTRACED_PIN = (19, 671847497, 0, 0)
TRACED_PIN = (19, 671847497, 131, 200989954)


def test_mixed_script_timeline_is_pinned_with_tracing_off():
    assert _mixed_script(False) == UNTRACED_PIN


def test_mixed_script_timeline_and_trace_are_pinned_with_tracing_on():
    traced = _mixed_script(True)
    assert traced == TRACED_PIN
    # Tracing only observes: the timeline is the untraced one.
    assert traced[:2] == UNTRACED_PIN[:2]


def test_a_disabled_tracer_is_never_asked_for_a_span(monkeypatch):
    """Every span site on the per-op path tests ``tracer.enabled``
    before it builds a name, an attribute dict or a call."""
    with CrucialEnvironment(seed=2, dso_nodes=2, read_cache=True) as env:
        dso, client = env.dso, env.client_endpoint
        sqs = env.queue_service
        sqs.create_queue("q")
        stores = (env.object_store,
                  BlockStore(env.kernel, ledger=env.cost_ledger))

        def transact(sequence):
            with env.transaction() as txn:
                for j in range(4):
                    txn.write(f"t{j}", sequence)

        def script(round_no):
            dso.put(client, "k", [round_no])  # revokes the lease below
            counter = AtomicLong("p", persistent=True)
            counter.add_and_get(1)
            transact(round_no)  # two scattered flushes
            sqs.send("q", round_no)
            (message,) = sqs.receive("q", wait=10.0)
            sqs.delete("q", message.receipt)
            for store in stores:  # S3 and gp3: the five priced verbs
                store.put("blob", round_no)
                store.exists("blob")  # S3: still inside the listing lag
                assert store.get("blob") == round_no
                store.delete("blob")
                assert store.list_prefix("bl") == []
            return dso.get(client, "k"), counter.get()

        env.run(script, 0)  # warm: objects exist, links are made

        def no_span(*args, **kwargs):
            raise AssertionError(f"span built for a disabled tracer: {args}")

        monkeypatch.setattr(NULL_TRACER, "span", no_span)
        monkeypatch.setattr(NULL_TRACER, "start_span", no_span)
        assert env.run(script, 1) == ([1], 2)


class Roster:
    """A shared object whose method hands out its own mutable state."""

    def __init__(self):
        self.names = []

    def enrol(self, name):
        self.names.append(name)
        return self.names


def test_nothing_mutable_is_shared_with_the_session_table():
    with Kernel(seed=3) as kernel:
        network = Network(kernel, LatencyModel(0.0001))
        layer = DsoLayer(kernel, network)
        node = layer.add_node()
        ref = DsoReference("Roster", "r")
        argument = ["ada"]

        def main():
            return layer.invoke("client", ref, "enrol", args=(argument,),
                                ctor=(Roster, (), {}))

        reply = kernel.run_main(main)
        container = node.containers[ref.ident]
        state = container.instance.names
        (session,) = container.sessions._sessions.values()
        (entry,) = session.replies.values()
        assert reply == entry.reply == state == [["ada"]]
        # Three copies: the object's state, the remembered reply, the
        # caller's result; and the object holds a copy of the argument.
        assert entry.reply is not state and reply is not state
        assert reply is not entry.reply
        assert state[0] is not argument
        state.append("mutated later")
        argument.append("mutated later")
        assert entry.reply == reply == [["ada"]]


@pytest.mark.parametrize("scalar", [None, True, 7, 2.5, "text" * 20,
                                    b"bytes" * 20])
def test_immutable_scalars_need_no_copy(scalar):
    with Kernel(seed=3) as kernel:
        layer = DsoLayer(kernel, Network(kernel, LatencyModel(0.0001)))
        assert layer.shippable(scalar) is scalar
        assert layer.shippable([scalar]) == [scalar]
