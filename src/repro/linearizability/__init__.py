"""Linearizability checking (Wing & Gong) for shared-object histories.

The paper claims its shared objects are linearizable: "concurrent
method invocations behave as if they were executed by a single thread"
(Section 3.1).  This package records concurrent histories of proxy
calls and verifies them against a sequential specification — for a
shared object, its own server class.  The test suite uses it as a
property check on the DSO layer.
"""

from repro.linearizability.history import HistoryRecorder, Operation
from repro.linearizability.checker import LinearizabilityChecker
from repro.linearizability.atomicity import (
    AtomicityViolation,
    TxnCommitRecord,
    TxnReadRecord,
    final_state_violations,
    find_fractured_reads,
)
from repro.linearizability.znode import ZnodeModel
from repro.linearizability.watches import (
    WatchViolation,
    find_watch_violations,
    watch_order_invariant,
)

__all__ = ["HistoryRecorder", "Operation", "LinearizabilityChecker",
           "AtomicityViolation", "TxnCommitRecord", "TxnReadRecord",
           "find_fractured_reads", "final_state_violations",
           "ZnodeModel", "WatchViolation",
           "find_watch_violations", "watch_order_invariant"]
