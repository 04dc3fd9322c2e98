"""Mutation-test hooks: planted bugs the exploration hunters must catch.

Each mutation switches off one safety mechanism so that a hunter in
``tests/explore/`` can prove it detects the resulting violation within
a bounded trial budget.  The registry is in-process state toggled only
through :func:`mutation`; nothing outside tests ever plants one, and
the guarded code paths pay a single set lookup.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

#: What each mutation breaks, and the hunter that must notice.
MUTATIONS = {
    "no-backup-dedup": "backups skip the session lookup during replication, "
                       "so a re-replicated op double-applies at backups "
                       "that already executed it (test_mutation_smoke)",
    "no-commit-fence": "a txn commit whose prepared entry died in a "
                       "failover acks without installing anything instead "
                       "of raising TxnPrepareLostError (test_txn_hunter)",
    "no-watch-fence": "keeper sessions release watch events in arrival "
                      "order, so SQS delivery reordering becomes "
                      "client-visible (test_keeper_hunter)",
    "no-own-barrier": "a synchronous verb skips draining the calling "
                      "thread's own async queue, so it overtakes ops the "
                      "thread submitted before it (test_pipeline_hunter)",
    "ack-max": "a session's acknowledgement watermark is the highest "
               "answered seq instead of the contiguous one, so a later "
               "stamp prunes the reply an in-flight retransmission "
               "needs and it re-executes (test_pipeline_hunter)",
}

#: Mutations currently planted; empty outside mutation tests.
PLANTED: set[str] = set()


@contextmanager
def mutation(name: str) -> Iterator[None]:
    """Plant ``name`` for the duration of the block."""
    if name not in MUTATIONS:
        raise ValueError(f"unknown mutation {name!r}")
    PLANTED.add(name)
    try:
        yield
    finally:
        PLANTED.discard(name)
