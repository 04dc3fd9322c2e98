"""Shuffle: the all-to-all repartitioning behind keyed aggregation.

Section 1 discusses shuffling as the canonical pain point of
storage-mediated serverless analytics (Locus [42] exists to make it
scale).  The dedicated-cluster engine does it executor-to-executor:
every map partition hashes its records into R buckets, and every
reduce partition pulls its bucket from every map partition — P x R
transfers whose cost this module charges over the cluster links.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterable

from repro.net.network import payload_size
from repro.simulation.thread import spawn
from repro.sparklike.rdd import RDD


def _bucket_of(key: Any, buckets: int) -> int:
    digest = hashlib.blake2b(repr(key).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") % buckets


def shuffle(rdd: RDD, num_partitions: int | None = None) -> RDD:
    """Repartition an RDD of ``(key, value)`` records by key hash.

    Returns an RDD whose partition ``i`` holds every record with
    ``hash(key) % R == i``.  Charges: map-side partitioning work, then
    the P x R all-to-all block transfers between executors.
    """
    cluster = rdd.cluster
    if num_partitions is None:
        num_partitions = rdd.num_partitions

    # Map side: split each partition into R blocks (one task each).
    def split(partition: Iterable[tuple]) -> list[list[tuple]]:
        blocks: list[list[tuple]] = [[] for _ in range(num_partitions)]
        for key, value in partition:
            blocks[_bucket_of(key, num_partitions)].append((key, value))
        return blocks

    block_rdd = rdd.map_partitions(split)

    # Reduce side: every output partition fetches its block from every
    # map partition — the P x R transfer matrix.
    outputs: list[list[tuple]] = [[] for _ in range(num_partitions)]

    def fetch(reduce_id: int):
        target = cluster.executor_for(reduce_id)
        merged: list[tuple] = []
        for map_id, blocks in enumerate(block_rdd.partitions):
            block = blocks[reduce_id]
            source = cluster.executor_for(map_id)
            if source is not target:
                # Sized explicitly, not shipped: see Broadcast._distribute.
                cluster.network.transfer(source.name, target.name, None,
                                         nbytes=payload_size(block))
            merged.extend(block)
        outputs[reduce_id] = merged

    fetchers = [spawn(fetch, r, name=f"shuffle-fetch-{r}")
                for r in range(num_partitions)]
    for fetcher in fetchers:
        fetcher.join()
    return RDD(cluster, outputs, rdd.nominal_partition_bytes)


def reduce_by_key(rdd: RDD, fn: Callable[[Any, Any], Any],
                  num_partitions: int | None = None) -> RDD:
    """``reduceByKey``: shuffle then combine values per key."""
    shuffled = shuffle(rdd, num_partitions)

    def combine(partition: list[tuple]) -> list[tuple]:
        accumulator: dict = {}
        for key, value in partition:
            if key in accumulator:
                accumulator[key] = fn(accumulator[key], value)
            else:
                accumulator[key] = value
        return sorted(accumulator.items())

    return shuffled.map_partitions(combine)
