"""Deterministic hash routing and scatter-gather pricing.

A single engine is bounded by one WAL, one buffer pool, and one device
queue.  The keyspace is partitioned by content hash across N fully
independent partitions — each with its own :class:`SimulatedNVMe`, WAL,
buffer pool, and I/O scheduler — and cross-partition batches are priced
the way the device layer prices overlapped NVMe commands: parallel work
pays the slowest participant (the *makespan*), not the sum.

* :func:`shard_index` — the key→partition hash (SHA-256 content hash,
  ``repro.core.hashing``), a pure function of the key bytes;
* :class:`ShardRouter` — routing charged per key, the balance counters,
  and :meth:`ShardRouter.gather`, the one scatter-gather pricing core.

A partition is a replica group: the sharded engine is
:class:`~repro.replica.ReplicatedShardedBlobDB` with ``n_replicas=0,
quorum=1`` (a shard is a replica group of one).  See
``docs/sharding.md`` for the design and its caveats (skew!).
"""

from repro.shard.router import RouterStats, ShardRouter, shard_index

__all__ = ["ShardRouter", "RouterStats", "shard_index"]
