"""Replica groups and the one topology class that routes over them.

A shard is a replica group — ``1 primary + N replicas``, every member a
complete engine on its own virtual clock — with quorum-priced commits,
per-link fault injection, read fan-out with staleness accounting, and
deterministic epoch-fenced failover.  :class:`ReplicatedShardedBlobDB`
hash-routes keys over N groups; with ``n_replicas=0, quorum=1`` it is
the unreplicated sharded engine.  See ``docs/replication.md`` and
``docs/sharding.md``.
"""

from repro.replica.group import GroupStats, ReplicaGroup, ReplicaMember
from repro.replica.record import (
    ACK_BYTES,
    OP_DELETE,
    OP_PUT,
    ReplicationRecord,
)
from repro.replica.sharded import ReplicatedShardedBlobDB

__all__ = [
    "ACK_BYTES",
    "OP_DELETE",
    "OP_PUT",
    "GroupStats",
    "ReplicaGroup",
    "ReplicaMember",
    "ReplicatedShardedBlobDB",
    "ReplicationRecord",
]
