"""Remote BLOB access over pluggable transports (Section VI, "Networks").

The paper identifies networking as the primary overhead of client/server
DBMSs (Section V-B) and names the remedies it plans to explore: avoiding
serialization work, RDMA, and shared memory, citing Fent et al.'s
unified-transport design [89].  This package implements that layer for
the engine:

* :class:`TransportProfile` — cost profiles for TCP/Ethernet,
  Unix-domain sockets, one-sided RDMA, and shared memory;
* :class:`ReplicatedBlobServer` — the one server: a request/response
  protocol over any profile, with server dispatch and wire
  (de)serialization priced per exchange and per byte.  It fronts a
  :class:`~repro.replica.ReplicatedShardedBlobDB` topology: a request
  fans out to the router's replica groups over per-group transports,
  each sub-batch commits inside its group (quorum, WAL shipping and
  failover when the group has replicas), lost client sub-exchanges are
  retried per group, latency is the makespan, and ``any_replica`` reads
  rotate over group members with staleness accounting.  One group of
  one is the single-engine server;
* zero-serialization reads on shared-memory transports: like the
  engine's local aliasing path, the response hands the client a view
  instead of a wire copy.

The ablation bench (``benchmarks/test_ablation_network.py``) shows the
paper's narrative end to end on a one-group server: TCP costs
client/server engines their standing; RDMA and shared memory recover
most of the embedded performance.
"""

from repro.net.transport import (
    RDMA,
    SHARED_MEMORY,
    TCP_ETHERNET,
    UNIX_SOCKET,
    TransportProfile,
)
from repro.net.remote import ReplicatedBlobServer

__all__ = [
    "TransportProfile",
    "TCP_ETHERNET",
    "UNIX_SOCKET",
    "RDMA",
    "SHARED_MEMORY",
    "ReplicatedBlobServer",
]
