"""The BLOB server: request/response protocol over a transport profile."""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.errors import RemoteProtocolError, TransientNetworkError
from repro.net.transport import one_per
from repro.storage.faults import RetryPolicy


@dataclass
class ServerStats:
    requests: int = 0
    bytes_in: int = 0
    bytes_out: int = 0


class ReplicatedBlobServer:
    """The one BLOB server: a protocol front end over a router's groups.

    One client request fans out as one batched exchange per touched
    *group* over that group's :class:`TransportProfile`, and each
    sub-batch executes against the group's primary — quorum commit, WAL
    shipping and any failover included — on the group's own coordinator
    clock.  Server dispatch and the wire exchange are priced on that
    clock too.  Client-observed latency, on the router clock, is the
    makespan over the group exchanges plus the router's routing and
    fan-out charges (:meth:`~repro.shard.router.ShardRouter.gather`).
    The topology decides what the server fronts: one group of one
    (``n_groups=1, n_replicas=0``) is the single-engine server, whose
    client pays one ``shard_route`` per key and one ``shard_fanout`` per
    request on top of the group's time.  Groups of one are the plain
    sharded server.  On transports with ``zero_copy_responses`` a GET is
    served from the primary's aliasing view and the client pays the one
    materializing copy.

    Partial failure has two independent layers: a drawn
    :class:`TransientNetworkError` loses one group's *client*
    sub-exchange in flight (the group never executes it; the per-group
    retry re-issues only that sub-batch, completed groups stand), while
    lost WAL-ship exchanges *inside* a group are retried by that
    group's own per-link policies, invisibly to the client beyond the
    quorum makespan.  Re-issuing a lost client sub-batch is safe
    because puts are upserts and a lost request was never executed;
    a :class:`~repro.db.errors.QuorumLostError` is *not* retried here —
    it means the group accepted the request and could not acknowledge
    it, which the client must observe.  A malformed request (a key that
    is not ``bytes``, a payload that is not bytes-like) raises
    :class:`RemoteProtocolError` before anything is routed or charged.
    """

    def __init__(self, rdb, transports, fault_plan=None,
                 retry_attempts: int = 0) -> None:
        self.rdb = rdb
        self.router = rdb.router
        self.model = rdb.model  # router clock: what the client observes
        self.groups = rdb.groups
        self.transports = one_per(transports, len(self.groups), "group")
        #: Optional FaultPlan: each sub-batch exchange may lose its
        #: request in flight before the group sees it.
        self.fault_plan = fault_plan
        self.stats = ServerStats()
        # Bound to each group's coordinator model so retry backoff
        # lands inside that group's sub-batch time (the makespan).
        self.retries = [RetryPolicy(g.model, attempts=retry_attempts)
                        if retry_attempts > 0 else None
                        for g in self.groups]

    # -- scatter-gather plumbing ----------------------------------------

    @staticmethod
    def _check(keys, payloads=()) -> None:
        """Refuse a malformed request before it is routed or charged."""
        for key in keys:
            if not isinstance(key, bytes):
                raise RemoteProtocolError("malformed request: key not bytes")
        for data in payloads:
            if not isinstance(data, (bytes, bytearray, memoryview)):
                raise RemoteProtocolError("malformed request: bad payload")

    def _attempt(self, group_id: int, op):
        """One sub-batch exchange with loss drawing and per-group retry."""
        def attempt():
            if self.fault_plan is not None and \
                    self.fault_plan.draw_network_fault():
                raise TransientNetworkError(
                    f"sub-batch to group {group_id} lost in flight")
            model = self.groups[group_id].model
            model.rpc_dispatch()
            obs = model.obs
            if obs is None:
                return op()
            obs.begin("net.rpc")
            try:
                return op()
            finally:
                obs.end(op="group_batch",
                        transport=self.transports[group_id].name)
                obs.count("net.roundtrips", op="group_batch")
        retry = self.retries[group_id]
        if retry is not None:
            return retry.run(attempt)
        return attempt()

    def _gather(self, parts: dict, run_one) -> None:
        """Run one exchange per touched group; advance by the makespan."""
        def run(group_id: int) -> None:
            self._attempt(group_id,
                          lambda: run_one(group_id, parts[group_id]))
            self.stats.requests += 1
        self.router.gather(
            parts, lambda gid: self.groups[gid].model.clock, run)

    def _exchange(self, group_id: int, request_bytes: int,
                  response_bytes: int) -> None:
        """Price one sub-batch's wire exchange and count its bytes."""
        self.transports[group_id].charge_exchange(
            self.groups[group_id].model, request_bytes, response_bytes)
        self.stats.bytes_in += request_bytes
        self.stats.bytes_out += response_bytes

    # -- batched operations ----------------------------------------------

    def multiput(self, items: list[tuple[bytes, bytes]]) -> None:
        """Quorum-commit a batch: each key is its own group commit."""
        items = list(items)
        self._check([key for key, _ in items], [data for _, data in items])
        parts = self.router.partition([key for key, _ in items])

        def run(group_id: int, sub) -> None:
            group = self.groups[group_id]
            request_bytes = 0
            for pos, key in sub:
                group.put(key, items[pos][1])
                request_bytes += len(key) + len(items[pos][1])
            self._exchange(group_id, request_bytes, 16 * len(sub))
        self._gather(parts, run)

    def multiget(self, keys: list[bytes],
                 any_replica: bool = False) -> list[bytes]:
        """Read a batch; ``any_replica`` rotates over each group's
        members (staleness-accounted) instead of pinning the primary."""
        keys = list(keys)
        self._check(keys)
        parts = self.router.partition(keys)
        results: list[bytes | None] = [None] * len(keys)

        def run(group_id: int, sub) -> None:
            group = self.groups[group_id]
            zero_copy = self.transports[group_id].zero_copy_responses \
                and not any_replica
            wire_bytes = 0
            for pos, key in sub:
                data = group.read_any(key) if any_replica \
                    else group.get(key, zero_copy=zero_copy)
                results[pos] = data
                if zero_copy:
                    # Client materializes its copy from the shared view.
                    group.model.memcpy(len(data))
                else:
                    wire_bytes += len(data)
            self._exchange(group_id, sum(len(key) for _, key in sub),
                           wire_bytes)
        self._gather(parts, run)
        return results  # type: ignore[return-value]

    # -- single-key operations (one-element sub-batches) -------------------

    def put(self, key: bytes, data: bytes) -> None:
        self.multiput([(key, data)])

    def get(self, key: bytes) -> bytes:
        return self.multiget([key])[0]

    def read_any(self, key: bytes) -> bytes:
        return self.multiget([key], any_replica=True)[0]

    def _on_owner(self, key: bytes, op):
        """``op(group)`` on ``key``'s group, a 16-byte-response exchange."""
        self._check([key])
        out = []

        def run(group_id: int, sub) -> None:
            out.append(op(self.groups[group_id]))
            self._exchange(group_id, len(key), 16)
        self._gather(self.router.partition([key]), run)
        return out[0]

    def delete(self, key: bytes) -> None:
        self._on_owner(key, lambda group: group.delete(key))

    def stat(self, key: bytes) -> int:
        return self._on_owner(key, lambda group: group.stat(key))
