"""Request/response BLOB protocol over a transport profile."""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.database import BlobDB
from repro.db.errors import (
    DatabaseError,
    KeyNotFoundError,
    RemoteProtocolError,
    TransientNetworkError,
)
from repro.net.transport import TransportProfile, one_per
from repro.storage.faults import RetryPolicy


@dataclass
class ServerStats:
    requests: int = 0
    bytes_in: int = 0
    bytes_out: int = 0


def _traced(obs, name: str, transport: str, op):
    """Run ``op()`` as one traced ``net.rpc`` round trip."""
    if obs is None:
        return op()
    obs.begin("net.rpc")
    try:
        return op()
    finally:
        obs.end(op=name, transport=transport)
        obs.count("net.roundtrips", op=name)


def view_bytes(db: BlobDB, table: str, key: bytes) -> bytes:
    """A BLOB's bytes served from its aliasing view, without a copy."""
    with db.read_blob_view(table, key) as view:
        return view.contiguous()


class BlobServer:
    """Executes protocol requests against an engine.

    Server-side work (statement handling, the engine operation itself)
    is charged on the engine's cost model; the synchronous RPC means
    client-observed latency = transport + server work, which the shared
    virtual clock captures naturally.
    """

    def __init__(self, db: BlobDB, table: str = "blobs") -> None:
        self.db = db
        self.table = table
        if table not in db.list_tables():
            db.create_table(table)
        self.stats = ServerStats()

    # Each handler returns the response payload size it ships back.
    # Malformed requests (wrong value kinds, non-byte keys) surface as
    # typed RemoteProtocolError, never a bare Python exception a client
    # cannot distinguish from a server bug.

    @staticmethod
    def _guard(op):
        try:
            return op()
        except DatabaseError:
            raise
        except (TypeError, ValueError, KeyError, AttributeError) as exc:
            raise RemoteProtocolError(f"malformed request: {exc}") from exc

    def handle_put(self, key: bytes, data: bytes) -> int:
        self._enter(self._guard(lambda: len(key) + len(data)))

        def run() -> None:
            with self.db.transaction() as txn:
                if self.db.exists(self.table, key):
                    self.db.delete_blob(txn, self.table, key)
                self.db.put_blob(txn, self.table, key, data)
        self._guard(run)
        return self._exit(16)

    def handle_get(self, key: bytes, zero_copy: bool = False) -> bytes:
        """Read a BLOB; ``zero_copy`` serves it from a shared view.

        On a zero-copy transport the server never copies the payload —
        it exposes the aliasing view's region and the *client* performs
        the single materializing copy, like the local read path.
        """
        self._enter(self._guard(lambda: len(key)))
        read = view_bytes if zero_copy else BlobDB.read_blob
        data = self._guard(lambda: read(self.db, self.table, key))
        self._exit(len(data))
        return data

    def handle_stat(self, key: bytes) -> int:
        self._enter(self._guard(lambda: len(key)))
        size = self._guard(
            lambda: self.db.get_state(self.table, key).size)
        self._exit(16)
        return size

    def handle_delete(self, key: bytes) -> None:
        self._enter(self._guard(lambda: len(key)))

        def run() -> None:
            with self.db.transaction() as txn:
                self.db.delete_blob(txn, self.table, key)
        self._guard(run)
        self._exit(16)

    def _enter(self, nbytes: int) -> None:
        # Request dispatch (header parse, op lookup) is priced by the
        # cost model like every other primitive (CostParams.rpc_dispatch_ns).
        self.db.model.rpc_dispatch()
        self.stats.requests += 1
        self.stats.bytes_in += nbytes

    def _exit(self, nbytes: int) -> int:
        self.stats.bytes_out += nbytes
        return nbytes


class RemoteBlobStore:
    """Client stub: the engine's operations across a transport.

    With a zero-copy transport (RDMA, shared memory), GET responses are
    *views* — the payload is not serialized onto a wire, mirroring how
    the local engine avoids copies via aliasing.
    """

    def __init__(self, server: BlobServer, transport: TransportProfile,
                 fault_plan=None, retry=None) -> None:
        self.server = server
        self.transport = transport
        self.model = server.db.model  # shared clock: synchronous RPC
        #: Optional FaultPlan: each exchange may lose its request in
        #: flight (TransientNetworkError before the server sees it).
        self.fault_plan = fault_plan
        #: Optional RetryPolicy re-issuing lost exchanges with backoff.
        self.retry = retry

    @property
    def name(self) -> str:
        return f"our.{self.transport.name}"

    def _exchange(self, op, name: str = "rpc"):
        """One request/response exchange, with fault drawing and retry.

        A drawn network fault loses the request *in flight*: the server
        never executes the operation, so re-issuing it is always safe.
        Each attempt (including lost/retried ones) is one traced
        ``net.rpc`` round trip.
        """
        def attempt():
            return _traced(self.model.obs, name, self.transport.name,
                           lambda: self._attempt_body(op))
        if self.retry is not None:
            return self.retry.run(attempt)
        return attempt()

    def _attempt_body(self, op):
        if self.fault_plan is not None and \
                self.fault_plan.draw_network_fault():
            raise TransientNetworkError("request lost in flight")
        return op()

    def put(self, key: bytes, data: bytes) -> None:
        def op() -> None:
            self.server.handle_put(key, data)
            self.transport.charge_exchange(self.model,
                                           len(key) + len(data), 16)
        self._exchange(op, "put")

    def get(self, key: bytes) -> bytes:
        def op() -> bytes:
            zero_copy = self.transport.zero_copy_responses
            data = self.server.handle_get(key, zero_copy=zero_copy)
            wire_bytes = 0 if zero_copy else len(data)
            self.transport.charge_exchange(self.model, len(key), wire_bytes)
            if zero_copy:
                # The client materializes its own copy from the shared
                # region — exactly one memcpy, like the local path.
                self.model.memcpy(len(data))
            return data
        return self._exchange(op, "get")

    def stat(self, key: bytes) -> int:
        def op() -> int:
            size = self.server.handle_stat(key)
            self.transport.charge_exchange(self.model, len(key), 16)
            return size
        return self._exchange(op, "stat")

    def delete(self, key: bytes) -> None:
        def op() -> None:
            self.server.handle_delete(key)
            self.transport.charge_exchange(self.model, len(key), 16)
        self._exchange(op, "delete")

    def exists(self, key: bytes) -> bool:
        try:
            self.stat(key)
            return True
        except (KeyNotFoundError, DatabaseError):
            return False


class ReplicatedBlobServer:
    """Scatter-gather protocol front end over a router's replica groups.

    One client request fans out as one batched exchange per touched
    *group* over that group's :class:`TransportProfile`, and each
    sub-batch executes against the group's primary — quorum commit, WAL
    shipping and any failover included — on the group's own coordinator
    clock.  Client-observed latency is the makespan over the group
    exchanges plus the router's fan-out charge
    (:meth:`~repro.shard.router.ShardRouter.gather`).  Groups of one
    (``n_replicas=0``) make this the plain sharded server.  On
    transports with ``zero_copy_responses`` a GET is served from the
    primary's aliasing view and the client pays the one materializing
    copy.

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
                 retry_attempts: int = 0,
                 retry_base_ns: float = 50_000.0) -> None:
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
        self.retries = [RetryPolicy(g.model, attempts=retry_attempts,
                                    base_delay_ns=retry_base_ns)
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
            return _traced(model.obs, "group_batch",
                           self.transports[group_id].name, op)
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
