"""Tests for remote BLOB access over pluggable transports.

Every test runs on the one server, :class:`ReplicatedBlobServer`; the
single-engine server is its topology of one group of one.
"""

import pytest

from repro.db import EngineConfig
from repro.db.errors import (
    KeyNotFoundError,
    RemoteProtocolError,
    RetriesExhaustedError,
    TransientNetworkError,
)
from repro.net import (
    RDMA,
    SHARED_MEMORY,
    TCP_ETHERNET,
    UNIX_SOCKET,
    ReplicatedBlobServer,
)
from repro.replica import ReplicatedShardedBlobDB
from repro.sim.cost import CostModel, CostParams
from repro.storage.faults import FaultPlan, FaultPlanFactory, FaultSpec


def sharded_server(n_shards=4, transports=TCP_ETHERNET, fault_plan=None,
                   retry_attempts=0, n_replicas=0, device_faults=None,
                   model=None):
    """The server over ``n_shards`` replica groups (of one unless
    ``n_replicas`` says otherwise)."""
    config = EngineConfig(device_pages=16384, wal_pages=512,
                          catalog_pages=128, buffer_pool_pages=4096)
    rdb = ReplicatedShardedBlobDB(n_groups=n_shards, n_replicas=n_replicas,
                                  quorum=1, config=config, model=model,
                                  device_faults=device_faults)
    return ReplicatedBlobServer(rdb, transports, fault_plan=fault_plan,
                                retry_attempts=retry_attempts)


def remote(transport, **kwargs):
    """The single-engine server: one group of one."""
    return sharded_server(n_shards=1, transports=transport, **kwargs)


class TestProtocol:
    @pytest.mark.parametrize("transport", [TCP_ETHERNET, UNIX_SOCKET,
                                           RDMA, SHARED_MEMORY],
                             ids=lambda t: t.name)
    def test_put_get_roundtrip(self, transport):
        server = remote(transport)
        payload = bytes(range(256)) * 100
        server.put(b"k", payload)
        assert server.get(b"k") == payload

    def test_stat_and_delete(self):
        server = remote(UNIX_SOCKET)
        server.put(b"k", b"x" * 1234)
        assert server.stat(b"k") == 1234
        server.delete(b"k")
        with pytest.raises(KeyNotFoundError):
            server.stat(b"k")
        with pytest.raises(KeyNotFoundError):
            server.get(b"k")

    def test_replace_via_put(self):
        server = remote(RDMA)
        server.put(b"k", b"v1")
        server.put(b"k", b"v2 longer")
        assert server.get(b"k") == b"v2 longer"

    def test_server_stats(self):
        server = remote(SHARED_MEMORY)
        server.put(b"k", b"x" * 100)
        server.get(b"k")
        assert server.stats.requests == 2
        assert server.stats.bytes_in == 2 * len(b"k") + 100
        # A zero-copy GET ships no payload bytes: only the PUT's ack.
        assert server.stats.bytes_out == 16

    def test_malformed_requests_raise_protocol_error(self):
        """Bad request shapes surface as a typed RemoteProtocolError a
        client can distinguish from server bugs, never a bare Python
        exception."""
        server = remote(UNIX_SOCKET)
        with pytest.raises(RemoteProtocolError):
            server.stat(None)
        with pytest.raises(RemoteProtocolError):
            server.put(b"k", 12345)
        with pytest.raises(RemoteProtocolError):
            server.get(None)
        # Engine errors keep their own type (not wrapped as protocol).
        with pytest.raises(KeyNotFoundError):
            server.get(b"missing")


class TestNetworkFaults:
    def test_lost_exchanges_are_retried_to_success(self):
        plan = FaultPlan(FaultSpec(seed=9, network_error=0.9))
        server = remote(UNIX_SOCKET, fault_plan=plan, retry_attempts=4)
        payload = b"\x5a" * 10_000
        server.put(b"k", payload)
        assert server.get(b"k") == payload
        assert plan.stats.network_errors > 0
        assert server.retries[0].stats.retries == plan.stats.network_errors

    def test_lost_request_never_reaches_the_server(self):
        """A drawn fault loses the request in flight — the burst-capped
        plan drops two attempts, the third is the only one the server
        executes, so blind re-issue is safe."""
        plan = FaultPlan(FaultSpec(seed=0, network_error=1.0))
        server = remote(SHARED_MEMORY, fault_plan=plan, retry_attempts=4)
        server.put(b"k", b"v")
        assert server.stats.requests == 1
        assert server.groups[0].stats.acked_writes == 1
        assert plan.stats.network_errors == 2

    def test_without_retry_the_typed_error_surfaces(self):
        plan = FaultPlan(FaultSpec(seed=0, network_error=1.0))
        server = remote(UNIX_SOCKET, fault_plan=plan)
        with pytest.raises(TransientNetworkError):
            server.put(b"k", b"v")

    def test_exhausted_retries_degrade_to_typed_error(self):
        plan = FaultPlan(FaultSpec(seed=0, network_error=1.0,
                                   max_consecutive_transients=99))
        server = remote(UNIX_SOCKET, fault_plan=plan, retry_attempts=3)
        with pytest.raises(RetriesExhaustedError):
            server.stat(b"k")
        assert server.retries[0].stats.exhausted == 1


class TestTransportCosts:
    def measure_get(self, transport, payload_bytes: int) -> float:
        """Client-observed GET time: the router clock."""
        server = remote(transport)
        server.put(b"k", b"\x42" * payload_bytes)
        before = server.model.clock.now_ns
        server.get(b"k")
        return server.model.clock.now_ns - before

    def test_tcp_is_slowest(self):
        times = {t.name: self.measure_get(t, 100_000)
                 for t in (TCP_ETHERNET, UNIX_SOCKET, RDMA, SHARED_MEMORY)}
        assert times["tcp"] > times["unix"] > times["rdma"] > times["shm"]

    def test_zero_copy_skips_serialization(self):
        """RDMA/SHM responses avoid the wire copy of the payload."""
        copy_based = self.measure_get(UNIX_SOCKET, 1_000_000)
        zero_copy = self.measure_get(SHARED_MEMORY, 1_000_000)
        assert zero_copy < copy_based / 2

    def test_roundtrip_dominates_small_requests(self):
        """For 120 B objects the fixed round trip is everything —
        the paper's Fig. 5 explanation for PostgreSQL/MySQL."""
        small = self.measure_get(TCP_ETHERNET, 120)
        assert small >= TCP_ETHERNET.roundtrip_ns
        assert small < TCP_ETHERNET.roundtrip_ns * 2.2

    def test_shm_get_near_local_speed(self):
        """Shared memory loses little over the embedded engine."""
        server = remote(SHARED_MEMORY)
        payload = b"\x24" * 1_000_000
        server.put(b"k", payload)
        db = server.groups[0].primary.db

        t0 = server.model.clock.now_ns
        server.get(b"k")
        remote_ns = server.model.clock.now_ns - t0

        t0 = db.model.clock.now_ns
        db.read_blob(server.rdb.table, b"k")
        local_ns = db.model.clock.now_ns - t0
        assert remote_ns < 1.35 * local_ns


class TestOneGroupOracle:
    """The single-engine server is a one-group topology, priced exactly:
    the group clock pays dispatch, the engine read and the exchange; the
    router clock adds one route and one one-wide fan-out on top."""

    @pytest.mark.parametrize("transport", [TCP_ETHERNET, SHARED_MEMORY],
                             ids=lambda t: t.name)
    def test_get_prices_dispatch_read_exchange_then_routing(self,
                                                            transport):
        server = remote(transport)
        payload = b"\x37" * 10_000
        server.put(b"k", payload)
        group, engine = server.groups[0], server.groups[0].primary.db
        router0 = server.model.clock.now_ns
        group0 = group.model.clock.now_ns
        engine0 = engine.model.clock.now_ns
        assert server.get(b"k") == payload
        read_ns = engine.model.clock.now_ns - engine0

        # The same charges, one by one, on a fresh clock with the same
        # price list.
        probe = CostModel(server.model.params)
        probe.rpc_dispatch()
        if transport.zero_copy_responses:
            probe.memcpy(len(payload))  # the client's one copy
            transport.charge_exchange(probe, len(b"k"), 0)
        else:
            transport.charge_exchange(probe, len(b"k"), len(payload))
        group_ns = group.model.clock.now_ns - group0
        assert group_ns == probe.clock.now_ns + read_ns

        routing = CostModel(server.model.params)
        routing.shard_route(len(b"k"))
        routing.shard_fanout(1)
        assert routing.clock.now_ns > 0
        assert server.model.clock.now_ns - router0 == \
            group_ns + routing.clock.now_ns


class TestFaultyServerTorture:
    """Satellite coverage: a server whose *device* injects faults, under
    a network-loss storm, must converge with exact byte accounting."""

    def faulty_remote(self, device_seed=3, net_seed=11):
        device_faults = FaultPlanFactory(FaultSpec(seed=device_seed,
                                                   transient_error=0.05))
        net_plan = FaultPlan(FaultSpec(seed=net_seed, network_error=0.3))
        server = remote(TCP_ETHERNET, fault_plan=net_plan, retry_attempts=8,
                        device_faults=device_faults)
        return server, device_faults, net_plan

    def test_storm_converges_with_exact_byte_accounting(self):
        server, device_faults, net_plan = self.faulty_remote()
        n = 40
        expected_in = expected_out = 0
        for i in range(n):
            key = b"k%04d" % i
            data = bytes([i % 251]) * (512 + 16 * i)
            server.put(key, data)
            expected_in += len(key) + len(data)
            expected_out += 16
        for i in range(n):
            key = b"k%04d" % i
            got = server.get(key)
            assert got == bytes([i % 251]) * (512 + 16 * i)
            expected_in += len(key)
            expected_out += len(got)
        # The storm actually stormed: lost exchanges and device-level
        # transients both fired and were absorbed by their retry layers.
        assert net_plan.stats.network_errors > 0
        assert device_faults.stats().transient_errors > 0
        # Lost requests never reached the server, so despite the
        # retries every operation executed (and was counted) exactly
        # once, and the byte ledgers match the payloads to the byte.
        stats = server.stats
        assert stats.requests == 2 * n
        assert server.groups[0].stats.acked_writes == n
        assert stats.bytes_in == expected_in
        assert stats.bytes_out == expected_out

    def test_torture_run_is_deterministic(self):
        ledgers = []
        for _ in range(2):
            server, _, net_plan = self.faulty_remote()
            for i in range(20):
                server.put(b"k%02d" % i, b"v" * (100 + i))
            for i in range(20):
                server.get(b"k%02d" % i)
            ledgers.append((server.stats.requests,
                            server.stats.bytes_in,
                            server.stats.bytes_out,
                            net_plan.stats.network_errors,
                            server.model.clock.now_ns))
        assert ledgers[0] == ledgers[1]


class TestDispatchCostParam:
    def test_dispatch_cost_is_configurable_via_cost_params(self):
        def dispatch_ns(rpc_dispatch_ns):
            model = CostModel(
                CostParams().copy(rpc_dispatch_ns=rpc_dispatch_ns))
            server = remote(TCP_ETHERNET, model=model)
            server.put(b"k", b"v" * 64)
            start = model.clock.now_ns
            server.stat(b"k")
            return model.clock.now_ns - start
        assert dispatch_ns(50_000.0) - dispatch_ns(0.0) == \
            pytest.approx(50_000.0)


class TestShardedServer:
    @pytest.mark.parametrize("transport", [TCP_ETHERNET, UNIX_SOCKET,
                                           RDMA, SHARED_MEMORY],
                             ids=lambda t: t.name)
    def test_scatter_gather_roundtrip(self, transport):
        server = sharded_server(transports=transport)
        keys = [b"key%04d" % i for i in range(24)]
        server.multiput([(k, bytes([i]) * 777)
                         for i, k in enumerate(keys)])
        got = server.multiget(keys)
        for i, data in enumerate(got):
            assert data == bytes([i]) * 777

    def test_single_key_ops(self):
        server = sharded_server()
        server.put(b"k", b"x" * 321)
        assert server.get(b"k") == b"x" * 321
        assert server.stat(b"k") == 321
        server.delete(b"k")
        with pytest.raises(KeyNotFoundError):
            server.get(b"k")

    def test_per_shard_transport_list(self):
        server = sharded_server(
            n_shards=2, transports=[TCP_ETHERNET, RDMA])
        server.put(b"a", b"1" * 64)
        server.put(b"b", b"2" * 64)
        assert server.get(b"a") == b"1" * 64

    def test_transport_count_must_match_shards(self):
        with pytest.raises(ValueError):
            sharded_server(n_shards=4, transports=[TCP_ETHERNET])

    def test_client_latency_is_makespan(self):
        server = sharded_server()
        sdb = server.rdb
        keys = [b"key%04d" % i for i in range(32)]
        before = [g.model.clock.now_ns for g in server.groups]
        start = sdb.model.clock.now_ns
        server.multiput([(k, b"p" * 1024) for k in keys])
        observed = sdb.model.clock.now_ns - start
        per_shard = [g.model.clock.now_ns - t
                     for g, t in zip(server.groups, before)]
        fanout = sum(1 for ns in per_shard if ns > 0)
        assert fanout > 1
        assert observed < sum(per_shard)
        assert observed >= max(per_shard)

    def test_partial_failure_retries_only_the_lost_sub_batch(self):
        """A TransientNetworkError loses one shard's sub-batch in
        flight; the per-shard retry re-issues it alone, so every
        shard still executes its sub-batch exactly once."""
        plan = FaultPlan(FaultSpec(seed=9, network_error=0.4))
        server = sharded_server(fault_plan=plan, retry_attempts=6)
        keys = [b"key%04d" % i for i in range(32)]
        server.multiput([(k, b"v" * 256) for k in keys])
        assert plan.stats.network_errors > 0
        assert sum(r.stats.retries for r in server.retries) == \
            plan.stats.network_errors
        # Exactly-once execution per key despite the storm: the lost
        # sub-batches never reached their shard, so each shard acked
        # every key of its sub-batch once.
        parts = {s: len(sub) for s, sub in
                 server.router.partition(keys).items()}
        server.router.stats.routed_keys -= len(keys)  # undo probe
        for shard_id, group in enumerate(server.groups):
            assert group.stats.acked_writes == parts.get(shard_id, 0)

    def test_without_retry_the_loss_surfaces_typed(self):
        plan = FaultPlan(FaultSpec(seed=1, network_error=1.0))
        server = sharded_server(fault_plan=plan)
        with pytest.raises(TransientNetworkError):
            server.put(b"k", b"v")

    def test_aggregate_stats_sum_backends(self):
        server = sharded_server()
        keys = [b"key%04d" % i for i in range(16)]
        server.multiput([(k, b"d" * 128) for k in keys])
        total = server.stats
        # One request per sub-batch, i.e. per shard the batch touched.
        assert total.requests == len(server.router.partition(keys))
        assert total.bytes_in == sum(len(k) + 128 for k in keys)


class TestScatterGatherGuard:
    """Malformed requests are refused typed, before routing or pricing,
    on every topology."""

    @pytest.mark.parametrize("call", [
        lambda server: server.put("k", b"v" * 16),
        lambda server: server.get(None),
        lambda server: server.put(b"k", 5),
    ], ids=["str-key", "none-key", "int-payload"])
    @pytest.mark.parametrize("n_shards,n_replicas", [(4, 0), (2, 2)],
                             ids=["4x1", "2x3"])
    def test_malformed_request_is_refused_before_routing(
            self, call, n_shards, n_replicas):
        server = sharded_server(n_shards=n_shards, n_replicas=n_replicas)
        router = server.router
        before = (repr(router.stats), router.model.clock.now_ns,
                  [g.model.clock.now_ns for g in server.groups],
                  [m.model.clock.now_ns for g in server.groups
                   for m in g.members])
        with pytest.raises(RemoteProtocolError):
            call(server)
        assert before == (repr(router.stats), router.model.clock.now_ns,
                          [g.model.clock.now_ns for g in server.groups],
                          [m.model.clock.now_ns for g in server.groups
                           for m in g.members])
        assert server.stats.requests == 0
