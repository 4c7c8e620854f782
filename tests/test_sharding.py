"""Determinism and scaling tests for the sharded engine.

The sharded engine is the router over replica groups of one
(``n_replicas=0, quorum=1``).  The contract under test: shard assignment
is a pure function of the key bytes, every shard runs on its own clock,
cross-shard batches are priced as the makespan over shards, two
identical runs are *identical* — same assignment, same per-shard device
traffic, same makespan — and a group of one prices exactly like the
bare engine it wraps.
"""

import random

import pytest

from repro.db.config import EngineConfig
from repro.db.errors import KeyNotFoundError
from repro.db.stats import EngineReport
from repro.replica import ReplicatedShardedBlobDB
from repro.shard import ShardRouter
from repro.sim.cost import CostModel, CostParams
from repro.sim.workers import WorkerSim
from repro.workloads.ycsb import zipf_sampler


def small_config(**overrides):
    return EngineConfig(device_pages=16384, wal_pages=512,
                        catalog_pages=128, buffer_pool_pages=4096,
                        **overrides)


def sharded(n_shards):
    """The sharded engine: ``n_shards`` replica groups of one."""
    return ReplicatedShardedBlobDB(n_groups=n_shards, n_replicas=0,
                                   quorum=1, config=small_config())


def engines(sdb):
    """Each shard's engine (its group's only member)."""
    return [group.primary.db for group in sdb.groups]


def keyset(n, prefix=b"user"):
    return [prefix + b"%010d" % i for i in range(n)]


class TestRouter:
    def test_assignment_is_a_pure_function_of_key_bytes(self):
        a = ShardRouter(8, CostModel())
        b = ShardRouter(8, CostModel())
        keys = keyset(200)
        assert [a.shard_of(k) for k in keys] == \
            [b.shard_of(k) for k in keys]

    def test_all_shards_receive_keys(self):
        router = ShardRouter(4, CostModel())
        for key in keyset(100):
            router.shard_of(key)
        assert all(n > 0 for n in router.stats.per_shard_keys)
        assert sum(router.stats.per_shard_keys) == 100

    def test_routing_charges_the_model(self):
        model = CostModel()
        router = ShardRouter(4, model)
        router.shard_of(b"some key")
        assert model.clock.now_ns > 0

    def test_partition_preserves_batch_positions(self):
        router = ShardRouter(4, CostModel())
        keys = keyset(32)
        parts = router.partition(keys)
        flat = sorted((pos, key) for sub in parts.values()
                      for pos, key in sub)
        assert flat == list(enumerate(keys))

    def test_single_shard_imbalance_is_guarded(self):
        router = ShardRouter(1, CostModel())
        for key in keyset(10):
            router.shard_of(key)
        assert router.stats.imbalance() == 0.0

    def test_zero_keys_imbalance_is_guarded(self):
        assert ShardRouter(4, CostModel()).stats.imbalance() == 0.0

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardRouter(0, CostModel())


class TestShardedBlobDB:
    def test_single_key_roundtrip(self):
        sdb = sharded(4)
        sdb.put(b"k", b"v" * 5000)
        assert sdb.get(b"k") == b"v" * 5000
        assert sdb.stat(b"k") == 5000
        assert sdb.exists(b"k")
        sdb.delete(b"k")
        assert not sdb.exists(b"k")
        with pytest.raises(KeyNotFoundError):
            sdb.get(b"k")

    def test_multiget_returns_request_order(self):
        sdb = sharded(4)
        keys = keyset(24)
        sdb.multiput([(k, bytes([i]) * 512) for i, k in enumerate(keys)])
        got = sdb.multiget(list(reversed(keys)))
        for i, data in enumerate(reversed(got)):
            assert data == bytes([i]) * 512

    def test_multiput_is_replace(self):
        sdb = sharded(2)
        sdb.multiput([(b"k", b"old" * 100)])
        sdb.multiput([(b"k", b"new" * 50)])
        assert sdb.get(b"k") == b"new" * 50

    def test_multiput_duplicate_key_last_writer_wins(self):
        sdb = sharded(2)
        sdb.multiput([(b"dup", b"a" * 64), (b"x", b"y" * 64),
                      (b"dup", b"b" * 64)])
        assert sdb.get(b"dup") == b"b" * 64

    def test_scan_merges_shards_in_key_order(self):
        sdb = sharded(4)
        keys = keyset(40)
        sdb.multiput([(k, b"p" * 128) for k in keys])
        rows = sdb.scan()
        assert [k for k, _ in rows] == sorted(keys)

    def test_batch_latency_is_makespan_not_sum(self):
        """The router clock advances by the slowest shard's sub-batch,
        strictly less than the serial sum of all sub-batches."""
        sdb = sharded(4)
        keys = keyset(64)
        before = [g.model.clock.now_ns for g in sdb.groups]
        start = sdb.model.clock.now_ns
        sdb.multiput([(k, b"d" * 2048) for k in keys])
        observed = sdb.model.clock.now_ns - start
        per_shard = [g.model.clock.now_ns - b
                     for g, b in zip(sdb.groups, before)]
        assert observed < sum(per_shard)
        assert observed >= max(per_shard)

    def test_more_shards_shrink_the_makespan(self):
        elapsed = {n: batch_stream_ns(n) for n in (1, 2, 4, 8)}
        assert elapsed[1] >= elapsed[2] >= elapsed[4] >= elapsed[8]
        assert elapsed[1] >= 3.0 * elapsed[8]
        # Zipf-0.99 piles each batch onto the hot key's shard: the
        # makespan falls back toward serial, below 0.8x of uniform.
        assert elapsed[8] < 0.8 * batch_stream_ns(8, zipf_theta=0.99)


def batch_stream_ns(n_shards, zipf_theta=0.0, n_records=96, batch=128,
                    payload=4096):
    """Router-clock time of 24 scattered 128-key batches.

    The key population is loaded untimed; then three rounds in four
    ``multiget`` and the fourth ``multiput`` keys drawn uniformly or
    Zipf-``theta`` (duplicates are upserts the hot shard serializes).
    """
    sdb = sharded(n_shards)
    rng = random.Random(3)
    keys = keyset(n_records)
    for lo in range(0, n_records, 32):
        sdb.multiput([(key, rng.randbytes(payload))
                      for key in keys[lo:lo + 32]])
    if zipf_theta > 0:
        sample = zipf_sampler(n_records, zipf_theta, rng)
    else:
        def sample():
            return rng.randrange(n_records)
    start = sdb.model.clock.now_ns
    for round_no in range(24):
        idx = [sample() for _ in range(batch)]
        if round_no % 4 == 3:
            sdb.multiput([(keys[i], rng.randbytes(payload)) for i in idx])
        else:
            assert all(len(data) == payload
                       for data in sdb.multiget([keys[i] for i in idx]))
    sdb.drain()
    return sdb.model.clock.now_ns - start


def run_workload(n_shards=4, seed_keys=48):
    """One pinned workload; returns (sdb, makespan_ns)."""
    sdb = sharded(n_shards)
    keys = keyset(seed_keys)
    start = sdb.model.clock.now_ns
    sdb.multiput([(k, bytes([i % 251]) * 1024)
                  for i, k in enumerate(keys)])
    sdb.multiget(keys)
    sdb.multiput([(k, bytes([(i + 1) % 251]) * 1024)
                  for i, k in enumerate(keys[::2])])
    sdb.drain()
    return sdb, sdb.model.clock.now_ns - start


class TestDeterminism:
    """Same seed + same key set => identical everything, twice."""

    def test_identical_assignment_device_stats_and_makespan(self):
        first, makespan_a = run_workload()
        second, makespan_b = run_workload()
        # Identical shard assignment.
        assert first.router.stats.per_shard_keys == \
            second.router.stats.per_shard_keys
        # Identical per-shard DeviceStats (every counter, per category).
        for shard_a, shard_b in zip(engines(first), engines(second)):
            assert shard_a.device.stats == shard_b.device.stats
        # Identical makespan on the router clock.
        assert makespan_a == makespan_b
        # And identical per-shard clocks.
        assert [s.model.clock.now_ns for s in engines(first)] == \
            [s.model.clock.now_ns for s in engines(second)]

    def test_report_is_identical_across_runs(self):
        first, _ = run_workload()
        second, _ = run_workload()
        assert first.stats_report() == second.stats_report()


class TestRecovery:
    def test_data_survives_crash_recover(self):
        sdb, _ = run_workload()
        expected = {k: sdb.get(k) for k in keyset(48)}
        devices = sdb.crash()
        recovered = ReplicatedShardedBlobDB.recover(devices, small_config())
        for key, data in expected.items():
            assert recovered.get(key) == data

    def test_recovery_is_priced_as_makespan(self):
        sdb, _ = run_workload()
        devices = sdb.crash()
        recovered = ReplicatedShardedBlobDB.recover(devices, small_config())
        assert recovered.recovery_makespan_ns > 0
        assert recovered.recovery_makespan_ns < \
            recovered.recovery_serial_ns

    def test_recovery_speedup_is_near_linear(self):
        """4 shards with balanced data recover in well under half the
        serial replay time."""
        sdb, _ = run_workload(n_shards=4, seed_keys=64)
        devices = sdb.crash()
        recovered = ReplicatedShardedBlobDB.recover(devices, small_config())
        speedup = recovered.recovery_serial_ns / \
            recovered.recovery_makespan_ns
        assert speedup > 2.0

    def test_recovery_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            sdb, _ = run_workload()
            recovered = ReplicatedShardedBlobDB.recover(sdb.crash(),
                                                        small_config())
            outcomes.append((recovered.recovery_makespan_ns,
                             recovered.recovery_serial_ns))
        assert outcomes[0] == outcomes[1]


#: Virtual ns of :func:`oracle_stream` as the bare-engine sharded
#: router (one ``BlobDB`` per shard, no group layer) priced it: the
#: router clock after every step, each shard engine's clock before the
#: crash, and after recovery (router clock, engine clocks, makespan,
#: serial sum, router clock after one more read).
BARE_ENGINE_NS = {
    1: {
        "trail": [
            978, 1990, 3303, 4314, 5481, 6839, 8114, 9483, 10160, 10760, 11397,
            99075, 140150, 148790, 149190],
        "shards": [142296],
        "recovered": (
            504750,
            [646646],
            504350, 504350, 578165),
    },
    4: {
        "trail": [
            1311, 2514, 3708, 4915, 5989, 7064, 8226, 9310, 10096, 10696,
            11333, 44570, 63826, 73666, 75266],
        "shards": [49686, 57299, 55289, 51290],
        "recovered": (
            428294,
            [469911, 483993, 479059, 473814],
            426694, 1693213, 501710),
    },
    8: {
        "trail": [
            1403, 2800, 3791, 5069, 6564, 7585, 9139, 10112, 10938, 11538,
            12175, 38272, 55412, 66852, 70052],
        "shards": [36812, 35365, 36351, 37474, 34666, 44843, 41392, 37803],
        "recovered": (
            419213,
            [445598, 442096, 444256, 447730,
             441804, 460856, 453678, 447653],
            416013, 3278965, 492522),
    },
}


def oracle_config():
    return EngineConfig(device_pages=4096, wal_pages=256,
                        catalog_pages=64, buffer_pool_pages=1024)


def oracle_stream(n_shards):
    """A seeded put / get / stat / delete / 128-key multiput and
    multiget / scan / drain / crash / recover stream on groups of one."""
    rng = random.Random(1000 + n_shards)
    keys = keyset(144)
    sdb = ReplicatedShardedBlobDB(n_groups=n_shards, n_replicas=0,
                                  quorum=1, config=oracle_config())
    trail = []

    def mark():
        trail.append(sdb.model.clock.now_ns)
    for key in keys[:8]:
        sdb.put(key, rng.randbytes(rng.randrange(64, 6000)))
        mark()
    sdb.get(keys[3])
    mark()
    sdb.stat(keys[5])
    mark()
    sdb.delete(keys[6])
    mark()
    sdb.multiput([(k, rng.randbytes(rng.randrange(64, 3000)))
                  for k in keys[16:144]])
    mark()
    sdb.multiget(keys[16:144])
    mark()
    assert len(sdb.scan()) == 7 + 128
    mark()
    sdb.drain()
    mark()
    shards = [s.model.clock.now_ns for s in engines(sdb)]
    rec = ReplicatedShardedBlobDB.recover(sdb.crash(), oracle_config())
    recovered = (rec.model.clock.now_ns,
                 [s.model.clock.now_ns for s in engines(rec)],
                 rec.recovery_makespan_ns, rec.recovery_serial_ns)
    rec.get(keys[20])
    return {"trail": trail, "shards": shards,
            "recovered": recovered + (rec.model.clock.now_ns,)}


class TestGroupOfOneOracle:
    """A shard is a replica group of one: the router over groups of one
    reproduces the bare-engine sharded router's virtual time exactly."""

    @pytest.mark.parametrize("n_shards", sorted(BARE_ENGINE_NS))
    def test_groups_of_one_price_like_bare_engines(self, n_shards):
        assert oracle_stream(n_shards) == BARE_ENGINE_NS[n_shards]

    def test_restart_is_not_a_fanout_batch(self):
        sdb, _ = run_workload()
        rec = ReplicatedShardedBlobDB.recover(sdb.crash(), small_config())
        assert rec.router.stats.fanout_batches == 0
        assert rec.stats_report().shard_fanout_batches == 0
        rec.get(keyset(1)[0])
        assert rec.router.stats.fanout_batches == 1

    def test_replicated_groups_refuse_whole_router_crash(self):
        rdb = ReplicatedShardedBlobDB(n_groups=2, n_replicas=1, quorum=1,
                                      config=oracle_config())
        with pytest.raises(ValueError, match="crash_primary"):
            rdb.crash()


class TestShardReport:
    def test_single_shard_report_has_no_imbalance(self):
        """One-shard reports must not divide by the shard count or
        invent an imbalance ratio (the N=1 guard)."""
        sdb = sharded(1)
        sdb.put(b"k", b"v" * 256)
        report = sdb.stats_report()
        assert report.shard_count == 1
        assert report.shard_imbalance == 0.0
        assert "shards:" not in report.format()

    def test_unsharded_report_is_all_zero(self):
        report = EngineReport()
        assert report.shard_count == 0
        assert report.shard_imbalance == 0.0
        assert "shards:" not in report.format()

    def test_empty_multi_shard_report_has_no_division_error(self):
        sdb = sharded(4)
        report = sdb.stats_report()  # zero routed keys
        assert report.shard_imbalance == 0.0
        report.format()  # must not raise

    def test_multi_shard_report_shows_balance_line(self):
        sdb, _ = run_workload()
        report = sdb.stats_report()
        assert report.shard_count == 4
        assert report.shard_imbalance >= 1.0
        assert sum(report.shard_keys_per_shard) == \
            report.shard_routed_keys
        assert "shards:" in report.format()

    def test_aggregates_sum_per_shard_counters(self):
        sdb, _ = run_workload()
        report = sdb.stats_report()
        assert report.wal_records == \
            sum(r.wal_records for r in sdb.group_reports())
        assert report.device_bytes_read == \
            sum(r.device_bytes_read for r in sdb.group_reports())


class TestWorkerSimSharded:
    @staticmethod
    def io_op(model, i):
        model.ssd_read(16384, requests=4)
        model.memcpy(4096)

    @staticmethod
    def mem_op(model, i):
        model.memcpy(1 << 20)

    def test_throughput_monotone_in_shards_for_io_bound_ops(self):
        sim = WorkerSim(16)
        tps = [sim.run(self.io_op, 40, working_set_bytes=16384,
                       n_shards=n).throughput_ops_s
               for n in (1, 2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(tps, tps[1:]))
        assert tps[-1] > 3.0 * tps[0]

    def test_memory_bound_ops_gain_nothing_from_shards(self):
        """DRAM bandwidth and L3 do not shard: where shards stop
        helping (Section V-E)."""
        sim = WorkerSim(16)
        one = sim.run(self.mem_op, 16, working_set_bytes=1 << 21,
                      n_shards=1)
        eight = sim.run(self.mem_op, 16, working_set_bytes=1 << 21,
                        n_shards=8)
        assert eight.throughput_ops_s == \
            pytest.approx(one.throughput_ops_s, rel=0.01)

    def test_legacy_mode_is_unchanged(self):
        sim = WorkerSim(8)
        legacy = sim.run(self.io_op, 40, working_set_bytes=16384)
        assert legacy.n_shards is None
        assert legacy.device_factor == 1.0
        sharded_wide = sim.run(self.io_op, 40, working_set_bytes=16384,
                               n_shards=8)
        # One shard per worker = no queueing = the legacy assumption.
        assert sharded_wide.per_op_ns == pytest.approx(legacy.per_op_ns)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            WorkerSim(4).run(self.io_op, 4, n_shards=0)


class TestCostParams:
    def test_shard_params_are_overridable(self):
        params = CostParams().copy(shard_route_ns=500.0,
                                   shard_fanout_ns=2000.0,
                                   rpc_dispatch_ns=100.0)
        cheap = CostModel(CostParams().copy(shard_route_ns=1.0))
        dear = CostModel(params)
        cheap.shard_route(8)
        dear.shard_route(8)
        assert dear.clock.now_ns > cheap.clock.now_ns

    def test_fanout_charge_scales_with_shard_count(self):
        model = CostModel()
        model.shard_fanout(1)
        one = model.clock.now_ns
        model.shard_fanout(8)
        assert model.clock.now_ns - one == pytest.approx(8 * one)
