"""Determinism and scaling tests for the sharded engine.

The contract under test: shard assignment is a pure function of the key
bytes, every shard runs on its own clock, cross-shard batches are priced
as the makespan over shards, and two identical runs are *identical* —
same assignment, same per-shard device traffic, same makespan.
"""

import random

import pytest

from repro.db.config import EngineConfig
from repro.db.errors import KeyNotFoundError
from repro.db.stats import EngineReport
from repro.shard import ShardedBlobDB, ShardRouter
from repro.sim.cost import CostModel, CostParams
from repro.sim.workers import WorkerSim
from repro.workloads.ycsb import zipf_sampler


def small_config(**overrides):
    return EngineConfig(device_pages=16384, wal_pages=512,
                        catalog_pages=128, buffer_pool_pages=4096,
                        **overrides)


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
        sdb = ShardedBlobDB(n_shards=4, config=small_config())
        sdb.put(b"k", b"v" * 5000)
        assert sdb.get(b"k") == b"v" * 5000
        assert sdb.stat(b"k") == 5000
        assert sdb.exists(b"k")
        sdb.delete(b"k")
        assert not sdb.exists(b"k")
        with pytest.raises(KeyNotFoundError):
            sdb.get(b"k")

    def test_multiget_returns_request_order(self):
        sdb = ShardedBlobDB(n_shards=4, config=small_config())
        keys = keyset(24)
        sdb.multiput([(k, bytes([i]) * 512) for i, k in enumerate(keys)])
        got = sdb.multiget(list(reversed(keys)))
        for i, data in enumerate(reversed(got)):
            assert data == bytes([i]) * 512

    def test_multiput_is_replace(self):
        sdb = ShardedBlobDB(n_shards=2, config=small_config())
        sdb.multiput([(b"k", b"old" * 100)])
        sdb.multiput([(b"k", b"new" * 50)])
        assert sdb.get(b"k") == b"new" * 50

    def test_multiput_duplicate_key_last_writer_wins(self):
        sdb = ShardedBlobDB(n_shards=2, config=small_config())
        sdb.multiput([(b"dup", b"a" * 64), (b"x", b"y" * 64),
                      (b"dup", b"b" * 64)])
        assert sdb.get(b"dup") == b"b" * 64

    def test_scan_merges_shards_in_key_order(self):
        sdb = ShardedBlobDB(n_shards=4, config=small_config())
        keys = keyset(40)
        sdb.multiput([(k, b"p" * 128) for k in keys])
        rows = sdb.scan()
        assert [k for k, _ in rows] == sorted(keys)

    def test_batch_latency_is_makespan_not_sum(self):
        """The router clock advances by the slowest shard's sub-batch,
        strictly less than the serial sum of all sub-batches."""
        sdb = ShardedBlobDB(n_shards=4, config=small_config())
        keys = keyset(64)
        before = [s.model.clock.now_ns for s in sdb.shards]
        start = sdb.model.clock.now_ns
        sdb.multiput([(k, b"d" * 2048) for k in keys])
        observed = sdb.model.clock.now_ns - start
        per_shard = [s.model.clock.now_ns - b
                     for s, b in zip(sdb.shards, before)]
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
    sdb = ShardedBlobDB(n_shards=n_shards, config=small_config())
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
    sdb.drain_commit_window()
    return sdb.model.clock.now_ns - start


def run_workload(n_shards=4, seed_keys=48):
    """One pinned workload; returns (sdb, makespan_ns)."""
    sdb = ShardedBlobDB(n_shards=n_shards, config=small_config())
    keys = keyset(seed_keys)
    start = sdb.model.clock.now_ns
    sdb.multiput([(k, bytes([i % 251]) * 1024)
                  for i, k in enumerate(keys)])
    sdb.multiget(keys)
    sdb.multiput([(k, bytes([(i + 1) % 251]) * 1024)
                  for i, k in enumerate(keys[::2])])
    sdb.drain_commit_window()
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
        for shard_a, shard_b in zip(first.shards, second.shards):
            assert shard_a.device.stats == shard_b.device.stats
        # Identical makespan on the router clock.
        assert makespan_a == makespan_b
        # And identical per-shard clocks.
        assert [s.model.clock.now_ns for s in first.shards] == \
            [s.model.clock.now_ns for s in second.shards]

    def test_report_is_identical_across_runs(self):
        first, _ = run_workload()
        second, _ = run_workload()
        assert first.stats_report() == second.stats_report()


class TestRecovery:
    def test_data_survives_crash_recover(self):
        sdb, _ = run_workload()
        expected = {k: sdb.get(k) for k in keyset(48)}
        devices = sdb.crash()
        recovered = ShardedBlobDB.recover(devices, small_config())
        for key, data in expected.items():
            assert recovered.get(key) == data

    def test_recovery_is_priced_as_makespan(self):
        sdb, _ = run_workload()
        devices = sdb.crash()
        recovered = ShardedBlobDB.recover(devices, small_config())
        assert recovered.recovery_makespan_ns > 0
        assert recovered.recovery_makespan_ns < \
            recovered.recovery_serial_ns

    def test_recovery_speedup_is_near_linear(self):
        """4 shards with balanced data recover in well under half the
        serial replay time."""
        sdb, _ = run_workload(n_shards=4, seed_keys=64)
        devices = sdb.crash()
        recovered = ShardedBlobDB.recover(devices, small_config())
        speedup = recovered.recovery_serial_ns / \
            recovered.recovery_makespan_ns
        assert speedup > 2.0

    def test_recovery_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            sdb, _ = run_workload()
            recovered = ShardedBlobDB.recover(sdb.crash(), small_config())
            outcomes.append((recovered.recovery_makespan_ns,
                             recovered.recovery_serial_ns))
        assert outcomes[0] == outcomes[1]


class TestShardReport:
    def test_single_shard_report_has_no_imbalance(self):
        """One-shard reports must not divide by the shard count or
        invent an imbalance ratio (the N=1 guard)."""
        sdb = ShardedBlobDB(n_shards=1, config=small_config())
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
        sdb = ShardedBlobDB(n_shards=4, config=small_config())
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
            sum(r.wal_records for r in sdb.shard_reports())
        assert report.device_bytes_read == \
            sum(r.device_bytes_read for r in sdb.shard_reports())


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
