"""Heterogeneous storage: capability typing, PMem tier, striping.

Covers the capability-negotiation edge cases (unaligned appends on
block devices, WAL placement fallbacks), the PMem byte-accounting rules
(appends are never rounded up to pages), the K=1 striping identity,
stripe fragment/makespan behaviour, and fault quarantine confined to a
single stripe member.
"""

import random

import pytest

from repro.db import BlobDB, EngineConfig
from repro.io import IoScheduler
from repro.sim.cost import SYSCALL_NS, CostModel
from repro.storage import (
    CapabilityError,
    DeviceStats,
    IoRequest,
    SimulatedNVMe,
    SimulatedPMem,
    StorageSet,
    StripedDevice,
    build_storage,
    capabilities_of,
    make_device,
)
from repro.storage.faults import FaultPlan, FaultPlanFactory, FaultSpec, FaultyNVMe
from tests.test_faults import EagerNVMe, EagerProtection, protection_transcript


class EagerPMem(EagerProtection, SimulatedPMem):
    pass


def small_config(**overrides):
    defaults = dict(device_pages=16384, wal_pages=512, catalog_pages=128,
                    buffer_pool_pages=4096)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def pmem_config(**overrides):
    # min_pmem_pages = 1 + 2*128 + 512 = 769 for this geometry.
    return small_config(pmem_pages=1024, **overrides)


class TestCapabilityNegotiation:
    def test_nvme_is_block_only(self):
        dev = SimulatedNVMe(CostModel(), capacity_pages=16)
        caps = capabilities_of(dev)
        assert caps.kind == "nvme"
        assert not caps.byte_addressable
        with pytest.raises(CapabilityError):
            dev.write_bytes(0, b"log record")
        with pytest.raises(CapabilityError):
            dev.read_bytes(0, 10)

    def test_striped_is_block_only(self):
        dev = StripedDevice(CostModel(), capacity_pages=64, n_devices=2,
                            stripe_pages=8)
        assert capabilities_of(dev).kind == "striped"
        assert capabilities_of(dev).stripe_width == 2
        with pytest.raises(CapabilityError):
            dev.write_bytes(0, b"log record")

    def test_pmem_is_byte_addressable(self):
        model = CostModel()
        dev = SimulatedPMem(model, capacity_pages=16)
        caps = capabilities_of(dev)
        assert caps.kind == "pmem"
        assert caps.byte_addressable
        dev.write_bytes(100, b"log record")
        assert dev.read_bytes(100, 10) == b"log record"
        assert model.pmem_time_ns > 0.0

    def test_fault_wrapper_passes_capabilities_through(self):
        model = CostModel()
        wrapped = FaultyNVMe(SimulatedPMem(model, capacity_pages=16),
                             FaultPlan(seed=1))
        assert capabilities_of(wrapped).byte_addressable

    def test_wal_placement_pmem_requires_tier(self):
        with pytest.raises(CapabilityError):
            small_config(wal_placement="pmem")

    def test_wal_placement_auto_falls_back_to_nvme(self):
        config = small_config(wal_placement="auto")
        storage = build_storage(config, CostModel())
        assert not storage.heterogeneous
        assert storage.wal is storage.data
        db = BlobDB(config)
        assert capabilities_of(db.wal_device).write_unit == 512

    def test_wal_placement_auto_prefers_pmem(self):
        config = pmem_config()
        assert config.wal_on_pmem
        storage = build_storage(config, CostModel())
        assert storage.heterogeneous
        assert capabilities_of(storage.wal).kind == "pmem"
        assert storage.wal is storage.meta
        assert capabilities_of(storage.data).kind == "nvme"

    def test_wal_placement_nvme_forces_block_device(self):
        config = pmem_config(wal_placement="nvme")
        assert not config.wal_on_pmem
        assert config.wal_region_pid == 0  # ring leads the data device
        assert config.data_start_pid == config.wal_pages
        storage = build_storage(config, CostModel())
        assert capabilities_of(storage.meta).kind == "pmem"
        assert storage.wal is storage.data
        db = BlobDB(config)
        assert capabilities_of(db.wal_device).write_unit == 512

    def test_undersized_pmem_tier_rejected(self):
        with pytest.raises(ValueError):
            small_config(pmem_pages=100)

    def test_make_device_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_device(CostModel(), capacity_pages=16, kind="tape")


class TestByteAccounting:
    def test_byte_appends_never_round_up_to_pages(self):
        dev = SimulatedPMem(CostModel(), capacity_pages=16)
        dev.write_bytes(0, b"x" * 100)
        dev.write_bytes(100, b"y" * 37)
        assert dev.stats.bytes_written_by_category["wal"] == 137
        assert dev.stats.byte_append_requests == 2
        assert dev.stats.write_requests == 2
        assert dev.stats.write_amplification(137) == pytest.approx(1.0)

    def test_write_amplification_zero_denominator_guard(self):
        stats = DeviceStats()
        with pytest.raises(ValueError):
            stats.write_amplification(0)
        with pytest.raises(ValueError):
            stats.write_amplification(-10)

    def test_delta_since_tracks_byte_appends(self):
        dev = SimulatedPMem(CostModel(), capacity_pages=16)
        dev.write_bytes(0, b"a" * 50)
        before = dev.stats.snapshot()
        dev.write_bytes(50, b"b" * 20)
        delta = dev.stats.delta_since(before)
        assert delta.byte_append_requests == 1
        assert delta.bytes_written_by_category["wal"] == 20
        # The snapshot is an independent copy, not a live view.
        assert before.byte_append_requests == 1

    def test_merge_unions_custom_categories(self):
        a = DeviceStats()
        a.bytes_written_by_category["exotic"] = 5
        a.byte_append_requests = 2
        b = DeviceStats()
        b.bytes_written_by_category["exotic"] = 7
        total = DeviceStats.merge([a, b])
        assert total.bytes_written_by_category["exotic"] == 12
        assert total.byte_append_requests == 2
        # Default categories survive the merge (seeded by the cls()).
        assert "wal" in total.bytes_written_by_category


class TestWalOnPMem:
    def test_engine_end_to_end_with_crash_recovery(self):
        config = pmem_config()
        db = BlobDB(config)
        assert db.storage.heterogeneous
        assert capabilities_of(db.wal_device).write_unit == 1
        db.create_table("t")
        with db.transaction() as txn:
            db.put(txn, "t", b"k1", b"hello pmem")
        db.drain_commit_window()
        db.wal.sync_flush()
        assert db.wal_device.stats.byte_append_requests > 0
        storage = db.crash()
        assert isinstance(storage, StorageSet)
        db2 = BlobDB.recover(storage, config, db.model)
        assert db2.get("t", b"k1") == b"hello pmem"

    def test_meta_only_pmem_end_to_end(self):
        config = pmem_config(wal_placement="nvme")
        db = BlobDB(config)
        db.create_table("t")
        with db.transaction() as txn:
            db.put(txn, "t", b"k1", b"block wal")
        db.drain_commit_window()
        db.wal.sync_flush()
        # A block WAL writes whole sectors and pays fdatasync for its
        # durable point (an empty flush costs exactly that syscall).
        wal_caps = capabilities_of(db.wal_device)
        assert wal_caps.write_unit == 512 and not wal_caps.byte_addressable
        assert db.wal_device.stats.bytes_written_by_category["wal"] % 512 == 0
        before = db.model.clock.now_ns
        db.wal.sync_flush()
        assert db.model.clock.now_ns - before == SYSCALL_NS["fdatasync"]
        storage = db.crash()
        db2 = BlobDB.recover(storage, config, db.model)
        assert db2.get("t", b"k1") == b"block wal"

    def test_durable_ack_cheaper_on_pmem(self):
        """PMem wins at every group-commit window: a durable ack per
        commit, then windows covering ~25 and ~100 commits, which
        shrink the gap without closing it."""
        def durable_commits_ns(on_pmem, window_ns):
            # 1.4 MB of inline rows: checkpoints need a wider catalog.
            db = BlobDB(small_config(
                catalog_pages=512, pmem_pages=2048 if on_pmem else 0,
                group_commit_window_ns=window_ns))
            db.create_table("t")
            rng = random.Random(29)
            for i in range(16):  # untimed warm-up of pool and WAL ring
                with db.transaction() as txn:
                    db.put(txn, "t", b"warm%04d" % i, rng.randbytes(8192))
            db.drain_commit_window()
            db.wal.sync_flush()
            clock = db.model.clock
            start = clock.now_ns
            deadline = None
            for i in range(160):
                with db.transaction() as txn:
                    db.put(txn, "t", b"pm%05d" % i, rng.randbytes(8192))
                if deadline is None:
                    deadline = clock.now_ns + window_ns
                if clock.now_ns >= deadline:
                    # The commit that closes the window pays the
                    # durability point for everyone who rode along.
                    db.drain_commit_window()
                    db.wal.sync_flush()
                    deadline = None
            return clock.now_ns - start

        for window_ns in (0.0, 20_000.0, 80_000.0):
            pmem = durable_commits_ns(True, window_ns)
            nvme = durable_commits_ns(False, window_ns)
            assert pmem < nvme, (window_ns, pmem, nvme)


class TestFaultedByteAppends:
    def test_torn_append_detected_not_silent(self):
        model = CostModel()
        pmem = SimulatedPMem(model, capacity_pages=16)
        dev = FaultyNVMe(pmem, FaultPlan(seed=5, torn_write=1.0))
        dev.write_bytes(0, b"\xab" * 200)
        assert dev.plan.stats.torn_writes == 1
        # The torn suffix reverted to the pre-image without a CRC
        # refresh, so the damage is detectable — never silent.
        assert pmem.verify_range(0, 1) == [0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lazy_protection_matches_eager_oracle(self, seed):
        lazy_model, eager_model = CostModel(), CostModel()
        lazy = SimulatedPMem(lazy_model, capacity_pages=64)
        eager = EagerPMem(eager_model, capacity_pages=64)
        expected = protection_transcript(eager, eager_model, seed,
                                         byte_appends=True)
        assert protection_transcript(lazy, lazy_model, seed,
                                     byte_appends=True) == expected
        assert any(step[0] == "read_bad" for step in expected)

    def test_block_inner_raises_before_consuming_draws(self):
        plan = FaultPlan(seed=5, torn_write=1.0, bit_flip=1.0)
        dev = FaultyNVMe(SimulatedNVMe(CostModel(), capacity_pages=16), plan)
        with pytest.raises(CapabilityError):
            dev.write_bytes(0, b"log record")
        assert plan.stats.total == 0


class TestStriping:
    def test_k1_is_byte_identical_to_bare_nvme(self):
        def run(dev, model):
            ps = dev.page_size
            dev.write(0, b"\x01" * (4 * ps), category="data")
            dev.write(16, b"\x02" * (2 * ps), category="wal",
                      background=True)
            out = dev.read(0, 4)
            batch = dev.submit([IoRequest(pid=0, npages=2),
                                IoRequest(pid=8, npages=4,
                                          data=b"\x03" * (4 * ps))])
            return out, batch[0], model.clock.now_ns

        m_bare, m_stripe = CostModel(), CostModel()
        bare = SimulatedNVMe(m_bare, capacity_pages=256)
        striped = StripedDevice(m_stripe, capacity_pages=256, n_devices=1,
                                stripe_pages=8)
        out_b, batch_b, ns_b = run(bare, m_bare)
        out_s, batch_s, ns_s = run(striped, m_stripe)
        assert out_b == out_s
        assert batch_b == batch_s
        assert ns_b == ns_s  # same virtual time, not merely close
        assert bare.stats == striped.stats

    def test_fragments_round_trip_across_members(self):
        model = CostModel()
        dev = StripedDevice(model, capacity_pages=240, n_devices=3,
                            stripe_pages=4)
        ps = dev.page_size
        pattern = bytes(range(256)) * (10 * ps // 256)
        dev.write(5, pattern)  # crosses three chunk boundaries
        assert dev.read(5, 10) == pattern
        assert all(m.resident_pages() > 0 for m in dev.members)

    def test_makespan_speedup_over_widths(self):
        """Scattered 8-page extent reads plus periodic write-back
        batches at QD 32: only the number of member queues varies."""
        def elapsed(n_devices):
            model = CostModel()
            dev = StripedDevice(model, capacity_pages=8192,
                                n_devices=n_devices, stripe_pages=8)
            sched = IoScheduler(dev, model, queue_depth=32,
                                max_merge_pages=64)
            extent = 8 * dev.page_size
            rng = random.Random(13)
            for i in range(128):
                dev.write(i * 8, rng.randbytes(extent), background=True)
            start = model.clock.now_ns
            for round_no in range(24):
                for i in rng.sample(range(128), 96):
                    sched.submit_read(i * 8, 8)
                sched.drain()
                if round_no % 3 == 2:
                    for i in rng.sample(range(128), 32):
                        sched.submit_write(i * 8, rng.randbytes(extent))
                    sched.drain()
            return model.clock.now_ns - start

        one, two, four = elapsed(1), elapsed(2), elapsed(4)
        # Parallel member queues, makespan pricing.
        assert one >= two >= four
        assert one >= 2.0 * four

    def test_scheduler_keeps_coalesced_runs_inside_one_stripe(self):
        model = CostModel()
        dev = StripedDevice(model, capacity_pages=64, n_devices=2,
                            stripe_pages=4)
        ps = dev.page_size
        dev.write(0, b"\x05" * (8 * ps), background=True)
        sched = IoScheduler(dev, model, queue_depth=8, max_merge_pages=64)
        for pid in range(8):
            sched.submit_read(pid, 1)
        sched.drain()
        # pids 0..3 and 4..7 live on different members: one coalesced
        # run each, never a single 8-page run spanning the boundary.
        assert sched.stats.requests_in == 8
        assert sched.stats.requests_out == 2

    def test_fault_factory_gives_each_member_its_own_plan(self):
        factory = FaultPlanFactory(FaultSpec(seed=9, bit_flip=0.5))
        dev = StripedDevice(CostModel(), capacity_pages=64, n_devices=4,
                            stripe_pages=4, fault_factory=factory)
        assert sorted(factory.plans) == [
            "stripe0", "stripe1", "stripe2", "stripe3"]
        seeds = {plan.spec.seed for plan in factory.plans.values()}
        assert len(seeds) == 4  # independent schedules per member
        assert all(isinstance(m, FaultyNVMe) for m in dev.members)

    def test_single_member_fault_quarantine(self):
        class OneBadMember:
            """stripe1 flips a bit on every write; the rest are clean."""

            def plan_for(self, target):
                rate = 1.0 if target == "stripe1" else 0.0
                return FaultPlan(FaultSpec(seed=11, bit_flip=rate))

        model = CostModel()
        dev = StripedDevice(model, capacity_pages=256, n_devices=4,
                            stripe_pages=8, fault_factory=OneBadMember())
        ps = dev.page_size
        for i in range(32):
            dev.write(i * 8, bytes([i]) * (8 * ps), background=True)
        bad = dev.verify_range(0, 256)
        assert bad, "the flipping member must damage at least one page"
        # Every damaged logical pid maps back to member 1's chunks —
        # the quarantine never spreads to the healthy members.
        assert all((pid // 8) % 4 == 1 for pid in bad)
        assert dev.fault_stats.bit_flips == len(
            {pid // 8 for pid in bad}) or dev.fault_stats.bit_flips > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lazy_protection_matches_eager_oracle(self, seed):
        def striped(member_cls):
            model = CostModel()
            dev = StripedDevice(model, capacity_pages=64, n_devices=2,
                                stripe_pages=4)
            dev.members = [member_cls(m.model, capacity_pages=m.capacity_pages)
                           for m in dev.members]
            return dev, model

        lazy, lazy_model = striped(SimulatedNVMe)
        eager, eager_model = striped(EagerNVMe)
        expected = protection_transcript(eager, eager_model, seed)
        assert protection_transcript(lazy, lazy_model, seed) == expected
        assert any(step[0] == "read_bad" for step in expected)

    def test_striped_engine_end_to_end(self):
        config = small_config(stripe_devices=4, stripe_chunk_pages=16)
        db = BlobDB(config)
        assert capabilities_of(db.device).stripe_width == 4
        db.create_table("t")
        payload = bytes(range(256)) * 64
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"big", payload)
        db.drain_commit_window()
        assert db.read_blob("t", b"big") == payload
        storage = db.crash()
        db2 = BlobDB.recover(storage, config, db.model)
        assert db2.read_blob("t", b"big") == payload
