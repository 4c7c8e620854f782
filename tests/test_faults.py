"""Unit tests for the deterministic fault-injection substrate:
FaultPlan schedules, FaultyNVMe damage semantics, per-page protection
CRCs, RetryPolicy backoff, WAL scan hardening, quarantine, and scrub."""

import pytest

from repro.db import BlobDB, EngineConfig
from repro.db.errors import (
    ChecksumMismatchError,
    DeviceIOError,
    RetriesExhaustedError,
)
from repro.sim.cost import CostModel
from repro.storage.device import IoRequest, SimulatedNVMe
from repro.storage.faults import (
    FaultPlan,
    FaultSpec,
    FaultyNVMe,
    RetryPolicy,
)
from repro.wal.records import (
    TxnBeginRecord,
    TxnCommitRecord,
    find_frame_beyond,
    scan_records,
)


def make_device(pages=256, protect=True):
    model = CostModel()
    return SimulatedNVMe(model, capacity_pages=pages, protect=protect), model


def small_config(**overrides):
    defaults = dict(device_pages=2048, wal_pages=128, catalog_pages=64,
                    buffer_pool_pages=512)
    defaults.update(overrides)
    return EngineConfig(**defaults)


class TestProtectionInfo:
    def test_clean_write_read_roundtrip_verifies(self):
        dev, _ = make_device()
        dev.write(10, b"\xab" * 8192)
        assert dev.read(10, 2) == b"\xab" * 8192
        assert dev.integrity.pages_protected == 2
        assert dev.integrity.pages_verified == 2
        assert dev.integrity.checksum_failures == 0

    def test_poke_breaks_crc_and_read_raises(self):
        dev, _ = make_device()
        dev.write(5, b"\x01" * 4096)
        dev._poke(5, b"\x02" * 4096)
        assert not dev.check_page(5)
        with pytest.raises(ChecksumMismatchError) as exc_info:
            dev.read(5, 1)
        assert exc_info.value.pid == 5
        assert dev.integrity.checksum_failures == 1

    def test_unverified_read_returns_damaged_bytes(self):
        dev, _ = make_device()
        dev.write(5, b"\x01" * 4096)
        dev._poke(5, b"\x02" * 4096)
        assert dev.read(5, 1, verify=False) == b"\x02" * 4096

    def test_verify_range_locates_damage_without_raising(self):
        dev, _ = make_device()
        dev.write(0, b"\x07" * 4096 * 4)
        dev._poke(2, b"junk")
        assert dev.verify_range(0, 4) == [2]

    def test_never_written_pages_have_no_crc(self):
        dev, _ = make_device()
        assert dev.check_page(99)
        assert dev.read(99, 1) == b"\x00" * 4096

    def test_protect_off_skips_everything(self):
        dev, _ = make_device(protect=False)
        dev.write(1, b"\x01" * 4096)
        dev._poke(1, b"\x02" * 4096)
        assert dev.read(1, 1) == b"\x02" * 4096
        assert dev.verify_range(1, 1) == []


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        spec = FaultSpec(seed=42, torn_write=0.3, bit_flip=0.3,
                         transient_error=0.3)
        a, b = FaultPlan(spec), FaultPlan(spec)
        draws_a = [(a.draw_transient(), a.draw_torn_byte(4096),
                    a.draw_bit_flip(4, 4096)) for _ in range(50)]
        draws_b = [(b.draw_transient(), b.draw_torn_byte(4096),
                    b.draw_bit_flip(4, 4096)) for _ in range(50)]
        assert draws_a == draws_b
        assert a.stats == b.stats

    def test_transient_bursts_are_capped(self):
        plan = FaultPlan(FaultSpec(seed=1, transient_error=1.0,
                                   max_consecutive_transients=2))
        draws = [plan.draw_transient() for _ in range(9)]
        assert draws == [True, True, False] * 3
        assert plan.stats.transient_errors == 6

    def test_zero_rates_draw_nothing(self):
        plan = FaultPlan(FaultSpec(seed=3))
        assert not plan.draw_transient()
        assert plan.draw_torn_byte(4096) is None
        assert plan.draw_bit_flip(1, 4096) is None
        assert plan.draw_latency_spike_ns() == 0.0
        assert plan.stats.total == 0


class TestFaultyNVMe:
    def test_torn_write_keeps_prefix_reverts_suffix(self):
        dev, _ = make_device()
        dev.write(0, b"\xaa" * 8192)  # pre-image
        plan = FaultPlan(FaultSpec(seed=0, torn_write=1.0))
        faulty = FaultyNVMe(dev, plan)
        faulty.write(0, b"\xbb" * 8192)
        assert plan.stats.torn_writes == 1
        stored = dev.peek(0, 2)
        tear = stored.find(b"\xaa")
        assert 0 <= tear <= 8192                # some prefix landed
        assert stored[:tear] == b"\xbb" * tear  # new bytes up to the tear
        assert stored[tear:] == b"\xaa" * (8192 - tear)  # pre-image after
        # The protection CRC describes the *intended* write, so every
        # page at or past the tear fails verification.
        assert dev.verify_range(0, 2) == \
            [p for p in (0, 1) if tear < (p + 1) * 4096]

    def test_bit_flip_is_detected_by_crc(self):
        dev, _ = make_device()
        plan = FaultPlan(FaultSpec(seed=5, bit_flip=1.0))
        faulty = FaultyNVMe(dev, plan)
        faulty.write(7, b"\x00" * 4096)
        assert plan.stats.bit_flips == 1
        stored = dev.peek(7, 1)
        assert sum(bin(b).count("1") for b in stored) == 1  # exactly 1 bit
        with pytest.raises(ChecksumMismatchError):
            faulty.read(7, 1)

    def test_transient_errors_raise_then_clear(self):
        dev, _ = make_device()
        plan = FaultPlan(FaultSpec(seed=2, transient_error=1.0))
        faulty = FaultyNVMe(dev, plan)
        for _ in range(2):
            with pytest.raises(DeviceIOError):
                faulty.read(0, 1)
        faulty.read(0, 1)  # burst cap reached: the fault clears

    def test_latency_spike_advances_clock(self):
        dev, model = make_device()
        plan = FaultPlan(FaultSpec(seed=0, latency_spike=1.0,
                                   latency_spike_ns=5e6))
        faulty = FaultyNVMe(dev, plan)
        before = model.clock.now_ns
        faulty.read(0, 1)
        assert model.clock.now_ns - before >= 5e6
        assert plan.stats.latency_spikes == 1

    def test_delegates_device_interface(self):
        dev, _ = make_device()
        faulty = FaultyNVMe(dev, FaultPlan(FaultSpec(seed=0)))
        assert faulty.page_size == dev.page_size
        assert faulty.capacity_pages == dev.capacity_pages
        assert faulty.stats is dev.stats
        assert faulty.fault_stats.total == 0

    def test_clean_plan_is_transparent(self):
        dev, _ = make_device()
        faulty = FaultyNVMe(dev, FaultPlan(FaultSpec(seed=0)))
        faulty.submit([IoRequest(pid=0, npages=1, data=b"\x11" * 4096)])
        assert faulty.submit([IoRequest(pid=0, npages=1)]) == \
            [b"\x11" * 4096]

    @staticmethod
    def _fault_index_for(seed):
        """Submit an 8-write batch; return (k, applied-flags per request)."""
        dev, _ = make_device(protect=False)
        for i in range(8):
            dev.write(4 * i, b"\x00" * 4096, background=True)
        plan = FaultPlan(FaultSpec(seed=seed, transient_error=1.0,
                                   max_consecutive_transients=1))
        faulty = FaultyNVMe(dev, plan)
        batch = [IoRequest(pid=4 * i, npages=1, data=bytes([i + 1]) * 4096)
                 for i in range(8)]
        with pytest.raises(DeviceIOError) as err:
            faulty.submit(batch)
        k = int(str(err.value).rsplit(" ", 1)[-1])
        applied = tuple(dev.peek(4 * i, 1) == bytes([i + 1]) * 4096
                        for i in range(8))
        return k, applied

    def test_batch_fault_applies_exact_prefix(self):
        # A faulted batch is not atomic: requests before the drawn index
        # k land verbatim, k and everything after stay untouched.
        k, applied = self._fault_index_for(seed=9)
        assert 0 <= k < 8
        assert applied == tuple(i < k for i in range(8))

    def test_batch_fault_index_is_seed_deterministic(self):
        assert self._fault_index_for(seed=9) == self._fault_index_for(seed=9)
        # A different seed moves the tear point (9 vs 11 chosen to differ).
        assert self._fault_index_for(seed=9)[0] != \
            self._fault_index_for(seed=11)[0]


class TestRetryPolicy:
    def test_retries_then_succeeds_deterministically(self):
        model = CostModel()
        policy = RetryPolicy(model, attempts=4, base_delay_ns=50_000)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise DeviceIOError("EIO")
            return "ok"
        before = model.clock.now_ns
        assert policy.run(flaky) == "ok"
        assert len(calls) == 3
        assert policy.stats.retries == 2
        # Exact exponential backoff on the virtual clock: 50us + 100us.
        assert model.clock.now_ns - before == 150_000

    def test_exhaustion_raises_typed_error(self):
        model = CostModel()
        policy = RetryPolicy(model, attempts=3, base_delay_ns=1000)

        def always_fails():
            raise DeviceIOError("EIO forever")
        before = model.clock.now_ns
        with pytest.raises(RetriesExhaustedError):
            policy.run(always_fails)
        assert policy.stats.exhausted == 1
        assert policy.stats.retries == 2
        assert model.clock.now_ns - before == 1000 + 2000

    def test_non_transient_errors_pass_through(self):
        policy = RetryPolicy(CostModel(), attempts=5)

        def corrupt():
            raise ChecksumMismatchError("bad page")
        with pytest.raises(ChecksumMismatchError):
            policy.run(corrupt)
        assert policy.stats.retries == 0


class TestWalScan:
    def _frames(self, n):
        out = b""
        for seq in range(1, n + 1):
            out += TxnBeginRecord(txn_id=seq).encode(seq)
        return out

    def test_clean_scan_reaches_the_end(self):
        raw = self._frames(5)
        scan = scan_records(raw + b"\x00" * 64)
        assert len(scan.records) == 5
        assert scan.max_seq == 5
        assert scan.stop_reason == "end"
        assert scan.valid_bytes == len(raw)

    def test_tail_damage_stops_scan_with_bad_frame(self):
        raw = bytearray(self._frames(5))
        raw[-3] ^= 0xFF  # corrupt the last frame's CRC
        scan = scan_records(bytes(raw))
        assert len(scan.records) == 4
        assert scan.stop_reason == "bad_frame"
        assert find_frame_beyond(bytes(raw), scan.valid_bytes + 1,
                                 scan.max_seq) is None

    def test_mid_log_damage_leaves_valid_frames_beyond(self):
        frames = [TxnBeginRecord(txn_id=s).encode(s) for s in (1, 2, 3)]
        raw = bytearray(b"".join(frames))
        raw[len(frames[0]) + 6] ^= 0xFF  # corrupt frame 2
        scan = scan_records(bytes(raw))
        assert scan.max_seq == 1
        assert scan.stop_reason == "bad_frame"
        beyond = find_frame_beyond(bytes(raw), scan.valid_bytes + 1,
                                   scan.max_seq)
        assert beyond == len(frames[0]) + len(frames[1])

    def test_stale_lower_seq_frames_do_not_count_as_beyond(self):
        first = TxnBeginRecord(txn_id=9).encode(6)
        damaged = bytearray(TxnCommitRecord(txn_id=9).encode(7))
        damaged[6] ^= 0xFF  # damage the current-pass commit frame
        stale = TxnBeginRecord(txn_id=1).encode(3)  # earlier ring pass
        raw = first + bytes(damaged) + stale
        scan = scan_records(raw)
        assert scan.max_seq == 6
        assert scan.stop_reason == "bad_frame"
        # The stale frame validates structurally but belongs to an older
        # pass (seq 3 <= 6): truncation at the damage stays legal.
        assert find_frame_beyond(raw, scan.valid_bytes + 1,
                                 scan.max_seq) is None


class TestQuarantineAndScrub:
    def _put_one(self, db, data):
        db.create_table("t")
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k", data)

    def test_scrub_quarantines_rotted_blob(self):
        config = small_config()
        db = BlobDB(config)
        self._put_one(db, b"\x55" * 20_000)
        state = db.get_state("t", b"k")
        pid = state.page_ranges(db.tiers)[0][0]
        db.device._poke(pid, b"rot")
        stats = db.scrub()
        assert stats.blobs_scanned == 1
        assert stats.corrupt_found == 1
        with pytest.raises(ChecksumMismatchError):
            db.read_blob("t", b"k")
        report = db.stats_report()
        assert report.keys_quarantined == 1
        assert report.extents_quarantined >= 1
        assert report.scrub_corrupt_found == 1

    def test_scrub_clean_blob_stays_readable(self):
        db = BlobDB(small_config())
        self._put_one(db, b"\x66" * 9000)
        stats = db.scrub()
        assert stats.blobs_scanned == 1
        assert stats.corrupt_found == 0
        assert db.read_blob("t", b"k") == b"\x66" * 9000

    def test_scrub_charges_the_cost_model(self):
        db = BlobDB(small_config())
        self._put_one(db, b"\x77" * 50_000)
        before = db.model.clock.now_ns
        db.scrub()
        assert db.model.clock.now_ns > before

    def test_scrub_reads_at_queue_depth(self):
        """512 one-page BLOBs scrub as a few deep-queue batches, not as
        512 serialized read latencies."""
        db = BlobDB(small_config(hasher="reference"))
        db.create_table("t")
        for i in range(512):
            with db.transaction() as txn:
                db.put_blob(txn, "t", b"k%03d" % i, bytes([i % 251]) * 4000)
        db.drain_commit_window()
        rotted = db.get_state("t", b"k300").page_ranges(db.tiers)[0][0]
        db.device._poke(rotted, b"rot")
        reads = db.device.stats.read_requests
        before = db.model.clock.now_ns
        stats = db.scrub()
        elapsed = db.model.clock.now_ns - before
        assert stats.blobs_scanned == 512 and stats.corrupt_found == 1
        assert stats.bytes_scanned == 512 * 4000
        assert db._quarantined == {("t", b"k300")}
        assert elapsed < 512 * db.model.params.ssd_read_latency_ns / 10
        assert db.device.stats.read_requests - reads <= 512 // 64 + 1

    def test_deleting_quarantined_blob_clears_the_flag(self):
        db = BlobDB(small_config())
        self._put_one(db, b"\x11" * 5000)
        pid = db.get_state("t", b"k").page_ranges(db.tiers)[0][0]
        db.device._poke(pid, b"xx")
        db.scrub()
        with db.transaction() as txn:
            db.delete_blob(txn, "t", b"k")
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k", b"\x22" * 100)
        assert db.read_blob("t", b"k") == b"\x22" * 100

    def test_recovery_quarantines_checkpointed_rot(self):
        """Snapshot-owned content that rots after its checkpoint has no
        WAL records to repair from: recovery must quarantine, not serve."""
        config = small_config()
        db = BlobDB(config)
        self._put_one(db, b"\x99" * 30_000)
        db.checkpoint()  # key now owned by the snapshot, WAL rewound
        pid = db.get_state("t", b"k").page_ranges(db.tiers)[0][0]
        db.device._poke(pid, b"bitrot")
        recovered = BlobDB.recover(db.crash(), config)
        assert recovered.recovery_info.quarantined == [("t", b"k")]
        with pytest.raises(ChecksumMismatchError):
            recovered.read_blob("t", b"k")
        report = recovered.stats_report()
        assert report.keys_quarantined == 1
        assert report.extents_quarantined >= 1

    def test_recovery_truncates_torn_wal_tail(self):
        config = small_config()
        db = BlobDB(config)
        db.create_table("t")
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"a", b"\x01" * 5000)
        db.wal.sync_flush()
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"b", b"\x02" * 5000)
        db.wal.sync_flush()
        # Tear the WAL tail: flip one byte inside the final frame (the
        # second commit record), leaving earlier frames intact.
        tail_off = db.wal._write_off - 5
        pid = config.wal_region_pid + tail_off // config.page_size
        page = bytearray(db.device.peek(pid, 1))
        page[tail_off % config.page_size] ^= 0xFF
        db.device._poke(pid, bytes(page))
        recovered = BlobDB.recover(db.crash(), config)
        assert recovered.recovery_info.wal_records_truncated == 1
        assert recovered.recovery_info.wal_corrupt_pages >= 1
        # Key "a" (before the tear) survives; "b" rolled back or absent.
        assert recovered.read_blob("t", b"a") == b"\x01" * 5000
        assert not recovered.exists("t", b"b")


class TestEngineUnderFaults:
    def test_engine_retries_transient_device_errors(self):
        config = small_config()
        model = CostModel()
        inner = SimulatedNVMe(model, capacity_pages=config.device_pages)
        plan = FaultPlan(FaultSpec(seed=3, transient_error=0.4))
        db = BlobDB(config, device=FaultyNVMe(inner, plan), model=model)
        db.create_table("t")
        payload = b"\xc3" * 30_000
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k", payload)
        assert db.read_blob("t", b"k") == payload
        assert plan.stats.transient_errors > 0
        assert db.retry.stats.retries == plan.stats.transient_errors
        assert db.stats_report().io_retries == db.retry.stats.retries

    def test_report_surfaces_fault_counters(self):
        config = small_config()
        model = CostModel()
        inner = SimulatedNVMe(model, capacity_pages=config.device_pages)
        plan = FaultPlan(FaultSpec(seed=4, transient_error=0.5,
                                   latency_spike=0.3))
        db = BlobDB(config, device=FaultyNVMe(inner, plan), model=model)
        db.create_table("t")
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k", b"\x01" * 8000)
        report = db.stats_report()
        assert report.faults_injected == plan.stats.total
        assert report.fault_breakdown == plan.stats.as_dict()
        assert "faults injected" in report.format()


class TestPartitionDraws:
    def test_same_seed_same_partition_schedule(self):
        spec = FaultSpec(seed=21, partition=0.4, partition_max_ns=1e6)
        a, b = FaultPlan(spec), FaultPlan(spec)
        draws_a = [a.draw_partition_ns() for _ in range(60)]
        draws_b = [b.draw_partition_ns() for _ in range(60)]
        assert draws_a == draws_b
        assert a.stats.partitions == b.stats.partitions > 0

    def test_partition_durations_bounded(self):
        plan = FaultPlan(FaultSpec(seed=5, partition=1.0,
                                   partition_max_ns=2e6))
        for _ in range(40):
            ns = plan.draw_partition_ns()
            # Drawn uniformly in [0.5, 1.0] x partition_max_ns.
            assert 1e6 <= ns <= 2e6
        assert plan.stats.partitions == 40
        assert plan.stats.total == 40
        assert plan.stats.as_dict()["partitions"] == 40

    def test_zero_rate_never_partitions_nor_draws(self):
        plan = FaultPlan(FaultSpec(seed=5))
        # A zero-rate draw must not consume RNG state, so interleaving
        # it cannot perturb the other fault schedules.
        with_partitions = [plan.draw_transient() for _ in range(20)]
        plan2 = FaultPlan(FaultSpec(seed=5))
        interleaved = []
        for _ in range(20):
            assert plan2.draw_partition_ns() == 0.0
            interleaved.append(plan2.draw_transient())
        assert with_partitions == interleaved
        assert plan2.stats.partitions == 0


class TestFaultPlanFactory:
    def test_targets_get_independent_but_reproducible_plans(self):
        from repro.storage.faults import FaultPlanFactory, derive_seed

        spec = FaultSpec(seed=77, network_error=0.5)
        fac_a = FaultPlanFactory(spec)
        fac_b = FaultPlanFactory(spec)
        targets = ["g0.m1.link", "g0.m2.link", "g1.m1.link"]
        draws_a = {t: [fac_a.plan_for(t).draw_network_fault()
                       for _ in range(40)] for t in targets}
        draws_b = {t: [fac_b.plan_for(t).draw_network_fault()
                       for _ in range(40)] for t in targets}
        # Reproducible: same base seed + target -> same schedule ...
        assert draws_a == draws_b
        # ... yet independent: distinct targets get distinct schedules.
        assert draws_a["g0.m1.link"] != draws_a["g0.m2.link"]
        seeds = {derive_seed(77, t) for t in targets}
        assert len(seeds) == len(targets)

    def test_plan_for_caches_and_stats_aggregate(self):
        from repro.storage.faults import FaultPlanFactory

        fac = FaultPlanFactory(FaultSpec(seed=1, network_error=1.0))
        plan = fac.plan_for("x")
        assert fac.plan_for("x") is plan
        plan.draw_network_fault()
        fac.plan_for("y").draw_network_fault()
        assert fac.stats().network_errors == 2


class TestFaultyNVMeAfterRecovery:
    """Regression: faulting a crashed-then-recovered device.

    ``BlobDB.crash()`` hands back the (fault-wrapped) device and
    ``BlobDB.recover`` immediately calls state methods like
    ``verify_range`` on it.  The wrapper's ``__getattr__`` must forward
    those with fault *accounting* (latency spikes on the shared clock)
    but never inject failures — recovery calls them without retry.
    """

    def test_recovery_over_faulty_wrapper_keeps_accounting(self):
        config = small_config()
        model = CostModel()
        inner = SimulatedNVMe(model, capacity_pages=config.device_pages)
        plan = FaultPlan(FaultSpec(seed=9, latency_spike=1.0,
                                   latency_spike_ns=100_000.0))
        db = BlobDB(config, device=FaultyNVMe(inner, plan), model=model)
        db.create_table("t")
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k", b"\x07" * 9000)
        device = db.crash()
        assert isinstance(device, FaultyNVMe)  # wrapper identity survives
        spikes_before = plan.stats.latency_spikes
        db2 = BlobDB.recover(device, config, model=model)
        assert db2.read_blob("t", b"k") == b"\x07" * 9000
        # Recovery's verify_range calls went through the wrapper and
        # were accounted as latency spikes, not injected as failures.
        assert plan.stats.latency_spikes > spikes_before

    def test_state_method_forwarding_charges_spike(self):
        dev, model = make_device(protect=True)
        dev.write(0, b"\xaa" * 4096)
        plan = FaultPlan(FaultSpec(seed=2, latency_spike=1.0,
                                   latency_spike_ns=50_000.0))
        faulty = FaultyNVMe(dev, plan)
        before_ns = model.clock.now_ns
        assert faulty.check_page(0)
        assert model.clock.now_ns - before_ns >= 50_000
        assert plan.stats.latency_spikes == 1
        # Forwarded state methods are infallible by design: even a
        # plan that injects transients must not fail verify_range.
        plan2 = FaultPlan(FaultSpec(seed=2, transient_error=1.0))
        faulty2 = FaultyNVMe(dev, plan2)
        assert faulty2.verify_range(0, 1) == []
        assert plan2.stats.transient_errors == 0

    def test_getattr_recursion_guard(self):
        import copy

        dev, _ = make_device()
        faulty = FaultyNVMe(dev, FaultPlan(FaultSpec(seed=0)))
        # copy/pickle probe dunder-adjacent attrs before __init__ runs;
        # the guard must raise AttributeError instead of recursing.
        clone = copy.copy(faulty)
        assert clone.inner is dev
        with pytest.raises(AttributeError):
            faulty.no_such_attribute
