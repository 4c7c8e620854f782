"""Unit tests for the deterministic fault-injection substrate:
FaultPlan schedules, FaultyNVMe damage semantics, per-page protection
CRCs, RetryPolicy backoff, WAL scan hardening, quarantine, and scrub."""

import random
import zlib

import pytest

from repro.db import BlobDB, EngineConfig
from repro.db.errors import (
    ChecksumMismatchError,
    DeviceIOError,
    RetriesExhaustedError,
    WalCorruptionError,
)
from repro.sim.cost import CostModel
from repro.storage.device import IoRequest, SimulatedNVMe
from repro.storage.faults import (
    FaultPlan,
    FaultSpec,
    FaultyNVMe,
    RetryPolicy,
)
from repro.storage.remap import RemappedDevice
from repro.wal.records import (
    BlobChunkRecord,
    InsertRecord,
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


class EagerProtection:
    """Oracle: the eager page store the lazy protection CRCs replaced.

    Every legitimate write CRCs every page it stores and every check
    recomputes the stored page's CRC.  Mixed in ahead of a device
    class, it overrides exactly the protection paths, so the lazy
    device and its eager twin can run one seeded stream side by side.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._eager_crc = {}

    def _scatter(self, pid, data):
        ps = self.page_size
        for i in range(len(data) // ps):
            page = bytes(data[i * ps:(i + 1) * ps])
            self._pages[pid + i] = page
            if self.protect:
                self._eager_crc[pid + i] = zlib.crc32(page)
                self.integrity.pages_protected += 1

    def _splice_bytes(self, offset, data):
        ps = self.page_size
        pos = 0
        while pos < len(data):
            pid, byte_off = divmod(offset + pos, ps)
            take = min(ps - byte_off, len(data) - pos)
            page = bytearray(self._pages.get(pid, b"\x00" * ps))
            page[byte_off:byte_off + take] = data[pos:pos + take]
            self._pages[pid] = bytes(page)
            if self.protect:
                self._eager_crc[pid] = zlib.crc32(self._pages[pid])
                self.integrity.pages_protected += 1
            pos += take

    def _poke(self, pid, data):
        ps = self.page_size
        for i in range((len(data) + ps - 1) // ps):
            chunk = bytes(data[i * ps:(i + 1) * ps])
            if len(chunk) < ps:
                old = self._pages.get(pid + i, b"\x00" * ps)
                chunk = chunk + old[len(chunk):]
            self._pages[pid + i] = chunk

    def check_page(self, pid):
        expected = self._eager_crc.get(pid)
        if expected is None:
            return True
        stored = self._pages.get(pid, b"\x00" * self.page_size)
        return zlib.crc32(stored) == expected

    def _verify_pages(self, pid, npages):
        if not self.protect:
            return
        self.model.crc32_bytes(npages * self.page_size)
        for p in range(pid, pid + npages):
            if p in self._eager_crc:
                self.integrity.pages_verified += 1
            if not self.check_page(p):
                self.integrity.checksum_failures += 1
                raise ChecksumMismatchError(
                    f"page {p} failed its protection CRC", pid=p)

    def verify_range(self, pid, npages):
        self._check_range(pid, npages)
        if not self.protect:
            return []
        self.model.crc32_bytes(npages * self.page_size)
        bad = [p for p in range(pid, pid + npages) if not self.check_page(p)]
        self.integrity.pages_verified += npages
        self.integrity.checksum_failures += len(bad)
        return bad


class EagerNVMe(EagerProtection, SimulatedNVMe):
    pass


FAULTY_SPEC = dict(torn_write=0.15, bit_flip=0.15, latency_spike=0.05)


def protection_transcript(dev, model, seed, ops=250, span=40,
                          byte_appends=False):
    """Drive a seeded write/fault/verify stream; return what it observed.

    ``dev`` is the bare device; the stream writes through a
    ``FaultyNVMe`` over it (torn writes, bit flips), pokes it directly
    (double pokes, identical-byte pokes, pokes of never-written pages,
    pokes later healed by a legitimate rewrite) and records every
    ``check_page``, ``verify_range`` and verifying-read verdict, the
    integrity counters and the virtual clock after each step.
    """
    rng = random.Random(seed)
    faulty = FaultyNVMe(dev, FaultPlan(FaultSpec(seed=seed, **FAULTY_SPEC)))
    ps = dev.page_size
    out = []
    for _ in range(ops):
        op = rng.choice(("write", "write", "zero", "same", "poke", "poke2",
                         "poke_same", "heal", "read", "verify", "check")
                        + (("append",) * 2 if byte_appends else ()))
        pid = rng.randrange(span)
        n = rng.randint(1, 4)
        if op == "write":
            faulty.write(pid, rng.randbytes(n * ps))
        elif op == "zero":
            faulty.write(pid, bytes(n * ps))
        elif op == "same":
            faulty.write(pid, dev.peek(pid, n))
        elif op == "poke":
            dev._poke(pid, rng.randbytes(rng.randint(1, ps + ps // 2)))
        elif op == "poke2":
            dev._poke(pid, rng.randbytes(16))
            dev._poke(pid, rng.randbytes(16))
        elif op == "poke_same":
            dev._poke(pid, dev.peek(pid, 1))
        elif op == "heal":
            dev.write(pid, rng.randbytes(ps))
        elif op == "append":
            faulty.write_bytes(pid * ps + rng.randrange(ps),
                               rng.randbytes(rng.randint(1, 2 * ps)))
        elif op == "read":
            try:
                out.append(("read", zlib.crc32(faulty.read(pid, n))))
            except ChecksumMismatchError as err:
                out.append(("read_bad", err.pid))
        elif op == "verify":
            out.append(("verify", dev.verify_range(pid, n)))
        else:
            out.append(("check", [dev.check_page(p) for p in range(span)]))
        integrity = dev.integrity
        out.append((op, integrity.pages_protected, integrity.pages_verified,
                    integrity.checksum_failures, model.clock.now_ns))
    out.append(("final", dev.verify_range(0, span),
                zlib.crc32(dev.peek(0, span + 8))))
    return out


class TestLazyProtectionIsExact:
    """The lazy CRCs give the eager oracle's verdicts and counters."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("protect", [True, False])
    def test_nvme_matches_eager_oracle(self, seed, protect):
        lazy_model, eager_model = CostModel(), CostModel()
        lazy = SimulatedNVMe(lazy_model, capacity_pages=64, protect=protect)
        eager = EagerNVMe(eager_model, capacity_pages=64, protect=protect)
        expected = protection_transcript(eager, eager_model, seed)
        assert protection_transcript(lazy, lazy_model, seed) == expected
        if protect:
            assert any(step[0] == "read_bad" for step in expected)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_remapper_matches_eager_oracle(self, seed):
        def remapper(physical_cls):
            model = CostModel()
            dev = RemappedDevice(model, physical_pages=256,
                                 logical_pages=64)
            dev.physical = physical_cls(model, capacity_pages=256)
            return dev, model

        lazy, lazy_model = remapper(SimulatedNVMe)
        eager, eager_model = remapper(EagerNVMe)
        assert protection_transcript(lazy, lazy_model, seed, span=24) == \
            protection_transcript(eager, eager_model, seed, span=24)

    def test_legitimate_write_computes_no_host_crc(self, monkeypatch):
        calls = []
        real_crc32 = zlib.crc32
        monkeypatch.setattr(zlib, "crc32",
                            lambda *a: calls.append(1) or real_crc32(*a))
        lazy, lazy_model = make_device(pages=512)
        eager_model = CostModel()
        eager = EagerNVMe(eager_model, capacity_pages=512)
        payload = bytes(range(256)) * 16 * 256
        lazy.write(0, payload)
        assert lazy.read(0, 256) == payload
        assert calls == []
        eager.write(0, payload)
        eager.read(0, 256)
        assert len(calls) == 2 * 256  # the oracle CRCs each page twice
        assert lazy_model.clock.now_ns == eager_model.clock.now_ns > 0
        assert lazy.integrity == eager.integrity

    def test_zero_pages_share_one_object(self):
        dev, _ = make_device(pages=2048)
        ps = dev.page_size
        dev.write(0, bytes(500 * ps))
        for pid in range(500, 1000):
            dev.write(pid, bytes(ps))
        assert dev.resident_pages() == 1000
        assert len({id(page) for page in dev._pages.values()}) == 1
        assert dev.peek(0, 1000) == bytes(1000 * ps)
        assert dev.read(0, 1000) == bytes(1000 * ps)


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


def probe_every_offset(raw, start, min_seq):
    """Reference resync probe: try each offset in Python, with no probe
    bound (frames in its images are shorter than its 4 KiB slice)."""
    for off in range(start, len(raw)):
        if scan_records(raw[off:off + 4096], min_seq).records:
            return off
    return None


class TestResyncProbeMatchesAnOffsetLoop:
    # Sequences whose range crosses one, two, three and four byte
    # boundaries of the big-endian field the probe's pattern matches.
    @pytest.mark.parametrize("first_seq", [1, 250, 65_530, (1 << 24) - 5,
                                           (1 << 32) - 3, 0x1234_5678_9A])
    def test_same_verdicts_on_seeded_damaged_logs(self, first_seq):
        rng = random.Random(first_seq)
        for _ in range(12):
            log = b"".join(
                InsertRecord(txn_id=seq, table="t", key=b"k",
                             value=rng.randbytes(rng.randint(0, 300)))
                .encode(seq)
                for seq in range(first_seq, first_seq + rng.randint(2, 12)))
            stale = b"".join(TxnBeginRecord(txn_id=s).encode(s)
                             for s in range(1, rng.randint(1, 40)))
            raw = bytearray(log + stale)
            hit = rng.randrange(len(log))
            if rng.random() < 0.5:
                raw[hit] ^= 1 << rng.randrange(8)
            else:
                junk = rng.randbytes(rng.randint(1, 600))
                raw[hit:hit + len(junk)] = junk
            scan = scan_records(bytes(raw), first_seq - 1)
            if scan.stop_reason != "bad_frame":
                continue
            args = (bytes(raw), scan.valid_bytes + 1, scan.max_seq)
            assert find_frame_beyond(*args) == probe_every_offset(*args)


class TestResyncProbePastLargeFrames:
    """A physlog chunk frame is as large as the WAL buffer (1 MiB by
    default): the resync probe must find a same-pass frame however far
    past the damage it starts, or truncation drops acknowledged
    commits."""

    def _store(self, size, commit_big=True):
        config = small_config(device_pages=4096, wal_pages=1024,
                              buffer_pool_pages=1024, log_policy="physlog")
        db = BlobDB(config)
        db.create_table("t")
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"before", b"\x07" * 3000)
        db.wal.sync_flush()
        big = random.Random(size).randbytes(size)
        if commit_big:
            with db.transaction() as txn:
                db.put_blob(txn, "t", b"big", big)
            db.wal.sync_flush()
            with db.transaction() as txn:
                db.put_blob(txn, "t", b"after", b"\x05" * 5000)
        else:
            # The crash comes right after the chunk's flush: it is the
            # log's last frame, and its transaction never commits.
            db.wal.append(BlobChunkRecord(txn_id=db.begin().txn_id,
                                          table="t", key=b"big", data=big))
        db.wal.sync_flush()
        # Locate the frame of big's (only) chunk record.
        off = 0
        for seq, record in scan_records(db.device.peek(
                config.wal_region_pid, config.wal_pages)).records:
            frame = record.encode(seq)
            if isinstance(record, BlobChunkRecord) and record.key == b"big":
                assert len(record.data) == size
                return db, config, off, len(frame)
            off += len(frame)
        raise AssertionError("no chunk frame for b'big'")

    def _flip(self, db, config, byte_off):
        pid = config.wal_region_pid + byte_off // config.page_size
        page = bytearray(db.device.peek(pid, 1))
        page[byte_off % config.page_size] ^= 0xFF
        db.device._poke(pid, bytes(page))

    # Byte 3 is the low byte of the frame's length field: the damaged
    # header declares a wrong length, so only a search finds the next
    # frame.  Byte 1 000 lies in the BLOB content.
    @pytest.mark.parametrize("where", [3, 1000])
    @pytest.mark.parametrize("size", [100_000, 200_000, 1 << 20])
    def test_damaged_chunk_mid_log_refuses(self, size, where):
        db, config, off, _ = self._store(size)
        self._flip(db, config, off + where)
        with pytest.raises(WalCorruptionError, match="same pass"):
            BlobDB.recover(db.crash(), config)

    @pytest.mark.parametrize("where", [3, 1000])
    @pytest.mark.parametrize("size", [100_000, 200_000, 1 << 20])
    def test_damaged_chunk_as_last_frame_truncates(self, size, where):
        db, config, off, length = self._store(size, commit_big=False)
        self._flip(db, config, off + where)
        recovered = BlobDB.recover(db.crash(), config)
        info = recovered.recovery_info
        assert info.wal_records_truncated == 1
        assert info.wal_corrupt_pages == 1
        assert recovered.read_blob("t", b"before") == b"\x07" * 3000
        assert not recovered.exists("t", b"big")


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
