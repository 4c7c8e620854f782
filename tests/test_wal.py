"""Tests for WAL records, the ring writer, group commit, checkpoints."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import BlobDB, EngineConfig
from repro.sim.cost import CostModel
from repro.storage import (
    SimulatedNVMe,
    SimulatedPMem,
    StripedDevice,
    capabilities_of,
)
from repro.storage.faults import FaultPlan, FaultyNVMe
from repro.storage.remap import RemappedDevice
from repro.wal.records import (
    BlobChunkRecord,
    BlobDeltaRecord,
    CheckpointRecord,
    DeleteRecord,
    InsertRecord,
    TxnAbortRecord,
    TxnBeginRecord,
    TxnCommitRecord,
    UpdateRecord,
    decode_records,
    scan_records,
)
from repro.wal.writer import WalFullError, WalWriter

ALL_RECORDS = [
    TxnBeginRecord(txn_id=7),
    TxnCommitRecord(txn_id=7),
    TxnAbortRecord(txn_id=9),
    InsertRecord(txn_id=7, table="image", key=b"cat.jpg", value=b"\x01\x02"),
    DeleteRecord(txn_id=7, table="image", key=b"dog.jpg", old_value=b"\x03"),
    UpdateRecord(txn_id=7, table="t", key=b"k", old_value=b"o", new_value=b"n"),
    BlobDeltaRecord(txn_id=7, pid=42, offset=100, data=b"patch"),
    BlobChunkRecord(txn_id=7, table="t", key=b"k", offset=4096, data=b"seg"),
    CheckpointRecord(checkpoint_id=3),
]


class TestRecordEncoding:
    @pytest.mark.parametrize("record", ALL_RECORDS,
                             ids=lambda r: type(r).__name__)
    def test_roundtrip(self, record):
        decoded = list(decode_records(record.encode(seq=1)))
        assert decoded == [record]

    def test_stream_of_records(self):
        raw = b"".join(r.encode(seq=i + 1) for i, r in enumerate(ALL_RECORDS))
        assert list(decode_records(raw)) == ALL_RECORDS

    def test_decode_stops_at_corruption(self):
        good = TxnBeginRecord(txn_id=1).encode(seq=1)
        bad = bytearray(TxnCommitRecord(txn_id=2).encode(seq=2))
        bad[-1] ^= 0xFF  # break the CRC
        tail = TxnBeginRecord(txn_id=3).encode(seq=3)
        decoded = list(decode_records(good + bytes(bad) + tail))
        assert decoded == [TxnBeginRecord(txn_id=1)]

    def test_decode_stops_at_stale_sequence(self):
        """A ring seam (seq going backwards) ends the valid log."""
        fresh = TxnBeginRecord(txn_id=10).encode(seq=50)
        stale = TxnBeginRecord(txn_id=1).encode(seq=7)  # earlier pass
        decoded = list(decode_records(fresh + stale))
        assert decoded == [TxnBeginRecord(txn_id=10)]

    def test_decode_stops_at_zero_padding(self):
        raw = TxnBeginRecord(txn_id=1).encode(seq=1) + b"\x00" * 64
        assert list(decode_records(raw)) == [TxnBeginRecord(txn_id=1)]

    def test_decode_stops_at_truncated_frame(self):
        raw = TxnBeginRecord(txn_id=1).encode(seq=1)
        assert list(decode_records(raw[:-3])) == []

    def test_empty_input(self):
        assert list(decode_records(b"")) == []

    @given(st.text(max_size=20), st.binary(max_size=100), st.binary(max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_insert_roundtrip_property(self, table, key, value):
        record = InsertRecord(txn_id=1, table=table, key=key, value=value)
        assert list(decode_records(record.encode(seq=1))) == [record]


def make_writer(region_pages=64, buffer_bytes=8192, checkpoint_cb=None):
    model = CostModel()
    device = SimulatedNVMe(model, capacity_pages=256)
    return WalWriter(device, model, region_pid=0, region_pages=region_pages,
                     buffer_bytes=buffer_bytes, checkpoint_cb=checkpoint_cb)


class TestWalWriter:
    def test_append_returns_monotonic_lsn(self):
        wal = make_writer()
        lsns = [wal.append(TxnBeginRecord(txn_id=i)) for i in range(5)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 5

    def test_buffered_records_are_not_durable(self):
        wal = make_writer()
        wal.append(TxnBeginRecord(txn_id=1))
        assert wal.durable_records() == []

    def test_group_commit_flush_makes_records_durable(self):
        wal = make_writer()
        wal.append(TxnBeginRecord(txn_id=1))
        wal.append(TxnCommitRecord(txn_id=1))
        wal.group_commit_flush()
        assert wal.durable_records() == [TxnBeginRecord(txn_id=1),
                                         TxnCommitRecord(txn_id=1)]

    def test_group_commit_flush_charges_no_device_time(self):
        wal = make_writer()
        wal.append(TxnBeginRecord(txn_id=1))
        before = wal.model.clock.now_ns
        wal.group_commit_flush()
        # Background flush: bytes accounted, no foreground latency.
        assert wal.model.clock.now_ns == before
        assert wal.device.stats.bytes_written_by_category["wal"] > 0

    def test_sync_flush_charges_time(self):
        wal = make_writer()
        wal.append(TxnBeginRecord(txn_id=1))
        before = wal.model.clock.now_ns
        wal.sync_flush()
        assert wal.model.clock.now_ns > before
        assert wal.stats.synchronous_flushes == 1

    def test_multiple_flushes_preserve_record_stream(self):
        """Records spanning many partial-page flushes all decode."""
        wal = make_writer()
        expected = []
        for i in range(40):
            record = InsertRecord(txn_id=i, table="t", key=b"k%d" % i,
                                  value=b"v" * 100)
            wal.append(record)
            expected.append(record)
            if i % 3 == 0:
                wal.group_commit_flush()
        wal.sync_flush()
        assert wal.durable_records() == expected

    def test_oversized_append_flushes_synchronously(self):
        """A record bigger than the buffer segments through it, waiting."""
        wal = make_writer(region_pages=64, buffer_bytes=8192)
        big = BlobChunkRecord(txn_id=1, table="t", key=b"k",
                              offset=0, data=b"x" * 40000)
        wal.append(big)
        assert wal.stats.synchronous_flushes >= 4

    def test_record_larger_than_region_rejected(self):
        wal = make_writer(region_pages=4)
        with pytest.raises(WalFullError):
            wal.append(BlobChunkRecord(txn_id=1, table="t", key=b"k",
                                       offset=0, data=b"x" * 50000))

    def test_checkpoint_triggered_when_region_full(self):
        checkpoints = []
        wal = make_writer(region_pages=8, buffer_bytes=4096,
                          checkpoint_cb=lambda: checkpoints.append(1))
        for i in range(20):
            wal.append(InsertRecord(txn_id=i, table="t", key=b"k",
                                    value=b"v" * 3000))
            wal.group_commit_flush()
        assert checkpoints
        assert wal.stats.checkpoints == len(checkpoints)

    def test_records_after_checkpoint_decode_from_region_start(self):
        wal = make_writer(region_pages=8, buffer_bytes=4096)
        for i in range(20):
            wal.append(InsertRecord(txn_id=i, table="t", key=b"k",
                                    value=b"v" * 3000))
            wal.group_commit_flush()
        durable = wal.durable_records()
        assert durable  # only post-checkpoint tail remains
        assert all(isinstance(r, InsertRecord) for r in durable)

    def ring_passes(self, region_pages, buffer_bytes, n, flush_every):
        """Append ``n`` 3 KB inserts, flushing the group every
        ``flush_every``; return the records each ring pass held, the
        last one still in the ring."""
        passes = []
        wal = make_writer(region_pages=region_pages,
                          buffer_bytes=buffer_bytes,
                          checkpoint_cb=lambda: passes.append(
                              wal.durable_records()))
        records = [InsertRecord(txn_id=i, table="t", key=b"k%d" % i,
                                value=bytes([i]) * 3000) for i in range(n)]
        for i, record in enumerate(records, 1):
            wal.append(record)
            if i % flush_every == 0:
                wal.group_commit_flush()
        wal.group_commit_flush()
        return records, passes + [wal.durable_records()]

    def test_flush_longer_than_the_ring_goes_out_in_whole_frames(self):
        """A 60 KB group flush into a 16 KiB ring: pieces of whole
        frames with a checkpoint between them, so every pass decodes and
        every record lands exactly once, in order."""
        records, passes = self.ring_passes(4, 1 << 20, 20, flush_every=20)
        assert len(passes) >= 4
        assert [r for ring_pass in passes for r in ring_pass] == records

    def test_cut_frame_finishes_in_its_own_pass(self):
        """A 20 000-byte buffer over a 16 KiB ring: each overflow flush
        is longer than the ring and ends inside a frame; the next flush
        completes that frame in the same pass before it checkpoints."""
        records, passes = self.ring_passes(4, 20_000, 14, flush_every=99)
        assert len(passes) == 3
        assert [r for ring_pass in passes for r in ring_pass] == records

    def test_used_fraction_grows(self):
        wal = make_writer()
        assert wal.used_fraction() == 0.0
        wal.append(TxnBeginRecord(txn_id=1))
        assert wal.used_fraction() > 0.0

    def test_tiny_region_rejected(self):
        model = CostModel()
        device = SimulatedNVMe(model, capacity_pages=16)
        with pytest.raises(ValueError):
            WalWriter(device, model, region_pid=0, region_pages=1)

    def test_tiny_buffer_rejected(self):
        model = CostModel()
        device = SimulatedNVMe(model, capacity_pages=16)
        with pytest.raises(ValueError):
            WalWriter(device, model, region_pid=0, region_pages=4,
                      buffer_bytes=100)


#: Zero bytes a scan needs after the last frame to end cleanly: one
#: frame header plus its CRC.
END_MARKER = 17


def _flush_devices():
    """(name, device factory, expected write unit) for the oracle."""
    return [
        ("nvme", lambda m: SimulatedNVMe(m, capacity_pages=64), 512),
        ("pmem", lambda m: SimulatedPMem(m, capacity_pages=64), 1),
        ("striped2", lambda m: StripedDevice(m, capacity_pages=64,
                                             n_devices=2, stripe_pages=2),
         512),
        ("remapped", lambda m: RemappedDevice(m, physical_pages=64), 512),
        ("faulty-nvme", lambda m: FaultyNVMe(
            SimulatedNVMe(m, capacity_pages=64), FaultPlan(seed=3)), 512),
    ]


def _expected_flush_bytes(off, n, unit, room):
    """WAL bytes one flush writes: the units ``[off, off + n)`` touches,
    grown unit by unit until at least a frame header of zeros follows
    the tail, clipped at the end of the region."""
    head = off % unit
    written = -(-(head + n) // unit) * unit
    while written - (head + n) < END_MARKER:
        written += unit
    return min(written, room - (off - head))


class TestFlushShapeOracle:
    """A seeded stream of appends, flushes and checkpoints on every
    device kind; after each flush the region, the byte count and the
    checkpoint count are checked against an independent reference."""

    @pytest.mark.parametrize("name,make,unit", _flush_devices(),
                             ids=[d[0] for d in _flush_devices()])
    def test_every_flush_matches_the_reference(self, name, make, unit):
        model = CostModel()
        device = make(model)
        assert capabilities_of(device).write_unit == unit
        #: LSN at which each pass of the ring starts.
        rewinds = [0]

        def on_checkpoint():
            rewinds.append(wal.lsn - len(wal._buffer))

        wal = WalWriter(device, model, region_pid=2, region_pages=8,
                        buffer_bytes=4096, checkpoint_cb=on_checkpoint)
        ps = device.page_size
        slack = 0 if capabilities_of(device).byte_addressable else ps
        stream = bytearray()
        bounds = {0}
        ref = {"off": 0, "checkpoints": 0}
        inner_flush = wal._flush_prefix

        def wal_bytes():
            return device.stats.bytes_written_by_category["wal"]

        def checked_flush(nbytes, background):
            n = min(nbytes, len(wal._buffer))
            before = wal_bytes()
            # The trigger rule: checkpoint when the flush would cross the
            # region end minus one page of slack on block devices.
            if n > 0 and ref["off"] + n > wal.region_bytes - slack:
                ref["checkpoints"] += 1
                ref["off"] = 0
            off = ref["off"]
            inner_flush(nbytes, background)
            assert wal.stats.checkpoints == ref["checkpoints"]
            if n <= 0:
                assert wal_bytes() == before
                return
            ref["off"] += n
            assert wal._write_off == ref["off"]
            assert wal_bytes() - before == _expected_flush_bytes(
                off, n, unit, wal.region_bytes)
            durable = wal.lsn - len(wal._buffer)
            region = device.peek(2, 8)
            assert region[:wal._write_off] == stream[rewinds[-1]:durable]
            # A pass that starts on a frame boundary and a whole-buffer
            # flush must scan to a clean end; an overflow flush (or a
            # rewind inside one) may cut a frame.
            scan = scan_records(region)
            if not wal._buffer and rewinds[-1] in bounds:
                assert scan.stop_reason == "end"
                assert scan.valid_bytes == wal._write_off
            else:
                assert scan.valid_bytes <= wal._write_off

        wal._flush_prefix = checked_flush
        rng = random.Random(name)
        for i in range(600):
            op = rng.random()
            if op < 0.6:
                if rng.random() < 0.03:
                    record = BlobChunkRecord(txn_id=i, table="t", key=b"k",
                                             offset=0,
                                             data=rng.randbytes(9000))
                else:
                    record = InsertRecord(
                        txn_id=i, table="t", key=b"k%d" % i,
                        value=rng.randbytes(rng.randrange(0, 1500)))
                stream += record.encode(wal._next_seq)
                bounds.add(len(stream))
                wal.append(record)
            elif op < 0.85:
                wal.group_commit_flush()
            elif op < 0.97:
                wal.sync_flush()
            else:
                wal.checkpoint()
                ref["checkpoints"] += 1
                ref["off"] = 0
                rewinds.append(wal.lsn - len(wal._buffer))
        assert ref["checkpoints"] >= 3


def _tail_config():
    return EngineConfig(device_pages=256, wal_pages=8, catalog_pages=8,
                        buffer_pool_pages=64)


def _base_frame_len():
    return len(InsertRecord(txn_id=0, table="t", key=b"tail",
                            value=b"").encode(1))


class TestCleanTailAfterWrap:
    """A tail that ends just short of a unit end over a wrapped ring
    still scans as a clean end: the flush leaves a zero frame header."""

    @pytest.mark.parametrize("gap", [0, 5, 16])
    def test_clean_crash_truncates_nothing(self, gap):
        config = _tail_config()
        db = BlobDB(config)
        wal = db.wal
        assert capabilities_of(db.wal_device).write_unit == 512
        i = 0
        while wal.stats.checkpoints == 0:  # fill the first pass
            wal.append(InsertRecord(txn_id=10_000 + i, table="t",
                                    key=b"old", value=b"\xee" * 300))
            wal.group_commit_flush()
            i += 1
        wal.checkpoint()
        # One frame whose end lies ``gap`` bytes before a unit (and page)
        # end; the next unit still holds the previous pass's frames.
        end = 4096 - gap
        wal.append(InsertRecord(txn_id=1, table="t", key=b"tail",
                                value=b"\x01" * (end - _base_frame_len())))
        wal.group_commit_flush()
        assert wal._write_off == end
        region = db.wal_device.peek(config.wal_region_pid, config.wal_pages)
        assert scan_records(region).stop_reason == "end"
        recovered = BlobDB.recover(db.crash(), config)
        assert recovered.recovery_info.wal_records_truncated == 0

    def test_pmem_tail_ends_cleanly_after_wrap(self):
        model = CostModel()
        dev = SimulatedPMem(model, capacity_pages=16)
        wal = WalWriter(dev, model, region_pid=0, region_pages=4,
                        buffer_bytes=4096)
        while wal.stats.checkpoints == 0:
            wal.append(InsertRecord(txn_id=9, table="t", key=b"old",
                                    value=b"\xee" * 300))
            wal.group_commit_flush()
        wal.checkpoint()
        wal.append(TxnBeginRecord(txn_id=1))
        wal.group_commit_flush()
        assert scan_records(dev.peek(0, 4)).stop_reason == "end"


class _TearOnce(FaultPlan):
    """Tears the next write at byte ``at`` once armed; records lengths."""

    def __init__(self):
        super().__init__(seed=0)
        self.at = None
        self.lengths = []

    def draw_torn_byte(self, nbytes):
        self.lengths.append(nbytes)
        at, self.at = self.at, None
        if at is None or at >= nbytes:
            return None
        self.stats.torn_writes += 1
        return at


class TestTornSectorRewrite:
    def _run(self, tear_at):
        config = _tail_config()
        plan = _TearOnce()
        device = FaultyNVMe(SimulatedNVMe(CostModel(), capacity_pages=256),
                            plan)
        db = BlobDB(config, device=device)
        db.create_table("t")
        durable = {}
        for k in range(3):
            key, value = b"k%d" % k, bytes([k + 1]) * (70 + 31 * k)
            with db.transaction() as txn:
                db.put(txn, "t", key, value)
            durable[key] = value
        db.drain_commit_window()
        db.wal.sync_flush()
        assert db.wal._write_off % 512  # the tail sector is partial
        plan.lengths.clear()
        plan.at = tear_at
        with db.transaction() as txn:
            db.put(txn, "t", b"new", b"\x09" * 40)
        db.drain_commit_window()
        rewrite = plan.lengths[0]
        recovered = BlobDB.recover(db.crash(), config)
        return recovered, durable, plan, rewrite

    def test_tear_at_every_byte_keeps_the_durable_prefix(self):
        _, _, _, rewrite = self._run(None)
        assert rewrite == 512
        for tear_at in range(rewrite):
            recovered, durable, plan, _ = self._run(tear_at)
            assert plan.stats.torn_writes == 1
            for key, value in durable.items():
                assert recovered.get("t", key) == value, tear_at
            if recovered.exists("t", b"new"):
                assert recovered.get("t", b"new") == b"\x09" * 40
