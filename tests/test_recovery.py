"""Crash & recovery tests (Section III-C BLOB recoverability).

The decisive scenarios: content committed before a crash must survive;
uncommitted work must vanish; and a crash in the window between WAL
durability and the extent flush must be detected by the SHA-256
validation and rolled back (the "failed transaction" undo list).
"""

import hashlib
import random

import pytest

from repro.core import recovery
from repro.core.recovery import VERIFY_WINDOW_PAGES, verify_states
from repro.db import BlobDB, EngineConfig
from repro.db.errors import DeviceIOError, WalCorruptionError
from repro.sim.cost import SYSCALL_NS, CostModel
from repro.storage.device import SimulatedNVMe
from repro.storage.faults import FaultPlan, FaultSpec, FaultyNVMe
from repro.wal.records import (
    END_MARKER_BYTES,
    InsertRecord,
    find_frame_beyond,
    scan_records,
)
from repro.wal.writer import SCAN_CHUNK_PAGES, SCAN_QUEUE_DEPTH, scan_region


def small_config(**overrides):
    defaults = dict(device_pages=16384, wal_pages=512, catalog_pages=256,
                    buffer_pool_pages=4096)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def crash_and_recover(db):
    config = db.config
    device = db.crash()
    return BlobDB.recover(device, config)


class TestCommittedDataSurvives:
    def test_blob_survives_crash(self):
        db = BlobDB(small_config())
        db.create_table("image")
        payload = bytes(range(256)) * 300
        with db.transaction() as txn:
            db.put_blob(txn, "image", b"cat.jpg", payload)
        recovered = crash_and_recover(db)
        assert recovered.read_blob("image", b"cat.jpg") == payload
        assert recovered.failed_txns == []

    def test_inline_value_survives_crash(self):
        db = BlobDB(small_config())
        db.create_table("kv")
        with db.transaction() as txn:
            db.put(txn, "kv", b"k", b"inline-value")
        recovered = crash_and_recover(db)
        assert recovered.get("kv", b"k") == b"inline-value"

    def test_multiple_tables_and_blobs(self):
        db = BlobDB(small_config())
        db.create_table("image")
        db.create_table("document")
        blobs = {(t, bytes([i])): bytes([i]) * (1000 * (i + 1))
                 for t in ("image", "document") for i in range(5)}
        for (table, key), data in blobs.items():
            with db.transaction() as txn:
                db.put_blob(txn, table, key, data)
        recovered = crash_and_recover(db)
        for (table, key), data in blobs.items():
            assert recovered.read_blob(table, key) == data

    def test_committed_delete_survives_crash(self):
        db = BlobDB(small_config())
        db.create_table("image")
        with db.transaction() as txn:
            db.put_blob(txn, "image", b"k", b"doomed")
        with db.transaction() as txn:
            db.delete_blob(txn, "image", b"k")
        recovered = crash_and_recover(db)
        assert not recovered.exists("image", b"k")

    def test_committed_append_survives_crash(self):
        db = BlobDB(small_config())
        db.create_table("image")
        with db.transaction() as txn:
            db.put_blob(txn, "image", b"g", b"part1|")
        with db.transaction() as txn:
            db.append_blob(txn, "image", b"g", b"part2")
        recovered = crash_and_recover(db)
        assert recovered.read_blob("image", b"g") == b"part1|part2"

    def test_tables_created_after_checkpoint_survive(self):
        db = BlobDB(small_config())
        db.create_table("early")
        db.checkpoint()
        db.create_table("late")
        with db.transaction() as txn:
            db.put_blob(txn, "late", b"k", b"v")
        recovered = crash_and_recover(db)
        assert "late" in recovered.list_tables()
        assert recovered.read_blob("late", b"k") == b"v"


class TestUncommittedDataVanishes:
    def test_open_transaction_lost(self):
        db = BlobDB(small_config())
        db.create_table("image")
        txn = db.begin()
        db.put_blob(txn, "image", b"limbo", b"never committed")
        # No commit; crash now.
        recovered = crash_and_recover(db)
        assert not recovered.exists("image", b"limbo")

    def test_aborted_transaction_stays_aborted(self):
        db = BlobDB(small_config())
        db.create_table("image")
        txn = db.begin()
        db.put_blob(txn, "image", b"k", b"aborted")
        db.abort(txn)
        recovered = crash_and_recover(db)
        assert not recovered.exists("image", b"k")

    def test_uncommitted_extents_are_reclaimable(self):
        """Allocations of lost transactions leave no holes."""
        config = small_config()
        db = BlobDB(config)
        db.create_table("image")
        txn = db.begin()
        db.put_blob(txn, "image", b"limbo", b"x" * 100_000)
        recovered = crash_and_recover(db)
        # The recovered engine can allocate the same space again.
        with recovered.transaction() as txn2:
            recovered.put_blob(txn2, "image", b"fresh", b"y" * 100_000)
        assert recovered.read_blob("image", b"fresh") == b"y" * 100_000


class TestShaValidationWindow:
    def _crash_between_wal_and_extent_flush(self, db, table, key, data):
        """Commit whose extent flush never reaches the device."""
        txn = db.begin()
        db.put_blob(txn, table, key, data)
        original = db.pool.flush_batch
        db.pool.flush_batch = lambda *a, **k: 0  # extents never flushed
        try:
            db.commit(txn)
        finally:
            db.pool.flush_batch = original

    def test_failed_blob_txn_is_undone(self):
        db = BlobDB(small_config())
        db.create_table("image")
        self._crash_between_wal_and_extent_flush(db, "image", b"torn",
                                                 b"t" * 50_000)
        recovered = crash_and_recover(db)
        # Analysis found the digest mismatch: txn on the undo list,
        # its effects absent (Section III-C).
        assert recovered.failed_txns
        assert not recovered.exists("image", b"torn")

    def test_failed_txn_extents_are_reusable(self):
        db = BlobDB(small_config())
        db.create_table("image")
        self._crash_between_wal_and_extent_flush(db, "image", b"torn",
                                                 b"t" * 50_000)
        recovered = crash_and_recover(db)
        with recovered.transaction() as txn:
            recovered.put_blob(txn, "image", b"ok", b"o" * 50_000)
        assert recovered.read_blob("image", b"ok") == b"o" * 50_000

    def test_healthy_txns_unaffected_by_failed_one(self):
        db = BlobDB(small_config())
        db.create_table("image")
        with db.transaction() as txn:
            db.put_blob(txn, "image", b"good", b"g" * 10_000)
        self._crash_between_wal_and_extent_flush(db, "image", b"torn",
                                                 b"t" * 50_000)
        recovered = crash_and_recover(db)
        assert recovered.read_blob("image", b"good") == b"g" * 10_000
        assert not recovered.exists("image", b"torn")


class TestCheckpointing:
    def test_recovery_from_snapshot_plus_wal_tail(self):
        db = BlobDB(small_config())
        db.create_table("image")
        with db.transaction() as txn:
            db.put_blob(txn, "image", b"before", b"b" * 5000)
        db.checkpoint()
        with db.transaction() as txn:
            db.put_blob(txn, "image", b"after", b"a" * 5000)
        recovered = crash_and_recover(db)
        assert recovered.read_blob("image", b"before") == b"b" * 5000
        assert recovered.read_blob("image", b"after") == b"a" * 5000

    def test_free_lists_survive_checkpoint_and_crash(self):
        db = BlobDB(small_config())
        db.create_table("image")
        with db.transaction() as txn:
            state = db.put_blob(txn, "image", b"k", b"x" * 50_000)
        first_pid = state.extent_pids[0]
        with db.transaction() as txn:
            db.delete_blob(txn, "image", b"k")
        db.checkpoint()
        recovered = crash_and_recover(db)
        with recovered.transaction() as txn:
            state2 = recovered.put_blob(txn, "image", b"k2", b"y" * 50_000)
        assert state2.extent_pids[0] == first_pid  # freed space reused

    def test_wal_pressure_triggers_checkpoint(self):
        db = BlobDB(small_config(wal_pages=64,
                                 checkpoint_threshold=0.3))
        db.create_table("kv")
        for i in range(200):
            with db.transaction() as txn:
                db.put(txn, "kv", b"k%d" % i, b"v" * 400)
        assert db.checkpoints_taken >= 1
        recovered = crash_and_recover(db)
        for i in range(200):
            assert recovered.get("kv", b"k%d" % i) == b"v" * 400

    def test_checkpoint_with_active_txn_rejected(self):
        from repro.db.errors import TransactionStateError
        db = BlobDB(small_config())
        db.create_table("image")
        txn = db.begin()
        with pytest.raises(TransactionStateError):
            db.checkpoint()
        db.abort(txn)

    def test_double_crash_recover(self):
        db = BlobDB(small_config())
        db.create_table("image")
        with db.transaction() as txn:
            db.put_blob(txn, "image", b"k", b"stable")
        recovered1 = crash_and_recover(db)
        with recovered1.transaction() as txn:
            recovered1.put_blob(txn, "image", b"k2", b"second life")
        recovered2 = crash_and_recover(recovered1)
        assert recovered2.read_blob("image", b"k") == b"stable"
        assert recovered2.read_blob("image", b"k2") == b"second life"


class TestPhyslogRecovery:
    def test_physlog_redoes_content_from_wal_chunks(self):
        """Physlog content lives in the WAL until eviction; a crash right
        after commit must restore it from the chunk records."""
        config = small_config(log_policy="physlog",
                              wal_pages=1024, wal_buffer_bytes=1 << 16)
        db = BlobDB(config)
        db.create_table("image")
        payload = bytes(range(256)) * 150
        with db.transaction() as txn:
            db.put_blob(txn, "image", b"k", payload)
        # Frames are dirty and unflushed: content is only in the WAL.
        recovered = crash_and_recover(db)
        assert recovered.read_blob("image", b"k") == payload

    def test_physlog_writes_content_twice_by_checkpoint(self):
        config = small_config(log_policy="physlog", wal_pages=1024)
        db = BlobDB(config)
        db.create_table("image")
        payload = b"2x" * 25_000
        with db.transaction() as txn:
            db.put_blob(txn, "image", b"k", payload)
        db.checkpoint()  # flushes the dirty frames: the second write
        cats = db.device.stats.bytes_written_by_category
        assert cats["wal"] >= len(payload)       # first copy: WAL chunks
        assert cats["data"] >= len(payload)      # second copy: extents

    def test_grow_after_recovery_falls_back_to_rehash(self):
        """FastSha256 live states die in a crash; growth must still work."""
        db = BlobDB(small_config(hasher="fast"))
        db.create_table("image")
        with db.transaction() as txn:
            db.put_blob(txn, "image", b"g", b"pre-crash|")
        recovered = crash_and_recover(db)
        with recovered.transaction() as txn:
            recovered.append_blob(txn, "image", b"g", b"post-crash")
        content = recovered.read_blob("image", b"g")
        assert content == b"pre-crash|post-crash"
        state = recovered.get_state("image", b"g")
        assert state.sha256 == hashlib.sha256(content).digest()


class TestRecoveryOfUpdates:
    def test_delta_update_survives_crash(self):
        db = BlobDB(small_config())
        db.create_table("image")
        with db.transaction() as txn:
            db.put_blob(txn, "image", b"u", b"\x00" * 40_000)
        with db.transaction() as txn:
            db.update_blob_range(txn, "image", b"u", 100, b"DELTA",
                                 scheme="delta")
        recovered = crash_and_recover(db)
        content = recovered.read_blob("image", b"u")
        assert content[100:105] == b"DELTA"
        assert recovered.failed_txns == []

    def test_clone_update_survives_crash(self):
        db = BlobDB(small_config())
        db.create_table("image")
        with db.transaction() as txn:
            db.put_blob(txn, "image", b"u", b"\x01" * 40_000)
        with db.transaction() as txn:
            db.update_blob_range(txn, "image", b"u", 0, b"CLONE",
                                 scheme="clone")
        recovered = crash_and_recover(db)
        assert recovered.read_blob("image", b"u")[:5] == b"CLONE"


# -- the batched BLOB verifier ------------------------------------------------


def record_reads(device):
    """Wrap ``device.submit``; returns the per-batch lists of
    ``(pid, npages)`` read commands it was handed."""
    batches = []
    inner = device.submit

    def submit(requests, **kwargs):
        reads = [(r.pid, r.npages) for r in requests if not r.is_write]
        if reads:
            batches.append(reads)
        return inner(requests, **kwargs)

    device.submit = submit
    return batches


def build_faulted_store():
    """A seeded 300-BLOB store with three planted faults; returns the
    crashed ``(device, config, contents)``."""
    rng = random.Random(14)
    config = small_config(wal_pages=1024)
    db = BlobDB(config)
    db.create_table("t")
    contents = {}

    def put(key, nbytes):
        contents[key] = rng.randbytes(nbytes)
        with db.transaction() as txn:
            db.put_blob(txn, "t", key, contents[key])

    for i in range(200):
        put(b"snap/%03d" % i, rng.randrange(1, 40_000))
    db.checkpoint()
    for i in range(98):
        put(b"wal/%03d" % i, rng.randrange(1, 40_000))
    for key in (b"torn/a", b"torn/b"):
        contents[key] = rng.randbytes(30_000)
    with db.transaction() as txn:
        db.put_blob(txn, "t", b"torn/a", contents[b"torn/a"])
        db.put_blob(txn, "t", b"torn/b", contents[b"torn/b"])
    before_delta = db.device.peek(
        db.get_state("t", b"wal/007").page_ranges(db.tiers)[0][0], 1)
    with db.transaction() as txn:
        db.update_blob_range(txn, "t", b"wal/007", 10, b"DELTA",
                             scheme="delta")
    contents[b"wal/007"] = (contents[b"wal/007"][:10] + b"DELTA"
                            + contents[b"wal/007"][15:])
    db.drain_commit_window()
    db.wal.sync_flush()
    ps = config.page_size
    # 1. Bit rot in a snapshot-owned BLOB: nothing to repair it from.
    pid = db.get_state("t", b"snap/042").page_ranges(db.tiers)[0][0]
    page = bytearray(db.device.peek(pid, 1))
    page[17] ^= 0x04
    db.device._poke(pid, bytes(page))
    # 2. A torn extent of a WAL-owned BLOB whose transaction also wrote
    #    a second key: the page keeps a prefix of the new content.
    pid = db.get_state("t", b"torn/a").page_ranges(db.tiers)[-1][0]
    db.device._poke(pid, db.device.peek(pid, 1)[:100] + bytes(ps - 100))
    # 3. A torn in-place delta write: the page reverts to its pre-image,
    #    which the logged delta record can redo.
    pid = db.get_state("t", b"wal/007").page_ranges(db.tiers)[0][0]
    db.device._poke(pid, before_delta)
    return db.crash(), config, contents


class TestBatchedVerifier:
    def test_planted_faults_decide_as_the_per_extent_loop_did(self):
        """Differential against the parent commit's synchronous loop:
        the outcomes below are the values it produced on this store."""
        device, config, contents = build_faulted_store()
        recovered = BlobDB.recover(device, config)
        info = recovered.recovery_info
        assert info.failed_txns == [300]
        assert info.quarantined == [("t", b"snap/042")]
        assert info.repaired_keys == 1
        assert info.extents_quarantined == 3
        digest = hashlib.sha256()
        for key, state in recovered._tables["t"].scan():
            digest.update(key + state.sha256)
        assert recovered.table_size("t") == 298
        assert digest.hexdigest() == PARENT_TABLE_DIGEST
        for key, data in contents.items():
            if key.startswith(b"torn/"):
                assert not recovered.exists("t", key)
            elif key != b"snap/042":
                assert recovered.read_blob("t", key) == data
        # Every live state got a verdict, the failed transaction's
        # second key included (it is read with the batch, then skipped).
        assert info.blobs_validated == 300

    def _store(self, sizes, **overrides):
        db = BlobDB(small_config(**overrides))
        db.create_table("t")
        for i, size in enumerate(sizes):
            with db.transaction() as txn:
                db.put_blob(txn, "t", b"k%04d" % i, bytes([i % 251]) * size)
        db.drain_commit_window()
        states = [state for _, state in db._tables["t"].scan()]
        return db, states

    def _verify(self, db, states, **kwargs):
        return verify_states(db.device, db.model, db.tiers,
                             db.config.page_size, states, db.retry, **kwargs)

    def test_more_states_than_one_window(self, monkeypatch):
        monkeypatch.setattr(recovery, "VERIFY_WINDOW_PAGES", 8)
        db, states = self._store([4096 * 3] * 10)
        db.device._poke(states[6].page_ranges(db.tiers)[1][0], b"rot")
        batches = record_reads(db.device)
        verdicts = self._verify(db, states)
        assert verdicts == [i != 6 for i in range(10)]
        # Two three-page states fit an eight-page window; a third does not.
        assert len(batches) == 5
        assert all(sum(n for _, n in b) <= 8 for b in batches)

    def test_verdicts_follow_input_order_reads_follow_the_device(self):
        db, states = self._store([4096] * 200)
        db.device._poke(states[150].page_ranges(db.tiers)[0][0], b"rot")
        shuffled = states[::-1][:100] + states[:100]
        batches = record_reads(db.device)
        verdicts = self._verify(db, shuffled)
        assert verdicts == [state is not states[150] for state in shuffled]
        assert sum(len(b) for b in batches) <= 200 // 64 + 1

    def test_blob_larger_than_the_window_verifies_alone(self, monkeypatch):
        monkeypatch.setattr(recovery, "VERIFY_WINDOW_PAGES", 8)
        db, states = self._store([4096, 4096 * 40, 4096])
        batches = record_reads(db.device)
        assert self._verify(db, states) == [True, True, True]
        assert [sum(n for _, n in b) for b in batches] == [1, 40, 1]

    def test_zero_byte_blob_issues_no_read(self):
        db, states = self._store([0])
        assert states[0].size == 0
        batches = record_reads(db.device)
        before = db.device.stats.read_requests
        assert self._verify(db, states) == [True]
        assert batches == [] and db.device.stats.read_requests == before

    def test_last_extent_is_read_only_as_far_as_the_digest_covers(self):
        ps = 4096
        db, states = self._store([15 * ps + 1])
        ranges = states[0].page_ranges(db.tiers)
        assert ranges[-1][1] == 16
        batches = record_reads(db.device)
        before = db.device.stats.bytes_read
        assert self._verify(db, states) == [True]
        assert db.device.stats.bytes_read - before == 16 * ps
        last_pid = ranges[-1][0]
        covered = {pid + i for b in batches for pid, n in b for i in range(n)}
        assert last_pid in covered and last_pid + 1 not in covered

    def test_overlay_patches_only_its_own_state(self):
        db, states = self._store([4096 * 2, 4096 * 2])
        pid = states[0].page_ranges(db.tiers)[0][0]
        good = db.device.peek(pid, 1)
        db.device._poke(pid, b"rot")
        assert self._verify(db, states) == [False, True]
        overlay = {pid: bytearray(good)}
        assert self._verify(db, states,
                            overlays=[overlay, None]) == [True, True]
        assert self._verify(db, states,
                            overlays=[None, overlay]) == [False, True]

    def test_transient_fault_mid_batch_redrains_the_window(self):
        db, states = self._store([4096 * 3] * 6)
        inner = db.device.submit
        attempts = []

        def flaky(requests, **kwargs):
            attempts.append(len(requests))
            if len(attempts) == 1:
                raise DeviceIOError("injected")
            return inner(requests, **kwargs)

        db.device.submit = flaky
        assert self._verify(db, states) == [True] * 6
        assert attempts[0] == attempts[1] and len(attempts) == 2
        assert db.retry.stats.retries == 1

    def test_recovery_survives_transient_read_errors(self, monkeypatch):
        config = small_config()
        model = CostModel()
        inner = SimulatedNVMe(model, capacity_pages=config.device_pages)
        db = BlobDB(config, device=inner, model=model)
        db.create_table("t")
        for i in range(64):
            with db.transaction() as txn:
                db.put_blob(txn, "t", b"k%02d" % i, bytes([i]) * 9000)
        db.drain_commit_window()
        db.wal.sync_flush()
        db.crash()
        # Small windows, so the verifier drains (and draws) many times.
        monkeypatch.setattr(recovery, "VERIFY_WINDOW_PAGES", 16)
        plan = FaultPlan(FaultSpec(seed=5, transient_error=0.5))
        recovered = BlobDB.recover(FaultyNVMe(inner, plan), config,
                                   model=model)
        assert recovered.failed_txns == []
        assert recovered.recovery_info.blobs_validated == 64
        assert plan.stats.transient_errors > 0
        assert recovered.retry.stats.retries == plan.stats.transient_errors
        for i in range(64):
            assert recovered.read_blob("t", b"k%02d" % i) == bytes([i]) * 9000

    def test_recovery_cost_is_bandwidth_shaped(self):
        n = 2048
        db = BlobDB(small_config())
        db.create_table("t")
        for i in range(n):
            with db.transaction() as txn:
                db.put_blob(txn, "t", b"k%04d" % i, bytes([i % 251]) * 4000)
        db.drain_commit_window()
        db.wal.sync_flush()
        config, model = db.config, db.model
        device = db.crash()
        batches = record_reads(device)
        before = model.clock.now_ns
        recovered = BlobDB.recover(device, config)
        elapsed = model.clock.now_ns - before
        info = recovered.recovery_info
        assert info.blobs_validated == n
        assert info.validation_read_requests <= n // 64 + 8
        assert info.validation_bytes_read == n * config.page_size
        assert elapsed < n * model.params.ssd_read_latency_ns / 10
        assert max(sum(pages for _, pages in b) for b in batches) \
            <= VERIFY_WINDOW_PAGES + 1
        report = recovered.stats_report()
        assert report.recovery_blobs_validated == n
        assert f"{n} BLOBs validated, " \
            f"{info.validation_read_requests / n:.2f} reads each" \
            in report.format()

    def test_report_guards_the_zero_denominator(self):
        report = BlobDB(small_config()).stats_report()
        assert report.recovery_reads_per_blob == 0.0
        assert "0 BLOBs validated, 0.00 reads each" in report.format()


PARENT_TABLE_DIGEST = \
    "a71add1ea0b36193fb521372595029b419a95ca9efe8bff819b8387e012ba83e"


# -- the bounded WAL scan -----------------------------------------------------

#: One scan window: a queue wave of chunks, the verifier's 8 MiB window.
SCAN_WINDOW = SCAN_QUEUE_DEPTH * SCAN_CHUNK_PAGES
PS = 4096
WINDOW_BYTES = SCAN_WINDOW * PS
RING = 2 * SCAN_WINDOW + 300
RING_BYTES = RING * PS


def ring_config(wal_pages=RING, **overrides):
    return EngineConfig(device_pages=wal_pages + 1024, wal_pages=wal_pages,
                        catalog_pages=64, buffer_pool_pages=512, **overrides)


def insert_frame(seq, value):
    return InsertRecord(txn_id=seq, table="t", key=b"k",
                        value=value).encode(seq)


#: Bytes of an ``InsertRecord`` frame around its value.
FRAME_MIN = len(insert_frame(1, b""))
#: Frame payloads and stale bytes are cut from this ring-sized noise.
NOISE = random.Random(0).randbytes(RING_BYTES)


def wal_image(rng, pins):
    """A ring image whose frames end exactly at each offset in ``pins``.

    Frames of 39 B to 300 KB (so some straddle a window boundary) carry
    sequences from 1 000; the last pin is the log's end.  A zero frame
    header follows it, then stale frames of an earlier pass (lower
    sequences) fill the ring; a log too close to the ring's end for the
    header is followed by stale bytes.  Returns the image and the frame
    spans.
    """
    image, spans, seq = bytearray(), [], 1000

    def emit(nbytes, seq):
        pos = len(image)
        image.extend(insert_frame(seq, NOISE[pos:pos + nbytes - FRAME_MIN]))
        return pos

    for pin in pins:
        while pin - len(image) > 2000:
            room = pin - len(image) - FRAME_MIN
            nbytes = rng.randint(FRAME_MIN, min(room, rng.choice((2000,
                                                                  300_000))))
            spans.append((emit(nbytes, seq), len(image)))
            seq += 1
        spans.append((emit(pin - len(image), seq), pin))
        seq += 1
    if len(image) + END_MARKER_BYTES <= RING_BYTES:
        image += bytes(END_MARKER_BYTES)
        stale = 1
        while len(image) < RING_BYTES:
            emit(rng.randint(FRAME_MIN, 50_000), stale)
            stale += 1
    image += NOISE[len(image):]
    return bytes(image[:RING_BYTES]), spans


def full_region_scan(device, config):
    """Reference: the whole ring read at once, as recovery used to."""
    raw = device.peek(config.wal_region_pid, config.wal_pages)
    scan = scan_records(raw)
    beyond = None
    if scan.stop_reason == "bad_frame":
        beyond = find_frame_beyond(raw, scan.valid_bytes + 1, scan.max_seq)
    return scan, beyond is not None


def flip(device, config, byte_off):
    pid = config.wal_region_pid + byte_off // PS
    page = bytearray(device.peek(pid, 1))
    page[byte_off % PS] ^= 0xFF
    device._poke(pid, bytes(page))


#: Where the log ends (the last offset) and where frames must end, in
#: bytes: in the first window, at a window boundary ±17 bytes (the end
#: marker's size) with the log ending or going on, across two
#: boundaries, and filling the ring.
ORACLE_LOGS = {
    "first_window": [100_000],
    **{f"end_at_boundary{d:+d}": [WINDOW_BYTES + d]
       for d in (-18, -17, -16, -1, 0, 1, 17)},
    **{f"frame_at_boundary{d:+d}": [WINDOW_BYTES + d, WINDOW_BYTES + 400_000]
       for d in (-17, -16, -1, 0, 1)},
    "straddles_two_boundaries": [
        WINDOW_BYTES - 150_000, WINDOW_BYTES + 150_000,
        2 * WINDOW_BYTES - 100, 2 * WINDOW_BYTES + 250_000,
        2 * WINDOW_BYTES + 300_000],
    "fills_ring_but_16_bytes": [RING_BYTES - 16],
    "fills_ring": [RING_BYTES],
}


class TestBoundedWalScan:
    """Recovery reads the ring window by window and stops at the log's
    clean end; every verdict equals that of scanning the whole ring."""

    @pytest.mark.parametrize("damage", ["none", "torn_tail", "mid_log",
                                        "stale_past_end"])
    @pytest.mark.parametrize("log", sorted(ORACLE_LOGS))
    def test_equivalent_to_a_full_region_scan(self, log, damage):
        rng = random.Random(f"{log}/{damage}")
        config = ring_config()
        device = SimulatedNVMe(CostModel(), capacity_pages=config.device_pages)
        image, spans = wal_image(rng, ORACLE_LOGS[log])
        device.write(config.wal_region_pid, image)
        end = spans[-1][1]
        target = None
        if damage == "torn_tail":
            target = rng.randrange(*spans[-1])
        elif damage == "mid_log":
            # The type byte of the frame holding the first window
            # boundary (or of a middle frame): bad without reading on.
            spot = WINDOW_BYTES if end > WINDOW_BYTES else end // 2
            target = next(lo for lo, hi in spans if lo <= spot < hi)
        elif damage == "stale_past_end" and \
                end + END_MARKER_BYTES < RING_BYTES:
            target = rng.randrange(end + END_MARKER_BYTES, RING_BYTES)
        if target is not None:
            flip(device, config, target)
        reference, refuses = full_region_scan(device, config)

        state = recovery.RecoveredState()
        if refuses:
            with pytest.raises(WalCorruptionError):
                recovery._read_wal(device, config, device.model, state)
        else:
            records = recovery._read_wal(device, config, device.model,
                                         state)
            assert records == [r for _, r in reference.records]
            assert state.wal_max_seq == max(reference.max_seq, 0)
            assert state.wal_records_truncated == \
                int(reference.stop_reason == "bad_frame")
        if reference.stop_reason == "end":
            windows = -(-(reference.valid_bytes + END_MARKER_BYTES)
                        // WINDOW_BYTES)
            assert state.wal_pages_read == min(RING, windows * SCAN_WINDOW)
        else:
            assert state.wal_pages_read == RING
        assert state.wal_corrupt_pages == int(
            target is not None and target // PS < state.wal_pages_read)

    def _logged_store(self, **overrides):
        db = BlobDB(ring_config(32768, **overrides))
        db.create_table("t")
        for i in range(20):
            with db.transaction() as txn:
                db.put_blob(txn, "t", b"k%02d" % i, bytes([i]) * 20_000)
        db.wal.sync_flush()
        assert db.wal._write_off < 1 << 20
        return db

    @pytest.mark.parametrize("overrides", [
        {}, {"pmem_pages": 32768 + 256, "wal_placement": "pmem"},
        {"stripe_devices": 2}], ids=["nvme", "pmem", "striped2"])
    def test_short_log_on_a_large_ring_reads_one_window(self, overrides):
        db = self._logged_store(**overrides)
        config, wal_device = db.config, db.wal_device
        batches = record_reads(wal_device)
        recovered = BlobDB.recover(db.crash(), config)
        lo, hi = config.wal_region_pid, config.wal_region_pid + 32768
        wal_pages = sum(n for batch in batches for pid, n in batch
                        if lo <= pid < hi)
        assert wal_pages == SCAN_WINDOW
        info = recovered.recovery_info
        assert (info.wal_pages_read, info.wal_windows) == (SCAN_WINDOW, 1)
        for i in range(20):
            assert recovered.read_blob("t", b"k%02d" % i) == \
                bytes([i]) * 20_000

    def test_a_full_multi_window_ring_costs_one_latency_per_extra_window(
            self):
        config = ring_config()
        model = CostModel()
        device = SimulatedNVMe(model, capacity_pages=config.device_pages)
        device.write(config.wal_region_pid,
                     wal_image(random.Random(3), [RING_BYTES])[0])
        before = model.clock.now_ns
        scan_region(device, model, config.wal_region_pid, RING)
        device.verify_range(config.wal_region_pid, RING)
        full = model.clock.now_ns - before
        before = model.clock.now_ns
        state = recovery.RecoveredState()
        recovery._read_wal(device, config, model, state)
        bounded = model.clock.now_ns - before
        assert state.wal_windows == 3
        extra = model.params.ssd_read_latency_ns + SYSCALL_NS["io_submit"] \
            + SYSCALL_NS["io_getevents"]
        assert full < bounded <= full + 2 * extra
