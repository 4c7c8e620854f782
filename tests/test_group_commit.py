"""Tests for lazy begin records and the cross-worker group-commit
window: read-only transactions never touch the WAL, commits inside a
window defer their flushes, and the drain preserves WAL-before-data
ordering plus recovery correctness."""

import pytest

from repro import obs
from repro.db import BlobDB, EngineConfig
from repro.wal.records import InsertRecord, TxnBeginRecord
from repro.wal.writer import WalFullError


def small_config(**overrides):
    defaults = dict(device_pages=2048, wal_pages=128, catalog_pages=64,
                    buffer_pool_pages=512)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def make_db(**overrides):
    db = BlobDB(small_config(**overrides))
    db.create_table("t")
    return db


class TestLazyBegin:
    def test_begin_alone_appends_nothing(self):
        db = make_db()
        before = db.wal.stats.records
        txn = db.begin()
        assert db.wal.stats.records == before
        db.abort(txn)

    def test_read_only_commit_appends_no_records_and_no_flush(self):
        db = make_db()
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k", b"\x01" * 5000)
        records = db.wal.stats.records
        flushes = db.wal.stats.flushes
        with db.transaction() as txn:
            assert db.exists("t", b"k")
        assert db.wal.stats.records == records
        assert db.wal.stats.flushes == flushes

    def test_read_only_abort_appends_no_records(self):
        db = make_db()
        records = db.wal.stats.records
        txn = db.begin()
        db.abort(txn)
        assert db.wal.stats.records == records

    def test_begin_record_immediately_precedes_first_mutation(self):
        db = make_db()
        txn = db.begin()
        # Still nothing: begin is logged lazily.
        marker = db.wal.stats.records
        db.put_blob(txn, "t", b"k", b"\x02" * 5000)
        db.commit(txn)
        db.wal.sync_flush()
        mine = [r for r in db.wal.durable_records()
                if getattr(r, "txn_id", None) == txn.txn_id]
        assert isinstance(mine[0], TxnBeginRecord)
        assert any(isinstance(r, InsertRecord) for r in mine[1:])
        # The begin record was the very next append after the marker.
        assert db.wal.stats.records > marker


class TestCommitWindow:
    def test_commits_inside_window_defer_the_flush(self):
        db = make_db(group_commit_window_ns=1e15)
        flushes = db.wal.stats.flushes
        data_before = db.device.stats.bytes_written_by_category.get(
            "data", 0)
        for i in range(5):
            with db.transaction() as txn:
                db.put_blob(txn, "t", bytes([i]), b"\x03" * 3000)
        # Every commit rode the (never-expiring) window: no WAL flush,
        # no extent write-back yet.
        assert db.wal.stats.flushes == flushes
        assert db.device.stats.bytes_written_by_category.get(
            "data", 0) == data_before
        db.drain_commit_window()
        assert db.wal.stats.flushes == flushes + 1
        assert db.device.stats.bytes_written_by_category["data"] \
            > data_before
        for i in range(5):
            assert db.read_blob("t", bytes([i])) == b"\x03" * 3000

    def test_commit_past_deadline_drains_for_the_group(self):
        db = make_db(group_commit_window_ns=100.0)
        db.drain_commit_window()  # settle create_table's commit
        tracer = obs.attach(db.model)
        for i in range(2):
            # Each put costs far more than 100 ns of virtual time, so
            # the second commit lands past the deadline, draining both.
            with db.transaction() as txn:
                db.put_blob(txn, "t", bytes([i]), b"\x04" * 3000)
        db.model.obs = None
        assert tracer.metrics.counter("wal.window_drains").total() == 1
        assert tracer.metrics.counter("wal.window_commits").total() == 2

    def test_checkpoint_drains_the_window_first(self):
        db = make_db(group_commit_window_ns=1e15)
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k", b"\x05" * 3000)
        assert db.policy._window_deadline is not None
        db.checkpoint()
        assert db.policy._window_deadline is None
        assert not db.policy._window_frames

    def test_window_reduces_wal_write_amplification(self):
        def wal_bytes(window_ns):
            db = make_db(group_commit_window_ns=window_ns)
            base = db.device.stats.bytes_written_by_category.get("wal", 0)
            for i in range(8):
                with db.transaction() as txn:
                    db.put_blob(txn, "t", bytes([i]), b"\x06" * 2000)
            db.drain_commit_window()
            return db.device.stats.bytes_written_by_category["wal"] - base

        # Per-commit flushing rewrites the WAL's partial tail sector and
        # its zero end marker once per commit; one windowed flush writes
        # each sector once.
        assert wal_bytes(1e15) < wal_bytes(0.0)

    def test_deferred_commits_survive_crash_after_drain(self):
        config = small_config(group_commit_window_ns=1e15)
        db = BlobDB(config)
        db.create_table("t")
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k", b"\x07" * 5000)
        db.drain_commit_window()
        recovered = BlobDB.recover(db.crash(), config)
        assert recovered.read_blob("t", b"k") == b"\x07" * 5000

    def test_frame_replaced_inside_window_is_skipped_at_drain(self):
        db = make_db(group_commit_window_ns=1e15)
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"gone", b"\x08" * 3000)
        with db.transaction() as txn:
            db.delete_blob(txn, "t", b"gone")
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"kept", b"\x09" * 3000)
        # The deleted blob's deferred frame no longer owns its pages;
        # the drain must skip it without clobbering the survivor.
        db.drain_commit_window()
        assert db.read_blob("t", b"kept") == b"\x09" * 3000
        assert not db.exists("t", b"gone")

    def test_window_length_is_validated(self):
        with pytest.raises(ValueError):
            EngineConfig(group_commit_window_ns=-1.0)


def commit_puts(db, n, size=300):
    """``n`` one-put transactions of ``size``-byte BLOBs."""
    for i in range(n):
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"k%04d" % i, bytes([i % 251]) * size)


class TestWindowFitsTheRing:
    """A commit window may buffer more WAL than the ring holds: the
    drain's flush goes out in whole-frame pieces with a checkpoint
    between them, instead of writing past the ring's end."""

    def test_window_larger_than_the_ring_commits_and_reads_back(self):
        # An 8-page (32 KiB) ring and a window that never expires: the
        # threshold-1.0 post-commit checkpoint drains ~33 KiB at once.
        config = EngineConfig(device_pages=4096, wal_pages=8,
                              catalog_pages=64, buffer_pool_pages=512,
                              checkpoint_threshold=1.0,
                              group_commit_window_ns=1e9)
        db = BlobDB(config)
        db.create_table("t")
        commit_puts(db, 200)
        assert db.wal.stats.checkpoints > 0
        for i in range(200):
            assert db.read_blob("t", b"k%04d" % i) == bytes([i % 251]) * 300

    @pytest.mark.parametrize("wal_pages,window_ns,threshold", [
        pytest.param(
            wal_pages, window_ns, threshold,
            marks=pytest.mark.xfail(
                strict=True, raises=WalFullError,
                reason="without a window, threshold 1.0 never checkpoints "
                       "ahead of a full ring, and the commit that finds "
                       "it full may not checkpoint while it is active")
            if window_ns == 0.0 and threshold == 1.0 and wal_pages < 32
            else ())
        for wal_pages in (4, 8, 32)
        for window_ns in (0.0, 1e5, 1e9)
        for threshold in (0.5, 1.0)])
    def test_geometry_sweep_survives_crash(self, wal_pages, window_ns,
                                           threshold):
        config = EngineConfig(device_pages=4096, wal_pages=wal_pages,
                              catalog_pages=64, buffer_pool_pages=512,
                              checkpoint_threshold=threshold,
                              group_commit_window_ns=window_ns)
        db = BlobDB(config)
        db.create_table("t")
        commit_puts(db, 200)
        db.drain_commit_window()
        assert db.wal.used_fraction() <= 1.0
        recovered = BlobDB.recover(db.crash(), config)
        for i in range(200):
            assert recovered.read_blob("t", b"k%04d" % i) == \
                bytes([i % 251]) * 300
