"""Tests for the interval-numbered namespace accelerator."""

import random

import pytest

from repro.db import BlobDB, EngineConfig
from repro.db.config import INDEX_ENGINES
from repro.fuse.vfs import BlobFuse
from repro.namespace import NamespaceIndex
from repro.objectstore import ObjectStore


def small_config(**overrides):
    defaults = dict(device_pages=16384, wal_pages=512, catalog_pages=128,
                    buffer_pool_pages=4096)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def seeded_db(keys, table="t", config=None):
    db = BlobDB(config or small_config())
    db.create_table(table)
    for lo in range(0, len(keys), 32):
        with db.transaction() as txn:
            for key in keys[lo:lo + 32]:
                db.put(txn, table, key, b"v" * 10)
    return db


def brute_subtree(db, table, prefix):
    """The scan-the-table answer the accelerator must reproduce."""
    out = set()
    for key, _ in db.scan(table):
        if key.startswith(b"\x00"):
            continue
        if not prefix or key.startswith(prefix):
            out.add(key)
    return out


class TestBuildAndQuery:
    def test_subtree_matches_brute_force(self):
        keys = [b"a/%02d/f%03d" % (i % 5, i) for i in range(60)]
        keys += [b"b/deep/er/%03d" % i for i in range(20)]
        db = seeded_db(keys)
        ns = NamespaceIndex.build(db)
        assert db.ns is ns
        assert ns.verify() == []
        node = ns.resolve("t", b"a")
        got = {found.key for found in ns.iter_subtree(node)
               if found.is_file}
        assert got == brute_subtree(db, "t", b"a/")
        assert ns.range_scans >= 1

    def test_subtree_stats_totals(self):
        keys = [b"d/%03d" % i for i in range(10)]
        db = seeded_db(keys)
        ns = NamespaceIndex.build(db)
        root = ns.resolve("t")
        totals = ns.subtree_stats(root)
        assert totals["files"] == 10
        assert totals["bytes"] == 100  # 10 files x 10 bytes
        assert totals["dirs"] == 1  # the d/ directory

    def test_runs_on_every_index_engine(self):
        keys = [b"x/%04d" % i for i in range(40)]
        for engine in INDEX_ENGINES:
            db = seeded_db(keys, config=small_config(index_structure=engine))
            ns = NamespaceIndex.build(db)
            assert ns.verify() == [], engine
            node = ns.resolve("t", b"x")
            files = [f for f in ns.subtree(node) if f.is_file]
            assert len(files) == 40, engine


class TestMaintenance:
    def test_committed_churn_matches_fresh_rebuild(self):
        keys = [b"dir%d/f%03d" % (i % 3, i) for i in range(45)]
        db = seeded_db(keys)
        ns = NamespaceIndex.build(db)
        rng = random.Random(3)
        live = set(keys)
        for round_no in range(8):
            with db.transaction() as txn:
                for _ in range(6):
                    if rng.random() < 0.5 and live:
                        victim = rng.choice(sorted(live))
                        db.delete(txn, "t", victim)
                        live.discard(victim)
                    else:
                        fresh = b"new/r%d/f%06d" % (round_no,
                                                    rng.randrange(10**6))
                        if fresh not in live:
                            db.put(txn, "t", fresh, b"z" * 4)
                            live.add(fresh)
        assert ns.verify() == []
        root = ns.resolve("t")
        got = {f.key for f in ns.iter_subtree(root) if f.is_file}
        assert got == live
        # A rebuild from committed state lands on the identical listing.
        fresh_ns = NamespaceIndex(db)
        fresh_root = fresh_ns.resolve("t")
        assert {f.key for f in fresh_ns.iter_subtree(fresh_root)
                if f.is_file} == live

    def test_abort_leaves_accelerator_untouched(self):
        db = seeded_db([b"a/1", b"a/2"])
        ns = NamespaceIndex.build(db)
        before = ns.nodes
        txn = db.begin()
        db.put(txn, "t", b"a/3", b"v")
        db.delete(txn, "t", b"a/1")
        db.abort(txn)
        assert ns.nodes == before
        root = ns.resolve("t")
        assert {f.key for f in ns.iter_subtree(root) if f.is_file} == \
            {b"a/1", b"a/2"}

    def test_renumber_keeps_invariants(self):
        # One directory gets far more children than its initial gap
        # (31 files) can hold, forcing whole-tree renumbers.
        keys = [b"hot/f%04d" % i for i in range(100)]
        db = seeded_db(keys)
        ns = NamespaceIndex.build(db)
        assert ns.renumbers > 0
        assert ns.verify() == []
        node = ns.resolve("t", b"hot")
        assert sum(1 for f in ns.iter_subtree(node) if f.is_file) == 100

    def test_crash_drops_and_rebuild_matches(self):
        keys = [b"p/%03d" % i for i in range(20)]
        db = seeded_db(keys)
        NamespaceIndex.build(db)
        device = db.crash()
        assert db.ns is None, "volatile accelerator dropped on crash"
        db2 = BlobDB.recover(device, small_config())
        ns2 = NamespaceIndex.build(db2)
        assert ns2.verify() == []
        root = ns2.resolve("t")
        assert sum(1 for f in ns2.iter_subtree(root) if f.is_file) == 20


class TestRecursiveScanSpeed:
    @pytest.mark.parametrize("table, keys", [
        # The gitclone trace's tree shape: 24 directories x 15 files.
        ("repo", [b"src/dir%04d/file%06d.c" % (i % 24, i)
                  for i in range(360)]),
        # Wikipedia titles sharded over two-digit buckets.
        ("wiki", [b"wiki/%02d/article%08d" % (i % 16, i)
                  for i in range(240)]),
    ], ids=["gitclone", "wikipedia"])
    def test_interval_scan_beats_per_level_walk(self, table, keys):
        """``readdir -R`` plus subtree ``statfs``: one ``readdir`` per
        directory and one ``getattr`` per entry, versus one interval
        range scan each.  Same listing, >= 3x less virtual time."""
        fs = BlobFuse(seeded_db(keys, table))
        clock = fs.db.model.clock

        def listing_ns():
            start = clock.now_ns
            listing = (fs.readdir_recursive("/" + table),
                       fs.subtree_statfs("/" + table))
            return listing, clock.now_ns - start

        plain, plain_ns = listing_ns()
        fs.attach_namespace()
        accel, accel_ns = listing_ns()
        assert accel == plain
        assert plain_ns >= 3.0 * accel_ns
        assert fs.db.ns.range_scans >= 2


class TestObjectStoreIntegration:
    def seeded_store(self):
        store = ObjectStore(BlobDB(small_config()))
        store.create_bucket("b")
        for i in range(30):
            store.put_object("b", b"logs/%02d/part%04d" % (i % 4, i),
                             b"d" * (i + 1))
        return store

    def test_accelerated_listing_matches_fallback(self):
        plain = self.seeded_store()
        accel = self.seeded_store()
        accel.attach_namespace()
        for prefix in (b"", b"logs/", b"logs/01/"):
            want = [(o.key, o.size, o.etag)
                    for o in plain.list_objects("b", prefix)]
            got = [(o.key, o.size, o.etag)
                   for o in accel.list_objects("b", prefix)]
            assert got == want, prefix
        assert accel.ns.range_scans >= 3

    def test_non_aligned_prefix_falls_back(self):
        store = self.seeded_store()
        store.attach_namespace()
        before = store.ns.range_scans
        found = list(store.list_objects("b", b"logs/01/part"))
        assert len(found) > 0
        assert store.ns.range_scans == before, \
            "mid-component prefix must use the key-space scan"

    def test_put_delete_maintain_accelerator(self):
        store = self.seeded_store()
        store.attach_namespace()
        store.put_object("b", b"logs/99/new", b"xyz")
        store.delete_object("b", b"logs/00/part0000")
        keys = [o.key for o in store.list_objects("b", b"logs/")]
        assert b"logs/99/new" in keys
        assert b"logs/00/part0000" not in keys
        assert store.ns.verify() == []
