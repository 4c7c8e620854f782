"""Dropping an engine frees it: the engine object graph has no cycles.

Every system below is built with the cycle collector off, exercised,
and dropped.  Reference counting alone must free it: a weak reference
to the engine is dead right after ``del``, and a full collection under
``gc.DEBUG_SAVEALL`` then finds nothing unreachable.  A cycle anywhere
in the graph (a child holding its owner, a bound method cached on its
own instance, a parent pointer) would keep the whole system — device
page stores and pool frames included — alive until the collector
happens to run, and fails here with the cycle's types named.
"""

from __future__ import annotations

import collections
import gc
import weakref

import pytest

from repro.analysis.sanitizer import attach_sanitizer
from repro.bench.adapters import ALL_SYSTEMS, make_store
from repro.db import BlobDB, EngineConfig
from repro.fuse import FuseMount
from repro.namespace import NamespaceIndex
from repro.objectstore import ObjectStore
from repro.net import TCP_ETHERNET, ReplicatedBlobServer
from repro.replica import ReplicatedShardedBlobDB
from repro.sched import TrafficConfig, TrafficSim, generate_jobs
import repro.obs


def small_config(**overrides) -> EngineConfig:
    defaults = dict(device_pages=4096, wal_pages=128, catalog_pages=64,
                    buffer_pool_pages=512)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def exercise(db: BlobDB) -> None:
    """A few ops over every path: put, replace, delete, commit, reads,
    checkpoint, scrub and the stats report."""
    db.create_table("t")
    for i in range(6):
        with db.transaction() as txn:
            db.put_blob(txn, "t", b"dir/k%d" % i, bytes([i]) * (3000 + i))
    with db.transaction() as txn:
        db.delete_blob(txn, "t", b"dir/k0")
        db.put_blob(txn, "t", b"dir/k0", b"new" * 2000)
    with db.transaction() as txn:
        db.delete_blob(txn, "t", b"dir/k1")
    assert db.read_blob("t", b"dir/k0") == b"new" * 2000
    assert db.read_blob_view("t", b"dir/k2").contiguous() == b"\x02" * 3002
    assert db.read_blob_range("t", b"dir/k3", 10, 5) == b"\x03" * 5
    db.checkpoint()
    db.scrub()
    db.stats_report().format()


def assert_freed(build) -> None:
    """``build()`` returns a system; dropping it must free all of it."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        system = build()
        ref = weakref.ref(system)
        del system
        alive = ref() is not None
        gc.collect()
        found = collections.Counter(
            f"{type(o).__module__}.{type(o).__qualname__}"
            for o in gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
        gc.enable()
    assert not alive, "the dropped system is still alive after del"
    assert not found, (
        f"{sum(found.values())} objects in reference cycles: "
        f"{found.most_common(8)}")


# -- one engine ------------------------------------------------------------

def engine(**overrides):
    def build():
        db = BlobDB(small_config(**overrides))
        exercise(db)
        return db
    return build


ENGINES = {
    "btree": {},
    "art": {"index_structure": "art"},
    "learned": {"index_structure": "learned"},
    "occ": {"concurrency": "occ"},
    "2pl": {"concurrency": "2pl"},
    "async-blob": {"log_policy": "async-blob"},
    "physlog": {"log_policy": "physlog"},
    "pmem-stripes": {"pmem_pages": 1024, "stripe_devices": 2,
                     "stripe_chunk_pages": 16, "use_tail_extents": True,
                     "pool": "hashtable"},
    "pmem-out-of-place": {"pmem_pages": 1024, "out_of_place": True,
                          "use_tail_extents": True, "pool": "hashtable"},
    "group-commit": {"group_commit_window_ns": 20_000.0},
}


@pytest.mark.parametrize("variant", sorted(ENGINES))
def test_engine_is_freed(variant):
    assert_freed(engine(**ENGINES[variant]))


def test_forced_checkpoint_is_freed():
    """The WAL's own checkpoint calls back into its engine."""
    def build():
        db = BlobDB(small_config())
        exercise(db)
        taken = db.checkpoints_taken
        db.wal.checkpoint()
        assert db.checkpoints_taken == taken + 1
        return db
    assert_freed(build)


def test_traced_engine_is_freed():
    def build():
        db = BlobDB(small_config())
        repro.obs.attach(db.model)
        exercise(db)
        assert db.model.obs.events
        return db
    assert_freed(build)


def test_sanitized_engine_is_freed():
    def build():
        db = BlobDB(small_config())
        attach_sanitizer(db.model)
        exercise(db)
        return db
    assert_freed(build)


def test_recovered_engine_is_freed():
    def build():
        db = BlobDB(small_config())
        exercise(db)
        device = db.crash()
        del db
        db = BlobDB.recover(device, small_config())
        assert db.read_blob("t", b"dir/k0") == b"new" * 2000
        return db
    assert_freed(build)


def test_namespace_and_mount_are_freed():
    def build():
        db = BlobDB(small_config())
        exercise(db)
        NamespaceIndex.build(db)
        mount = FuseMount(db)
        assert mount.read_bytes("/t/dir/k0") == b"new" * 2000
        with db.transaction() as txn:  # delete prunes the directory
            for i in range(2, 6):
                db.delete_blob(txn, "t", b"dir/k%d" % i)
        assert mount.fuse.readdir_recursive("/t") == \
            [("dir", True, 0), ("dir/k0", False, 6000)]
        return mount
    assert_freed(build)


def test_object_store_with_open_upload_is_freed():
    def build():
        store = ObjectStore(BlobDB(small_config()))
        store.create_bucket("b")
        store.attach_namespace()
        store.put_object("b", b"a/x", b"1" * 5000)
        done = store.create_multipart_upload("b", b"a/y")
        done.upload_part(b"2" * 5000)
        done.complete()
        store.create_multipart_upload("b", b"a/z").upload_part(b"3" * 9)
        assert [info.key for info in store.list_objects("b", b"a/")] == \
            [b"a/x", b"a/y"]
        return store
    assert_freed(build)


# -- servers and topologies -----------------------------------------------

def test_groups_of_one_are_freed():
    def build():
        rdb = ReplicatedShardedBlobDB(n_groups=2, n_replicas=0, quorum=1,
                                      config=small_config())
        for i in range(8):
            rdb.put(b"k%d" % i, b"v" * 3000)
        rdb.drain()
        return rdb
    assert_freed(build)


def test_replicated_server_after_failover_is_freed():
    def build():
        rdb = ReplicatedShardedBlobDB(n_groups=2, n_replicas=2, quorum=2,
                                      config=small_config())
        server = ReplicatedBlobServer(rdb, TCP_ETHERNET)
        for i in range(8):
            server.put(b"k%d" % i, b"v" * 3000)
        old_primary = rdb.groups[0].primary_id
        rdb.crash_primary(0)
        rdb.rejoin(0, old_primary)
        rdb.drain()
        assert server.get(b"k3") == b"v" * 3000
        return server
    assert_freed(build)


def test_recovered_topology_is_freed():
    def build():
        rdb = ReplicatedShardedBlobDB(n_groups=2, n_replicas=0, quorum=1,
                                      config=small_config())
        rdb.put(b"k", b"v" * 3000)
        devices = rdb.crash()
        del rdb
        return ReplicatedShardedBlobDB.recover(devices, small_config())
    assert_freed(build)


def test_traffic_sim_with_race_detector_is_freed():
    def build():
        sim = TrafficSim(TrafficConfig(n_workers=2, n_shards=2, n_keys=8,
                                       payload_bytes=2048,
                                       device_bytes=16 << 20,
                                       buffer_bytes=2 << 20))
        sim.attach_race()
        sim.run(generate_jobs(tenants=1, per_tenant=16,
                              rate_ops_s=50_000.0, seed=0, n_keys=8,
                              payload_bytes=2048, read_ratio=0.5))
        return sim
    assert_freed(build)


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_every_store_is_freed(system):
    def build():
        store = make_store(system, capacity_bytes=64 << 20,
                           buffer_bytes=4 << 20)
        store.put(b"k", b"v" * 5000)
        store.replace(b"k", b"w" * 7000)
        assert store.get(b"k") == b"w" * 7000
        return store
    assert_freed(build)
