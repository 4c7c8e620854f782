"""Tests for the disk-resident learned index tier (``repro.lindex``)."""

import random

import pytest

from repro import obs
from repro.art import ArtTree
from repro.btree import BTree
from repro.db import BlobDB, EngineConfig
from repro.db.config import INDEX_ENGINES
from repro.lindex import LearnedIndex
from repro.sim.cost import CostModel
from repro.workloads.ycsb import zipf_sampler


def small_config(**overrides):
    defaults = dict(device_pages=16384, wal_pages=512, catalog_pages=128,
                    buffer_pool_pages=4096)
    defaults.update(overrides)
    return EngineConfig(**defaults)


class TestLearnedIndexDifferential:
    """The learned index agrees with a B-Tree on a random op stream."""

    def test_matches_btree_over_mixed_ops(self):
        model = CostModel()
        learned = LearnedIndex(model=model, epsilon=32, delta_max=16)
        oracle = BTree(node_bytes=4096, model=CostModel(),
                       key_size=lambda k: len(k))
        live: set[bytes] = set()
        rng = random.Random(5)
        for _ in range(4000):
            roll = rng.random()
            key = b"key%08d" % rng.randrange(600)
            if roll < 0.55:
                value = b"v%d" % rng.randrange(1 << 30)
                learned.insert(key, value)
                oracle.insert(key, value)
                live.add(key)
            elif roll < 0.75:
                assert learned.delete(key) == (key in live)
                oracle.delete(key)
                live.discard(key)
            elif roll < 0.9:
                assert learned.lookup(key) == oracle.lookup(key)
            else:
                lo = b"key%08d" % rng.randrange(600)
                hi = b"key%08d" % rng.randrange(600)
                if lo > hi:
                    lo, hi = hi, lo
                assert list(learned.scan(lo, hi)) == \
                    list(oracle.scan(lo, hi))
        assert len(learned) == len(oracle) == len(live)
        assert learned.first() == oracle.first()
        assert list(learned.scan(None, None)) == \
            list(oracle.scan(None, None))
        assert learned.check_invariants() == []

    def test_empty_out_and_reinsert(self):
        learned = LearnedIndex(model=CostModel())
        for i in range(100):
            learned.insert(b"%04d" % i, b"x")
        for i in range(100):
            assert learned.delete(b"%04d" % i)
        assert len(learned) == 0
        assert learned.first() is None
        assert list(learned.scan(None, None)) == []
        learned.insert(b"again", b"y")
        assert learned.lookup(b"again") == b"y"
        assert learned.check_invariants() == []

    def test_overwrite_replaces_in_place(self):
        learned = LearnedIndex(model=CostModel())
        learned.insert(b"k", b"v1")
        learned.insert(b"k", b"v2")
        assert learned.lookup(b"k") == b"v2"
        assert len(learned) == 1


class TestLearnedIndexStructure:
    def test_retrains_fire_and_stats_count(self):
        learned = LearnedIndex(model=CostModel(), epsilon=16, delta_max=8)
        rng = random.Random(9)
        for i in rng.sample(range(3000), 3000):
            learned.insert(b"%012d" % i, b"v")
        stats = learned.stats()
        assert stats.entry_count == 3000
        assert stats.segment_count >= 1
        assert stats.retrain_count > 0
        assert stats.probe_count == 0  # inserts are not probes
        assert learned.check_invariants() == []

    def test_segment_error_bounded(self):
        learned = LearnedIndex(model=CostModel(), epsilon=16, delta_max=8)
        for i in range(2000):
            learned.insert(b"%012d" % (i * 7), b"v")
        stats = learned.stats()
        # Actual per-segment error never exceeds the configured bound.
        assert stats.max_segment_error <= 16
        assert learned.check_invariants() == []

    def test_probe_and_delta_counters(self):
        learned = LearnedIndex(model=CostModel(), delta_max=64)
        for i in range(50):
            learned.insert(b"%06d" % i, b"v")
        before = learned.probes
        for i in range(50):
            assert learned.lookup(b"%06d" % i) is not None
        assert learned.probes == before + 50
        # Fresh inserts sit in the delta buffer until retrain; looking
        # one up is a delta hit.
        learned.insert(b"%06d" % 999999, b"fresh")
        hits = learned.delta_hits
        assert learned.lookup(b"%06d" % 999999) == b"fresh"
        assert learned.delta_hits >= hits

    def test_cost_model_charges_virtual_time(self):
        model = CostModel()
        learned = LearnedIndex(model=model)
        t0 = model.clock.now_ns
        for i in range(500):
            learned.insert(b"%08d" % i, b"v")
        t1 = model.clock.now_ns
        assert t1 > t0, "inserts must charge the cost model"
        for i in range(500):
            learned.lookup(b"%08d" % i)
        assert model.clock.now_ns > t1, "probes must charge the cost model"

    def test_retrain_charges_io_time(self):
        model = CostModel()
        learned = LearnedIndex(model=model, epsilon=16, delta_max=8)
        for i in range(1000):
            learned.insert(b"%08d" % i, b"v")
        assert learned.retrains > 0
        assert model.io_time_ns > 0, "retrains price bytes moved as I/O"

    def test_obs_counters_emitted(self):
        model = CostModel()
        tracer = obs.attach(model)
        learned = LearnedIndex(model=model, epsilon=16, delta_max=8)
        for i in range(1000):
            learned.insert(b"%08d" % i, b"v")
        for i in range(100):
            learned.lookup(b"%08d" % i)
        counters = tracer.metrics.counters
        assert counters["index.probes"].total() == 100
        assert counters["index.segment_retrains"].total() == \
            learned.retrains > 0


def version_mix_ns(engine, zipf_theta, write_ratio, n_slots=2048,
                   n_ops=2400):
    """Virtual time of a lookup-latest / insert-next-version mix on a
    bare relation index (no WAL, no pool): only probe and maintenance
    cost differ between engines.  Returns ``(elapsed_ns, index)``.

    Uniform slots spread inserts thinly, so the learned tier's deltas
    absorb them; Zipf slots pile them onto a few hot segments and force
    retrain churn.
    """
    model = CostModel()
    if engine == "art":
        tree = ArtTree(model=model)
    else:
        defaults = EngineConfig()
        tree = LearnedIndex(model=model, epsilon=defaults.lindex_epsilon,
                            delta_max=defaults.lindex_delta_max)
    versions = [0] * n_slots
    for slot in range(n_slots):
        tree.insert(b"obj/%012d" % (slot * 1000), b"v0")
    rng = random.Random(11)
    if zipf_theta > 0:
        sample = zipf_sampler(n_slots, zipf_theta, rng)
    else:
        def sample():
            return rng.randrange(n_slots)
    start = model.clock.now_ns
    for _ in range(n_ops):
        slot = sample()
        if rng.random() < write_ratio:
            versions[slot] += 1
            tree.insert(b"obj/%012d" % (slot * 1000 + versions[slot]), b"v")
        else:
            assert tree.lookup(
                b"obj/%012d" % (slot * 1000 + versions[slot])) is not None
    return model.clock.now_ns - start, tree


class TestLearnedArtCrossover:
    def test_learned_wins_uniform_read_mostly(self):
        learned, _ = version_mix_ns("learned", 0.0, write_ratio=0.1)
        art, _ = version_mix_ns("art", 0.0, write_ratio=0.1)
        # O(log segments) probes beat ART's per-byte node walk.
        assert art >= 1.1 * learned

    def test_art_wins_zipf_write_heavy(self):
        learned, tree = version_mix_ns("learned", 0.99, write_ratio=0.8)
        art, _ = version_mix_ns("art", 0.99, write_ratio=0.8)
        assert tree.stats().retrain_count > 0
        # Hot-segment retrains cost more than ART's in-place inserts.
        assert learned >= 1.1 * art


class TestEngineRegistry:
    def test_registry_lists_all_three(self):
        assert INDEX_ENGINES == ("btree", "art", "learned")

    def test_config_accepts_every_registered_engine(self):
        for engine in INDEX_ENGINES:
            assert small_config(index_structure=engine) is not None

    def test_config_rejects_unknown_engine_naming_registry(self):
        with pytest.raises(ValueError, match="btree.*art.*learned"):
            small_config(index_structure="skiplist")

    def test_config_rejects_bad_lindex_knobs(self):
        with pytest.raises(ValueError):
            small_config(lindex_epsilon=0)
        with pytest.raises(ValueError):
            small_config(lindex_delta_max=0)


class TestLearnedEngineInBlobDB:
    def test_blob_roundtrip_and_crash_recovery(self):
        db = BlobDB(small_config(index_structure="learned"))
        db.create_table("t")
        payloads = {b"obj/%06d" % i: bytes([i % 256]) * (100 + i)
                    for i in range(120)}
        for lo in range(0, 120, 30):
            with db.transaction() as txn:
                for key in list(payloads)[lo:lo + 30]:
                    db.put_blob(txn, "t", key, payloads[key])
        with db.transaction() as txn:
            for key in list(payloads)[:20]:
                db.delete_blob(txn, "t", key)
                del payloads[key]
        for key, expect in payloads.items():
            assert db.read_blob("t", key) == expect
        device = db.crash()
        db2 = BlobDB.recover(device, small_config(index_structure="learned"))
        assert db2.table_size("t") == len(payloads)
        for key, expect in payloads.items():
            assert db2.read_blob("t", key) == expect

    def test_stats_report_shows_learned_line(self):
        db = BlobDB(small_config(index_structure="learned"))
        db.create_table("t")
        with db.transaction() as txn:
            for i in range(40):
                db.put(txn, "t", b"row%04d" % i, b"v")
        for i in range(40):
            assert db.get("t", b"row%04d" % i) == b"v"
        report = db.stats_report()
        assert report.index_structure == "learned"
        assert report.index_entries >= 40
        assert report.index_probes > 0
        text = report.format()
        assert "index:          learned" in text

    def test_btree_report_carries_no_learned_noise(self):
        db = BlobDB(small_config())
        db.create_table("t")
        report = db.stats_report()
        assert report.index_structure == "btree"
        assert report.index_segments == 0
        assert "index:" not in report.format()
