"""Tests for buffer frames, pools, eviction, and prevent_evict."""

import random
from collections import Counter

import pytest

from repro.buffer.frames import BlobView, ExtentFrame
from repro.buffer.hashtable_pool import HashTablePool
from repro.buffer.vmcache import VmcachePool
from repro.sim.cost import CostModel
from repro.storage.device import SimulatedNVMe

PAGE = 4096


def make_pool(kind, capacity_pages=64, device_pages=4096, seed=0,
              page_size=PAGE):
    model = CostModel()
    device = SimulatedNVMe(model, capacity_pages=device_pages,
                           page_size=page_size)
    cls = VmcachePool if kind == "vmcache" else HashTablePool
    return cls(device, model, capacity_pages, eviction_seed=seed)


class TestExtentFrame:
    def test_fresh_frame_is_zeroed_and_clean(self):
        frame = ExtentFrame(head_pid=10, npages=2, page_size=PAGE)
        assert len(frame.data) == 2 * PAGE
        assert not frame.is_dirty

    def test_write_at_dirties_touched_pages_only(self):
        frame = ExtentFrame(head_pid=0, npages=4, page_size=PAGE)
        frame.write_at(PAGE, b"x" * 10)  # within page 1
        assert (frame.dirty_from, frame.dirty_to) == (1, 2)
        assert frame.dirty_pages == 1

    def test_dirty_range_extends(self):
        frame = ExtentFrame(head_pid=0, npages=4, page_size=PAGE)
        frame.write_at(0, b"a")
        frame.write_at(3 * PAGE, b"b")
        assert (frame.dirty_from, frame.dirty_to) == (0, 4)

    def test_dirty_slice_contains_written_bytes(self):
        frame = ExtentFrame(head_pid=0, npages=2, page_size=PAGE)
        frame.write_at(PAGE, b"hello")
        assert frame.dirty_slice()[:5] == b"hello"

    def test_write_beyond_capacity_rejected(self):
        frame = ExtentFrame(head_pid=0, npages=1, page_size=PAGE)
        with pytest.raises(ValueError):
            frame.write_at(PAGE - 2, b"xyz")

    def test_mark_dirty_validates_range(self):
        frame = ExtentFrame(head_pid=0, npages=2, page_size=PAGE)
        with pytest.raises(ValueError):
            frame.mark_dirty(1, 3)

    def test_mismatched_data_rejected(self):
        with pytest.raises(ValueError):
            ExtentFrame(head_pid=0, npages=2, page_size=PAGE,
                        data=bytearray(PAGE))


class TestFetchAndResidency:
    @pytest.mark.parametrize("kind", ["vmcache", "hashtable"])
    def test_fetch_reads_from_device(self, kind):
        pool = make_pool(kind)
        pool.device.write(7, b"\x42" * PAGE)
        frames = pool.fetch_extents([(7, 1)])
        assert bytes(frames[0].data) == b"\x42" * PAGE
        assert pool.stats.misses == 1
        pool.unpin(frames)

    @pytest.mark.parametrize("kind", ["vmcache", "hashtable"])
    def test_second_fetch_hits(self, kind):
        pool = make_pool(kind)
        pool.device.write(7, b"\x42" * PAGE)
        pool.unpin(pool.fetch_extents([(7, 1)]))
        pool.unpin(pool.fetch_extents([(7, 1)]))
        assert pool.stats.hits == 1
        assert pool.stats.hit_ratio == 0.5

    def test_batch_fetch_uses_single_submission(self):
        pool = make_pool("vmcache")
        for pid in (1, 10, 20):
            pool.device.write(pid, b"\x01" * PAGE)
        before = pool.device.stats.read_requests
        pool.unpin(pool.fetch_extents([(1, 1), (10, 1), (20, 1)]))
        # Three commands in the batch, but issued together.
        assert pool.device.stats.read_requests - before == 3

    def test_allocate_frame_is_protected_by_default(self):
        pool = make_pool("vmcache")
        frame = pool.allocate_frame(5, 2)
        assert frame.prevent_evict
        assert pool.used_pages == 2

    def test_allocate_duplicate_rejected(self):
        pool = make_pool("vmcache")
        pool.allocate_frame(5, 1)
        with pytest.raises(ValueError):
            pool.allocate_frame(5, 1)

    def test_oversized_request_rejected(self):
        pool = make_pool("vmcache", capacity_pages=4)
        with pytest.raises(ValueError):
            pool.allocate_frame(0, 8)


class TestWriteBack:
    def test_write_back_flushes_only_dirty_pages(self):
        pool = make_pool("vmcache")
        frame = pool.allocate_frame(10, 4)
        frame.write_at(PAGE, b"dirty!")
        written = pool.write_back(frame)
        assert written == PAGE  # one dirty page, not four
        assert pool.device.peek(11)[:6] == b"dirty!"
        assert not frame.is_dirty

    def test_write_back_clean_frame_is_noop(self):
        pool = make_pool("vmcache")
        frame = pool.allocate_frame(10, 1)
        assert pool.write_back(frame) == 0

    def test_flush_batch(self):
        pool = make_pool("vmcache")
        frames = [pool.allocate_frame(i * 8, 2) for i in range(3)]
        for f in frames:
            f.write_at(0, b"z" * PAGE)
        total = pool.flush_batch(frames)
        assert total == 3 * PAGE
        assert all(not f.is_dirty for f in frames)
        assert pool.device.stats.write_requests == 3


class TestEviction:
    def test_eviction_frees_space(self):
        pool = make_pool("vmcache", capacity_pages=8)
        for i in range(4):
            frame = pool.allocate_frame(i * 2, 2, prevent_evict=False)
            frame.clean()
        pool.allocate_frame(100, 2, prevent_evict=False)  # forces eviction
        assert pool.used_pages <= 8
        assert pool.stats.evictions >= 1

    def test_prevent_evict_is_honoured(self):
        pool = make_pool("vmcache", capacity_pages=8)
        protected = [pool.allocate_frame(i * 2, 2) for i in range(3)]
        victim = pool.allocate_frame(50, 2, prevent_evict=False)
        pool.allocate_frame(100, 2, prevent_evict=False)
        assert all(pool.is_resident(f.head_pid) for f in protected)
        assert not pool.is_resident(victim.head_pid)

    def test_pinned_frames_not_evicted(self):
        pool = make_pool("vmcache", capacity_pages=8, device_pages=4096)
        pool.device.write(30, b"\x07" * (2 * PAGE))
        pinned = pool.fetch_extents([(30, 2)], pin=True)
        for i in range(3):
            pool.allocate_frame(i * 2, 2, prevent_evict=False)
        pool.allocate_frame(100, 2, prevent_evict=False)
        assert pool.is_resident(30)
        pool.unpin(pinned)

    def test_eviction_writes_back_dirty_victims(self):
        pool = make_pool("vmcache", capacity_pages=4)
        frame = pool.allocate_frame(10, 2, prevent_evict=False)
        frame.write_at(0, b"persist me")
        pool.allocate_frame(20, 2, prevent_evict=False)
        pool.allocate_frame(30, 2, prevent_evict=False)  # evicts pid 10 or 20
        assert pool.stats.evictions >= 1
        # If pid 10 was the victim its dirty content must be on the device.
        if not pool.is_resident(10):
            assert pool.device.peek(10)[:10] == b"persist me"

    def test_everything_protected_raises(self):
        pool = make_pool("vmcache", capacity_pages=4)
        pool.allocate_frame(0, 2)  # protected
        pool.allocate_frame(10, 2)
        with pytest.raises(RuntimeError):
            pool.allocate_frame(20, 2)

    def test_fair_eviction_prefers_large_extents(self):
        """Size-weighted acceptance: large extents evict ~N× more often."""
        evicted_large = 0
        trials = 40
        for seed in range(trials):
            pool = make_pool("vmcache", capacity_pages=20, seed=seed)
            pool.allocate_frame(0, 16, prevent_evict=False)   # large
            for i in range(4):
                pool.allocate_frame(100 + i, 1, prevent_evict=False)
            pool.allocate_frame(200, 8, prevent_evict=False)  # forces eviction
            if not pool.is_resident(0):
                evicted_large += 1
        # The 16-page extent is 16x more likely than a 1-page extent.
        assert evicted_large > trials * 0.5

    def test_drop_all_volatile(self):
        pool = make_pool("vmcache")
        pool.allocate_frame(0, 4)
        pool.drop_all_volatile()
        assert pool.used_pages == 0
        assert not pool.is_resident(0)

    def test_drop_single(self):
        pool = make_pool("vmcache")
        pool.allocate_frame(0, 4)
        pool.drop(0)
        assert pool.used_pages == 0


class TestFetchPinsItsHits:
    """``fetch_extents`` must not evict, or leave pinned, its own hits."""

    A, B, C = (0, 2), (10, 2), (20, 2)

    @pytest.mark.parametrize("kind", ["vmcache", "hashtable"])
    def test_make_room_spares_the_batch_hits(self, kind):
        # The pool exactly fits [A, B]; loading C must evict B, never the
        # A this batch returns (the parent raised KeyError on a coin flip).
        for seed in range(8):
            pool = make_pool(kind, capacity_pages=4, seed=seed)
            pool.unpin(pool.fetch_extents([self.A, self.B]))
            frames = pool.fetch_extents([self.A, self.C])
            assert [f.head_pid for f in frames] == [0, 20]
            assert [f.pins for f in frames] == [1, 1]
            assert not pool.is_resident(10)
            pool.unpin(frames)

    @pytest.mark.parametrize("kind", ["vmcache", "hashtable"])
    def test_wedged_fetch_leaves_nothing_pinned(self, kind):
        # Both residents are hits of the batch, so there is no victim.
        for seed in range(8):
            pool = make_pool(kind, capacity_pages=4, seed=seed)
            pool.unpin(pool.fetch_extents([self.A, self.B]))
            with pytest.raises(RuntimeError, match="wedged"):
                pool.fetch_extents([self.A, self.B, self.C])
            assert sum(f.pins for f in pool._frames.values()) == 0
            assert pool.is_resident(0) and pool.is_resident(10)

    def test_failed_load_leaves_nothing_pinned(self):
        pool = make_pool("vmcache", capacity_pages=8)
        pool.unpin(pool.fetch_extents([self.A]))

        def failing_drain():
            raise OSError("injected device failure")
        pool.io.drain = failing_drain
        with pytest.raises(OSError):
            pool.fetch_extents([self.A, self.C])
        assert sum(f.pins for f in pool._frames.values()) == 0
        assert not pool.is_resident(20)

    def test_unpinned_fetch_releases_its_hits(self):
        pool = make_pool("vmcache")
        pool.unpin(pool.fetch_extents([self.A]))
        frames = pool.fetch_extents([self.A, self.C], pin=False)
        assert [f.pins for f in frames] == [0, 0]


def fill(pool, sizes):
    """Allocate one evictable frame per entry of ``sizes`` (in pages)."""
    pid = 0
    frames = []
    for npages in sizes:
        frames.append(pool.allocate_frame(pid, npages, prevent_evict=False))
        pid += npages
    return frames


def evict_and_reinsert(pool, rounds):
    """Victim size per round, on a resident set kept fixed: every victim
    is replaced by a fresh frame of its size before the next draw."""
    next_pid = 1 << 30
    sizes = []
    for _ in range(rounds):
        before = pool.used_pages
        assert pool._evict_one()
        sizes.append(before - pool.used_pages)
        pool.allocate_frame(next_pid, sizes[-1], prevent_evict=False)
        next_pid += sizes[-1]
    return sizes


def check_resident_index(pool):
    """The size-class arrays mirror ``_frames`` exactly."""
    indexed = [f for bucket in pool._buckets for f in bucket]
    assert len(indexed) == len(pool._frames)
    assert {id(f) for f in indexed} == \
        {id(f) for f in pool._frames.values()}
    for size_class, bucket in enumerate(pool._buckets):
        assert pool._bucket_pages[size_class] == \
            sum(f.npages for f in bucket)
        for slot, frame in enumerate(bucket):
            assert frame.slot == slot
            assert (frame.npages - 1).bit_length() == size_class
    assert pool.used_pages == sum(f.npages for f in pool._frames.values())
    assert pool.used_pages <= pool.capacity_pages


class TestVictimSampler:
    """Distribution, determinism and cost of ``_pick_victim`` - all
    seeded, counted in probes, never timed."""

    ROUNDS = 20_000
    LADDER = [1, 2, 4, 8, 16, 32, 64, 128]

    def victim_shares(self, policy, counts, seed=3):
        sizes = [n for n, k in counts.items() for _ in range(k)]
        pool = make_pool("vmcache", capacity_pages=sum(sizes), seed=seed,
                         device_pages=1 << 31, page_size=16)
        pool.eviction_policy = policy   # assigned late, as the ablation does
        fill(pool, sizes)
        victims = Counter(evict_and_reinsert(pool, self.ROUNDS))
        check_resident_index(pool)
        return {n: victims[n] / self.ROUNDS for n in counts}

    @pytest.mark.parametrize("counts", [
        # 128 pages per size: 128 one-page frames together are as
        # evictable as the single 128-page frame.
        {n: 128 // n for n in LADDER},
        # Two sizes inside one class (4, 8]: the size coin decides.
        {5: 48, 8: 30},
        # 3 sits at 3/4 of its class maximum, 8 at the maximum of its
        # own: a sampler that went back to the class draw after a size
        # rejection would starve the 3s by a fifth.
        {3: 80, 8: 60},
    ], ids=["ladder", "one-class", "two-classes"])
    def test_fair_victims_are_proportional_to_pages(self, counts):
        total = sum(n * k for n, k in counts.items())
        for n, share in self.victim_shares("fair", counts).items():
            assert share == pytest.approx(n * counts[n] / total, rel=0.10)

    def test_uniform_victims_ignore_size(self):
        shares = self.victim_shares("uniform", {n: 16 for n in self.LADDER})
        for share in shares.values():
            assert share == pytest.approx(1 / 8, rel=0.10)

    def test_same_seed_same_victims_different_seed_different(self):
        def victims(seed):
            pool = make_pool("vmcache", capacity_pages=256, seed=seed)
            fill(pool, [1, 2, 3, 4, 6, 8, 16] * 6)
            return evict_and_reinsert(pool, 300)
        assert victims(7) == victims(7)
        assert victims(7) != victims(8)

    @pytest.mark.parametrize("sizes", [
        [1] * 20_000,                  # many frames, one class
        [2] * 128 + [128] * 2,         # the eviction ablation's mix
        [3] * 100 + [65] * 4,          # worst case: just above half a class
    ], ids=["20k-single-page", "ablation-mix", "off-power"])
    def test_probes_per_eviction_stay_constant(self, sizes):
        pool = make_pool("vmcache", capacity_pages=sum(sizes), seed=1,
                         device_pages=1 << 31, page_size=16)
        fill(pool, sizes)
        evict_and_reinsert(pool, 5_000)
        assert pool.stats.evictions == 5_000
        assert pool.stats.eviction_probes / pool.stats.evictions <= 4

    def test_pinned_and_protected_frames_are_never_chosen(self):
        pool = make_pool("vmcache", capacity_pages=400, seed=2)
        frames = fill(pool, [1, 2, 4, 8] * 20)
        spared = set()
        for i, frame in enumerate(frames):
            if i % 3 == 0:
                frame.pins = 1
            elif i % 3 == 1:
                frame.prevent_evict = True
            else:
                continue
            spared.add(frame.head_pid)
        for _ in range(3_000):
            victim = pool._pick_victim()
            assert victim.head_pid not in spared
        # All but one evictable frame gone: the sweep still finds it.
        for frame in frames:
            if frame.head_pid not in spared and frame is not frames[2]:
                pool.drop(frame.head_pid)
        assert pool._pick_victim() is frames[2]

    def test_all_pinned_pool_is_wedged_after_one_sweep(self):
        pool = make_pool("vmcache", capacity_pages=5_000,
                         device_pages=1 << 20, page_size=16)
        for frame in fill(pool, [1] * 5_000):
            frame.pins = 1
        with pytest.raises(RuntimeError, match="wedged"):
            pool.allocate_frame(1 << 19, 1)
        assert pool.stats.evictions == 0
        assert 5_000 <= pool.stats.eviction_probes <= 2 * 5_000

    def test_probe_counter_reaches_obs_and_report(self):
        from repro import obs
        from repro.db import BlobDB, EngineConfig
        db = BlobDB(EngineConfig(device_pages=4096, wal_pages=128,
                                 catalog_pages=64, buffer_pool_pages=64))
        db.create_table("t")
        assert "0 evictions, 0.00 probes each" in db.stats_report().format()
        tracer = obs.attach(db.model)
        for i in range(40):
            with db.transaction() as txn:
                db.put_blob(txn, "t", b"k%d" % i, bytes(3 * PAGE))
        report = db.stats_report()
        assert report.pool_evictions > 0
        assert report.pool_eviction_probes == db.pool.stats.eviction_probes
        assert 1 <= report.pool_probes_per_eviction <= 4
        assert f"{report.pool_probes_per_eviction:.2f} probes each" \
            in report.format()
        counters = tracer.metrics.counters
        assert counters["pool.evict_probes"].total() == \
            report.pool_eviction_probes
        assert counters["pool.evictions"].total() == report.pool_evictions

    @pytest.mark.parametrize("kind", ["vmcache", "hashtable"])
    def test_random_churn_keeps_the_index_consistent(self, kind):
        pool = make_pool(kind, capacity_pages=96, seed=4,
                         device_pages=1 << 20, page_size=16)
        rng = random.Random(11)
        next_pid = 0
        for step in range(4_000):
            roll = rng.random()
            if roll < 0.55:                      # insert (evicts when full)
                npages = rng.choice([1, 1, 2, 3, 4, 7, 8, 16, 33])
                if roll < 0.30:
                    pool.allocate_frame(next_pid, npages,
                                        prevent_evict=False)
                else:
                    pool.fetch_extents([(next_pid, npages)], pin=False)
                next_pid += npages
            elif roll < 0.80 and pool._frames:   # drop a resident extent
                pool.drop(rng.choice(list(pool._frames)))
            elif roll < 0.995:                   # plain eviction
                pool._evict_one()
            else:                                # crash
                pool.drop_all_volatile()
            if step % 50 == 0:
                check_resident_index(pool)
        pool.drop(next_pid)                      # absent: a no-op
        check_resident_index(pool)
        assert pool.stats.evictions > 500


class TestReadBlobViews:
    def test_vmcache_multi_extent_read_is_zero_copy(self):
        pool = make_pool("vmcache")
        pool.alias_threshold_bytes = 0  # always alias for this test
        pool.device.write(0, b"A" * PAGE)
        pool.device.write(10, b"B" * (2 * PAGE))
        with pool.read_blob([(0, 1), (10, 2)], size=PAGE + 100) as view:
            data = view.contiguous()
            assert data == b"A" * PAGE + b"B" * 100
        assert pool.aliasing.stats.local_acquires == 1
        assert pool.aliasing.stats.tlb_shootdowns == 1

    def test_vmcache_small_multi_extent_read_copies_instead(self):
        """Below the threshold the pool copies: TLB flush > memcpy for
        small BLOBs (the paper's Fig. 10 crossover)."""
        pool = make_pool("vmcache")
        pool.device.write(0, b"A" * PAGE)
        pool.device.write(10, b"B" * PAGE)
        with pool.read_blob([(0, 1), (10, 1)], size=2 * PAGE) as view:
            assert view.contiguous() == b"A" * PAGE + b"B" * PAGE
        assert pool.aliasing.stats.local_acquires == 0
        assert pool.aliasing.stats.tlb_shootdowns == 0

    def test_vmcache_large_blob_uses_aliasing(self):
        pool = make_pool("vmcache", capacity_pages=128)
        npages = 40  # 160 KB > the 64 KB threshold
        pool.device.write(0, b"C" * (npages * PAGE))
        pool.device.write(100, b"D" * PAGE)
        size = (npages + 1) * PAGE
        with pool.read_blob([(0, npages), (100, 1)], size=size) as view:
            assert len(view.contiguous()) == size
        assert pool.aliasing.stats.local_acquires == 1

    def test_vmcache_single_extent_needs_no_aliasing(self):
        pool = make_pool("vmcache")
        pool.device.write(0, b"A" * PAGE)
        with pool.read_blob([(0, 1)], size=50) as view:
            assert view.contiguous() == b"A" * 50
        assert pool.aliasing.stats.local_acquires == 0

    def test_hashtable_multi_extent_read_copies(self):
        pool = make_pool("hashtable")
        pool.device.write(0, b"A" * PAGE)
        pool.device.write(10, b"B" * PAGE)
        before = pool.model.memcpy_bytes
        with pool.read_blob([(0, 1), (10, 1)], size=2 * PAGE) as view:
            assert view.contiguous() == b"A" * PAGE + b"B" * PAGE
        assert pool.model.memcpy_bytes - before == 2 * PAGE

    def test_view_release_unpins(self):
        pool = make_pool("vmcache", capacity_pages=8)
        pool.device.write(0, b"A" * PAGE)
        view = pool.read_blob([(0, 1)], size=PAGE)
        view.release()
        view.release()  # idempotent
        # Frame can now be evicted to make room.
        for i in range(4):
            pool.allocate_frame(100 + i * 2, 2, prevent_evict=False)
        assert pool.used_pages <= 8

    def test_view_after_release_raises(self):
        pool = make_pool("vmcache")
        pool.device.write(0, b"A" * PAGE)
        view = pool.read_blob([(0, 1)], size=PAGE)
        view.release()
        with pytest.raises(RuntimeError):
            view.contiguous()

    def test_copy_to_client_charges_one_memcpy(self):
        pool = make_pool("vmcache")
        pool.device.write(0, b"A" * PAGE)
        with pool.read_blob([(0, 1)], size=PAGE) as view:
            before = pool.model.memcpy_bytes
            view.copy_to_client(pool.model)
            assert pool.model.memcpy_bytes - before == PAGE


class TestTranslationCosts:
    def test_vmcache_translation_cheaper_for_large_extents(self):
        """N-page extent: N hash probes vs one vmcache translation."""
        vm = make_pool("vmcache")
        ht = make_pool("hashtable")
        for pool in (vm, ht):
            pool.device.write(0, b"x" * (32 * PAGE))
            pool.unpin(pool.fetch_extents([(0, 32)]))  # load
            t0 = pool.model.clock.now_ns
            pool.unpin(pool.fetch_extents([(0, 32)]))  # hit: translation only
            pool.translation_ns = pool.model.clock.now_ns - t0
        assert vm.translation_ns < ht.translation_ns / 10
