"""Common buffer-pool machinery: residency, fair eviction, write-back."""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.buffer.frames import BlobView, ExtentFrame
from repro.io import IoScheduler
from repro.sim.cost import CostModel
from repro.storage.device import SimulatedNVMe


@dataclass
class PoolStats:
    """Counters for the buffer experiments (Figs. 9, 10)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Candidate frames the victim sampler examined (1-2 per eviction).
    eviction_probes: int = 0
    writebacks: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Consecutive pinned/protected draws the victim sampler tolerates
#: before it falls back to one linear sweep of the resident set.
MAX_VICTIM_REDRAWS = 16


class BufferPoolBase:
    """Extent-granular buffer pool over a simulated device.

    Subclasses implement the translation cost (:meth:`_translate`) and the
    materialization strategy (:meth:`read_blob`): that is exactly where
    the hash-table design and vmcache+exmap differ in the paper.
    """

    def __init__(self, device: SimulatedNVMe, model: CostModel,
                 capacity_pages: int, eviction_seed: int = 0,
                 eviction_policy: str = "fair") -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        if eviction_policy not in ("fair", "uniform"):
            raise ValueError("eviction_policy must be 'fair' or 'uniform'")
        self.device = device
        self.model = model
        self.capacity_pages = capacity_pages
        #: SQ/CQ front end: every batched pool I/O (miss loads, flush
        #: batches) goes through one scheduler so adjacent extents
        #: coalesce and batches are priced at its queue depth.
        self.io = IoScheduler(device, model)
        #: "fair" draws a victim with probability proportional to its
        #: page count (Section III-G); "uniform" treats every extent as
        #: equally evictable (the ablation baseline).  Read on every
        #: draw, so it may be reassigned after construction.
        self.eviction_policy = eviction_policy
        #: Optional RetryPolicy; when set, device I/O issued by the pool
        #: survives transient faults (set by the engine, not per-call).
        self.retry = None
        self.stats = PoolStats()
        self._frames: dict[int, ExtentFrame] = {}
        self._used_pages = 0
        self._rng = random.Random(eviction_seed)
        #: The resident set again, indexed for sampling: size class
        #: ``(npages - 1).bit_length()`` -> swap-remove array of frames
        #: (``frame.slot`` is the index).  Class ``b`` spans (2^(b-1), 2^b]
        #: pages, so the power-of-two extent tiers sit at their class max.
        self._buckets: list[list[ExtentFrame]] = [
            [] for _ in range((capacity_pages - 1).bit_length() + 1)]
        #: Pages resident per size class (the "fair" bucket weights).
        self._bucket_pages = [0] * len(self._buckets)

    # -- residency -----------------------------------------------------------

    @property
    def used_pages(self) -> int:
        return self._used_pages

    def is_resident(self, head_pid: int) -> bool:
        return head_pid in self._frames

    def frame_is_current(self, frame: ExtentFrame) -> bool:
        """True while ``frame`` still owns its pages in this pool.

        A deferred group-commit flush uses this to skip frames whose
        blob was dropped or replaced after the commit that queued them:
        their pages may have been reallocated to someone else.
        """
        return self._frames.get(frame.head_pid) is frame

    def get_frame(self, head_pid: int) -> ExtentFrame | None:
        frame = self._frames.get(head_pid)
        if frame is not None:
            self._translate(frame.npages)
        return frame

    def _insert(self, frame: ExtentFrame) -> None:
        self._frames[frame.head_pid] = frame
        self._used_pages += frame.npages
        size_class = (frame.npages - 1).bit_length()
        bucket = self._buckets[size_class]
        frame.slot = len(bucket)
        bucket.append(frame)
        self._bucket_pages[size_class] += frame.npages

    def _remove(self, frame: ExtentFrame) -> None:
        del self._frames[frame.head_pid]
        self._used_pages -= frame.npages
        size_class = (frame.npages - 1).bit_length()
        bucket = self._buckets[size_class]
        last = bucket.pop()
        if last is not frame:
            bucket[frame.slot] = last
            last.slot = frame.slot
        self._bucket_pages[size_class] -= frame.npages

    def _device_call(self, op):
        """Issue a device operation, retrying transient faults if a
        retry policy is attached."""
        if self.retry is not None:
            return self.retry.run(op)
        return op()

    def _translate(self, npages: int) -> None:
        """Charge the page-translation cost; subclass-specific."""
        raise NotImplementedError

    # -- allocation of fresh frames ----------------------------------------------

    def allocate_frame(self, head_pid: int, npages: int, *,
                       prevent_evict: bool = True) -> ExtentFrame:
        """Create a frame for a newly allocated extent (no device read).

        Freshly allocated BLOB extents are protected from eviction until
        their commit-time flush completes (Section III-C).
        """
        if head_pid in self._frames:
            raise ValueError(f"extent {head_pid} already resident")
        self._make_room(npages)
        frame = ExtentFrame(head_pid=head_pid, npages=npages,
                            page_size=self.device.page_size,
                            prevent_evict=prevent_evict,
                            san=self.model.san,
                            race=self.model.race)
        self._insert(frame)
        return frame

    # -- reads ------------------------------------------------------------------

    def fetch_extents(self, ranges: list[tuple[int, int]],
                      pin: bool = True) -> list[ExtentFrame]:
        """Ensure all extents are resident; misses load in ONE async batch.

        This is the paper's read path: "allocates N buffer frames for all
        those extents and reads the extents using a single asynchronous
        IO system call" (Section III-D).
        """
        # Hits are pinned as they are counted: ``_make_room`` below must
        # not evict an extent this very batch is about to return.
        hits: list[ExtentFrame] = []
        missing: list[tuple[int, int]] = []
        for pid, npages in ranges:
            frame = self._frames.get(pid)
            self._translate(npages)
            if frame is None:
                missing.append((pid, npages))
            else:
                frame.pins += 1
                hits.append(frame)
        self.stats.hits += len(hits)
        self.stats.misses += len(missing)
        obs = self.model.obs
        if obs is not None:
            obs.count("pool.hits", len(hits))
            obs.count("pool.misses", len(missing))
        try:
            if missing:
                self._load(missing)
                frames = [self._frames[pid] for pid, _ in ranges]
            else:
                frames = hits
        finally:
            # The provisional pins never outlive the call: a load that
            # raises (wedged pool, exhausted retries, checksum mismatch)
            # leaves nothing pinned.
            for frame in hits:
                frame.pins -= 1
        san = self.model.san
        race = self.model.race
        if san is not None and pin:
            # One batch acquisition: pages latched together are unordered
            # with respect to each other (the pool pins them atomically).
            san.on_latch_acquire([pid for pid, _ in ranges])
        for frame in frames:
            if san is not None:
                frame.san = san
            if race is not None:
                frame.race = race
            if pin:
                frame.pins += 1
        return frames

    def _load(self, missing: list[tuple[int, int]]) -> None:
        """Make room for the missing extents and read them as one batch."""
        obs = self.model.obs
        pages = sum(n for _, n in missing)
        if obs is not None:
            obs.begin("pool.load")
        try:
            self._make_room(pages)
            tickets = [self.io.submit_read(pid, n) for pid, n in missing]
            self._device_call(self.io.drain)
            for (pid, npages), ticket in zip(missing, tickets):
                assert ticket.result is not None
                self._insert(ExtentFrame(head_pid=pid, npages=npages,
                                         page_size=self.device.page_size,
                                         data=bytearray(ticket.result),
                                         san=self.model.san,
                                         race=self.model.race))
        finally:
            if obs is not None:
                obs.end(extents=len(missing), pages=pages)

    def unpin(self, frames: list[ExtentFrame]) -> None:
        for frame in frames:
            if frame.pins <= 0:
                raise RuntimeError(f"frame {frame.head_pid} is not pinned")
            frame.pins -= 1
            if frame.san is not None:
                frame.san.on_latch_release(frame.head_pid)

    def read_blob(self, ranges: list[tuple[int, int]], size: int,
                  worker_id: int = 0) -> BlobView:
        """Present a possibly multi-extent BLOB as contiguous memory."""
        raise NotImplementedError

    # -- write-back and eviction ---------------------------------------------------

    def write_back(self, frame: ExtentFrame, category: str = "data") -> int:
        """Flush the frame's dirty page range; returns bytes written."""
        if not frame.is_dirty:
            return 0
        san = self.model.san
        if san is not None and category == "data":
            san.on_data_writeback(frame.head_pid)
        payload = frame.dirty_slice()
        obs = self.model.obs
        if obs is not None:
            obs.begin("pool.writeback")
        try:
            self._device_call(lambda: self.device.write(
                frame.head_pid + frame.dirty_from, payload,
                category=category))
        finally:
            if obs is not None:
                obs.end(pid=frame.head_pid, bytes=len(payload))
                obs.count("pool.writebacks")
        frame.clean()
        self.stats.writebacks += 1
        return len(payload)

    def flush_batch(self, frames: list[ExtentFrame], category: str = "data",
                    background: bool = False) -> int:
        """Flush many frames' dirty ranges as one async batch.

        ``background=True`` models work a group committer / checkpointer
        performs off the critical path.  Frames are sorted by head pid
        before submission so the scheduler sees pid-adjacent extents
        next to each other and can coalesce them into larger transfers.
        """
        total = 0
        flushed = 0
        san = self.model.san
        for frame in sorted(frames, key=lambda f: f.head_pid):
            if not frame.is_dirty:
                continue
            if san is not None and category == "data":
                san.on_data_writeback(frame.head_pid)
            payload = frame.dirty_slice()
            self.io.submit_write(frame.head_pid + frame.dirty_from,
                                 payload, category=category)
            total += len(payload)
            flushed += 1
            frame.clean()
            self.stats.writebacks += 1
        if flushed:
            obs = self.model.obs
            if obs is not None:
                obs.begin("pool.flush_batch")
            try:
                self._device_call(
                    lambda: self.io.drain(background=background))
            finally:
                if obs is not None:
                    obs.end(extents=flushed, bytes=total,
                            background=background)
                    obs.count("pool.writebacks", flushed)
        return total

    def flush_all_dirty(self, category: str = "data",
                        background: bool = True,
                        skip_protected: bool = True) -> int:
        """Checkpoint helper: flush every dirty, unprotected frame."""
        victims = [f for f in self._frames.values()
                   if f.is_dirty and not (skip_protected and f.prevent_evict)]
        return self.flush_batch(victims, category=category,
                                background=background)

    def drop(self, head_pid: int) -> None:
        """Remove an extent from the pool (deleted BLOBs); must be clean."""
        frame = self._frames.get(head_pid)
        if frame is not None:
            self._remove(frame)
            if frame.san is not None:
                frame.san.on_frame_drop(head_pid)

    def _make_room(self, npages: int) -> None:
        if npages > self.capacity_pages:
            raise ValueError(
                f"extent batch of {npages} pages exceeds pool capacity "
                f"{self.capacity_pages}")
        while self._used_pages + npages > self.capacity_pages:
            if not self._evict_one():
                raise RuntimeError(
                    "buffer pool wedged: everything pinned or protected")

    def _evict_one(self) -> bool:
        """Evict one extent chosen by :meth:`_pick_victim`; dirty victims
        are written back first.  False when nothing is evictable."""
        frame = self._pick_victim()
        if frame is None:
            return False
        obs = self.model.obs
        if obs is not None:
            obs.instant("pool.evict", pid=frame.head_pid,
                        npages=frame.npages, dirty=frame.is_dirty)
            obs.count("pool.evictions")
        if frame.is_dirty:
            self.write_back(frame)
        self._remove(frame)
        self.stats.evictions += 1
        return True

    def _pick_victim(self) -> ExtentFrame | None:
        """Draw an evictable frame in O(1) expected time (Section III-G).

        The paper's coin, ``rand(MAX_EXT_SIZE) < extent_size``, makes an
        N-page extent N times as evictable as one page.  The same
        distribution without a scan: a size class drawn in proportion to
        its resident pages, a uniform slot in it, accepted with
        probability ``npages / class_max`` (> 1/2).  A size rejection
        redraws the slot *inside the class*: going back to the class draw
        would favour classes whose members sit near their maximum.
        "uniform" weighs classes by frame count and accepts every slot.
        Pinned and protected frames are redrawn; after too many in a row
        one sweep takes the first evictable frame, if there is one.
        """
        if not self._frames:
            return None
        rng = self._rng
        fair = self.eviction_policy == "fair"
        weights = self._bucket_pages if fair \
            else [len(bucket) for bucket in self._buckets]
        victim = None
        probes = 0
        for _ in range(MAX_VICTIM_REDRAWS):
            r = rng.randrange(self._used_pages if fair
                              else len(self._frames))
            size_class = 0
            while r >= weights[size_class]:
                r -= weights[size_class]
                size_class += 1
            bucket = self._buckets[size_class]
            class_max = 1 << size_class
            while True:
                frame = bucket[rng.randrange(len(bucket))]
                probes += 1
                if not fair or frame.npages == class_max \
                        or rng.randrange(class_max) < frame.npages:
                    break
            if not frame.prevent_evict and frame.pins == 0:
                victim = frame
                break
        else:
            for frame in self._frames.values():
                probes += 1
                if not frame.prevent_evict and frame.pins == 0:
                    victim = frame
                    break
        self.stats.eviction_probes += probes
        if self.model.obs is not None:
            self.model.obs.count("pool.evict_probes", probes)
        return victim

    def drop_all_volatile(self) -> None:
        """Crash simulation: all frames vanish without write-back."""
        self._frames.clear()
        self._used_pages = 0
        for bucket in self._buckets:
            bucket.clear()
        self._bucket_pages = [0] * len(self._buckets)
