"""Byte-addressable simulated persistent memory (Optane DCPMM class).

The device that changes the WAL calculus (ROADMAP #5, "On Usage of
Non-Volatile Memory as Primary Storage for DBMS"): persistence is
byte-granular, so a log append persists exactly the appended bytes —
no page round-up, no read-modify-write of a partially filled log page —
and durability is a cache-line flush plus one fence instead of a block
write latency and an ``fdatasync``.

:class:`SimulatedPMem` keeps the full page-oriented interface of
:class:`~repro.storage.device.SimulatedNVMe` (same sparse page store,
same protection information, same ``submit`` batch semantics), so page
consumers — catalog checkpoints, the recovery scan, fault wrappers —
work unchanged; only the *pricing* flows through the ``pmem_*``
``CostParams`` channel.  On top of that it adds the byte-granular
``write_bytes``/``read_bytes`` fast path the WAL writer negotiates via
``capabilities.byte_addressable``.

Protection information on byte appends stays page-shaped (the CRC map
is per page, so ``verify_range`` keeps working over the WAL region) but
is *priced* per appended byte — the media protects in line granularity,
and a byte append never re-reads the rest of the page.
"""

from __future__ import annotations

from repro.storage.device import (
    DeviceCapabilities,
    DeviceFull,
    SimulatedNVMe,
)


class SimulatedPMem(SimulatedNVMe):
    """A byte-addressable persistent-memory device.

    Inherits the sparse page store and batch interface of the NVMe
    simulation; overrides the cost channel (``pmem_*`` parameters) and
    adds byte-granular persists.
    """

    @property
    def capabilities(self) -> DeviceCapabilities:
        return DeviceCapabilities(kind="pmem", byte_addressable=True,
                                  queue_depth=None)

    # -- cost channel ---------------------------------------------------------

    def _charge_batch(self, read_bytes: int, n_reads: int, write_bytes: int,
                      n_writes: int, queue_depth: int | None) -> None:
        """PMem channel: loads and persists, no command queue.

        A batch of page requests is one streaming access — latency is
        paid once per direction, bandwidth per byte, and persisted
        pages pay line flushes + one fence via ``pmem_persist``.
        """
        if n_reads:
            self.model.pmem_read(read_bytes)
        if n_writes:
            self.model.pmem_persist(write_bytes)
            if self.protect:
                self.model.crc32_bytes(write_bytes)

    # -- byte-granular interface ---------------------------------------------

    def _check_byte_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0:
            raise ValueError(
                f"bad byte range offset={offset} nbytes={nbytes}")
        if offset + nbytes > self.capacity_bytes:
            raise DeviceFull(
                f"byte range [{offset}, {offset + nbytes}) beyond capacity "
                f"{self.capacity_bytes} bytes")

    def write_bytes(self, offset: int, data: bytes, category: str = "wal",
                    background: bool = False) -> None:
        """Persist ``data`` at byte ``offset`` — the WAL fast path.

        Accounts exactly ``len(data)`` bytes under ``category`` (write
        amplification sees no padding) and prices store + cache-line
        flush + fence.  ``background=True`` accounts bytes without
        charging time, mirroring the block device's semantics.
        """
        if not data:
            return
        self._check_byte_range(offset, len(data))
        self._splice_bytes(offset, data)
        if category not in self.stats.bytes_written_by_category:
            self.stats.bytes_written_by_category[category] = 0
        self.stats.bytes_written_by_category[category] += len(data)
        self.stats.write_requests_by_category[category] = \
            self.stats.write_requests_by_category.get(category, 0) + 1
        self.stats.write_requests += 1
        self.stats.byte_append_requests += 1
        obs = self.model.obs
        if obs is not None:
            obs.count("device.write_bytes", len(data), category=category)
            obs.count("device.byte_appends", background=background)
        if not background:
            self.model.pmem_persist(len(data))
            if self.protect:
                # Line-granular protection update over the new bytes
                # only: a byte append never re-reads the page remainder.
                self.model.crc32_bytes(len(data))

    def read_bytes(self, offset: int, nbytes: int) -> bytes:
        """Load ``nbytes`` at byte ``offset`` (priced, byte-granular)."""
        self._check_byte_range(offset, nbytes)
        if nbytes == 0:
            return b""
        self.stats.read_requests += 1
        self.stats.bytes_read += nbytes
        obs = self.model.obs
        if obs is not None:
            obs.count("device.read_bytes", nbytes)
        self.model.pmem_read(nbytes)
        return self.peek_bytes(offset, nbytes)

    # -- raw byte store (substrate-internal; see RPR006) ----------------------

    def _splice_bytes(self, offset: int, data: bytes) -> None:
        """Splice raw bytes into the page store as a legitimate write.

        Substrate-internal: callers outside the storage layer must go
        through :meth:`write_bytes` so cost and accounting stay honest.
        Fault damage goes through ``_poke`` instead.
        """
        ps = self.page_size
        pos = 0
        while pos < len(data):
            pid, byte_off = divmod(offset + pos, ps)
            take = min(ps - byte_off, len(data) - pos)
            page = bytearray(self._pages.get(pid, self._zero))
            page[byte_off:byte_off + take] = data[pos:pos + take]
            self._pages[pid] = bytes(page)
            self._note_written(pid, 1)
            pos += take

    def peek_bytes(self, offset: int, nbytes: int) -> bytes:
        """Raw byte view without charging (test/fault-injection helper)."""
        self._check_byte_range(offset, nbytes)
        if nbytes == 0:
            return b""
        ps = self.page_size
        first_pid = offset // ps
        last_pid = (offset + nbytes - 1) // ps
        raw = self._gather(first_pid, last_pid - first_pid + 1)
        start = offset - first_pid * ps
        return raw[start:start + nbytes]
