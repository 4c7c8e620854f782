"""WAL buffer, group commit, and checkpoint-triggering ring writer.

The writer appends encoded records to an in-memory buffer and flushes
them to a dedicated device region:

* ``group_commit_flush`` — the common case: the group committer drains
  the buffer off the critical path (``background=True`` device I/O), so a
  committing transaction pays no device latency (Section V-A: "our
  implementation uses group commit so the critical path usually does not
  involve I/O").
* An ``append`` that overflows the buffer must *wait*: the overflowing
  flush is synchronous.  This is the physlog penalty the paper measures —
  "transactions must spend considerable time waiting for the group commit
  to finish" when BLOB-sized records stream through a BLOB-sized buffer
  (Section V-B, 10 MB payload).

A flush rewrites only the device write units it touches (512 B on
NVMe, 1 B on PMem): the first unit's durable prefix, the new bytes, and
at least one frame header of zeros, so a scan of a wrapped ring ends
cleanly instead of in stale frames.

When the region runs low the writer invokes the checkpoint callback and
rewinds — checkpoint frequency is therefore proportional to logged bytes,
reproducing "it increases the log size and thus triggers WAL
checkpointing more frequently" (Section II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.io import IoScheduler
from repro.sim.cost import CostModel
from repro.storage.device import SimulatedNVMe, capabilities_of
from repro.wal.records import (
    END_MARKER_BYTES,
    LogRecord,
    decode_records,
    frame_size,
)

#: Chunk size (pages) of the deep-queue sequential scan recovery uses to
#: read the log region: the region is split into chunks submitted as one
#: batch, so chunk latencies overlap up to the scan queue depth instead
#: of serializing behind one giant command.
SCAN_CHUNK_PAGES = 64
SCAN_QUEUE_DEPTH = 32


def scan_region(device, model: CostModel, region_pid: int,
                npages: int, *, verify: bool = False) -> bytes:
    """Read ``npages`` at ``region_pid`` as one deep-queue chunked batch."""
    if npages <= 0:
        return b""
    scheduler = IoScheduler(device, model, queue_depth=SCAN_QUEUE_DEPTH,
                            max_merge_pages=SCAN_CHUNK_PAGES)
    tickets = []
    pid = region_pid
    remaining = npages
    while remaining > 0:
        chunk = min(SCAN_CHUNK_PAGES, remaining)
        tickets.append(scheduler.submit_read(pid, chunk))
        pid += chunk
        remaining -= chunk
    scheduler.drain(verify=verify)
    return b"".join(t.result for t in tickets)  # type: ignore[misc]


class WalFullError(Exception):
    """A single record is too large for the whole WAL region."""


@dataclass
class WalStats:
    records: int = 0
    bytes_appended: int = 0
    flushes: int = 0
    synchronous_flushes: int = 0
    checkpoints: int = 0


class WalWriter:
    """Appends records to a buffered ring over a device region."""

    def __init__(self, device: SimulatedNVMe, model: CostModel,
                 region_pid: int, region_pages: int,
                 buffer_bytes: int = 1 << 20,
                 checkpoint_cb: Callable[[], None] | None = None,
                 category: str = "wal") -> None:
        if region_pages < 2:
            raise ValueError("WAL region needs at least two pages")
        if buffer_bytes < 4096:
            raise ValueError("WAL buffer must hold at least one page")
        self.device = device
        self.model = model
        self.region_pid = region_pid
        self.region_pages = region_pages
        self.buffer_bytes = buffer_bytes
        self.checkpoint_cb = checkpoint_cb
        self.category = category
        #: The device's write unit (512 B on NVMe, 1 B on PMem) and
        #: durability model (PMem persists inside ``write_bytes``).
        self._caps = capabilities_of(device)
        #: Optional RetryPolicy; when set, region writes survive
        #: transient device faults (set by the engine, not per-call).
        self.retry = None
        self.stats = WalStats()
        self._buffer = bytearray()
        #: Offset of the buffer's first frame boundary: nonzero only
        #: after a partial flush cut a frame, whose rest leads the buffer.
        self._front = 0
        #: Bytes durably written into the region since the last rewind.
        self._write_off = 0
        #: Durable prefix of the current (incomplete) write unit; a flush
        #: that lands mid-unit rewrites the unit including this prefix.
        self._head = b""
        self._lsn = 0
        #: Strictly increasing frame sequence; never rewinds, so stale
        #: ring bytes from a previous pass are detectable at recovery.
        self._next_seq = 1
        #: Re-entrancy guard: an overflow flush can trigger a checkpoint
        #: whose callback drains the group-commit window, which asks for
        #: another flush of bytes the outer flush is already persisting.
        self._in_flush = False

    @property
    def region_bytes(self) -> int:
        return self.region_pages * self.device.page_size

    @property
    def lsn(self) -> int:
        """Monotonic count of bytes ever appended."""
        return self._lsn

    def used_fraction(self) -> float:
        if not self.region_bytes:
            return 0.0
        return (self._write_off + len(self._buffer)) / self.region_bytes

    # -- appending ---------------------------------------------------------

    def append(self, record: LogRecord) -> int:
        """Buffer one record; returns its LSN.

        Copies the encoded record into the WAL buffer (priced memcpy).
        If the buffer overflows, it is flushed *synchronously* — the
        appender waits, as a physlog transaction does when a BLOB is
        segmented through a buffer of similar size.
        """
        race = self.model.race
        if race is not None:
            # The append position (_lsn/_next_seq) is one shared cursor:
            # two unordered appenders would interleave torn records.
            race.on_write(("wal", "append"))
        encoded = record.encode(self._next_seq)
        self._next_seq += 1
        if len(encoded) > self.region_bytes:
            raise WalFullError(
                f"record of {len(encoded)} bytes exceeds WAL region")
        lsn = self._lsn
        obs = self.model.obs
        if obs is not None:
            obs.begin("wal.append")
        try:
            self.model.memcpy(len(encoded))
            self._buffer += encoded
            self._lsn += len(encoded)
            self.stats.records += 1
            self.stats.bytes_appended += len(encoded)
            while len(self._buffer) > self.buffer_bytes:
                self._flush_prefix(self.buffer_bytes, background=False)
        finally:
            if obs is not None:
                obs.end(bytes=len(encoded))
                obs.count("wal.records")
                obs.count("wal.bytes_appended", len(encoded))
        return lsn

    # -- flushing -----------------------------------------------------------

    def group_commit_flush(self) -> None:
        """Drain the buffer off the critical path (group committer)."""
        self._flush_prefix(len(self._buffer), background=True)

    def sync_flush(self) -> None:
        """Drain the buffer synchronously (fsync-like durability point)."""
        self._flush_prefix(len(self._buffer), background=False)
        if not self._caps.byte_addressable:
            # PMem appends persist inside write_bytes (cache-line flush
            # + fence); block devices need the fdatasync round-trip.
            self.model.syscall("fdatasync")

    def _flush_prefix(self, nbytes: int, background: bool) -> None:
        if nbytes <= 0 or not self._buffer or self._in_flush:
            return
        nbytes = min(nbytes, len(self._buffer))
        obs = self.model.obs
        if obs is not None:
            obs.begin("wal.flush")
        self._in_flush = True
        try:
            # A group-commit window can buffer more than the whole ring:
            # such a flush goes out in pieces, each filling what is left
            # of the ring, with a checkpoint between pieces.  A piece
            # ends on a frame boundary, so every ring pass starts on
            # one and the log a restart scans stays well formed.
            left = nbytes
            while left > self.region_bytes:
                piece = self._whole_frames(self.region_bytes
                                           - self._write_off)
                if piece:
                    self._write_out(piece, background)
                    left -= piece
                self.checkpoint()
            self._ensure_space(left)
            self._write_out(left, background)
        finally:
            self._in_flush = False
            if obs is not None:
                obs.end(bytes=nbytes, background=background)
                obs.count("wal.flushes", background=background)

    def _whole_frames(self, room: int) -> int:
        """Longest buffer prefix of at most ``room`` bytes that ends on a
        frame boundary (the rest of a cut frame counts as one frame)."""
        end, boundary = 0, self._front
        while boundary <= room:
            end = boundary
            if boundary >= len(self._buffer):
                break
            boundary += frame_size(self._buffer, boundary)
        return end

    def _write_out(self, nbytes: int, background: bool) -> None:
        """Write the buffer's first ``nbytes`` at the ring's write offset."""
        # Unit-aligned: that unit's durable prefix, the new bytes and
        # a zero frame header (clipped at the region end, where the
        # scan ends anyway).
        unit = self._caps.write_unit
        chunk = self._head + bytes(self._buffer[:nbytes])
        start = self._write_off - len(self._head)
        padded = chunk.ljust(min(
            -(-(len(chunk) + END_MARKER_BYTES) // unit) * unit,
            self.region_bytes - start), b"\x00")
        byte_off = self.region_pid * self.device.page_size + start

        def _write() -> None:
            self.device.write_bytes(byte_off, padded,
                                    category=self.category,
                                    background=background)
        flush_start = self.model.clock.now_ns
        if self.retry is not None:
            self.retry.run(_write)
        else:
            _write()
        if not background:
            # Foreground flush time is amortizable by group commit:
            # one flush serves every worker in the commit window
            # (repro.sim.workers divides this by the worker count).
            self.model.wal_flush_time_ns += \
                self.model.clock.now_ns - flush_start
        if nbytes < len(self._buffer):
            boundary = self._front
            while boundary < nbytes:
                boundary += frame_size(self._buffer, boundary)
            self._front = boundary - nbytes
        else:
            self._front = 0
        del self._buffer[:nbytes]
        self._write_off += nbytes
        self._head = chunk[len(chunk) - self._write_off % unit:]
        san = self.model.san
        if san is not None:
            # Everything up to (appended - still buffered) is durable.
            san.on_wal_durable(self._lsn - len(self._buffer))
        self.stats.flushes += 1
        if not background:
            self.stats.synchronous_flushes += 1

    def _ensure_space(self, nbytes: int) -> None:
        # Block rings leave one page of slack for the final unit's zero
        # padding; byte logs use the whole region.
        slack = 0 if self._caps.byte_addressable else self.device.page_size
        if self._write_off + nbytes > self.region_bytes - slack:
            self.checkpoint()

    # -- checkpointing --------------------------------------------------------

    def checkpoint(self) -> None:
        """Run the engine checkpoint and rewind the ring."""
        self.stats.checkpoints += 1
        obs = self.model.obs
        if obs is not None:
            obs.begin("wal.checkpoint")
        try:
            if self.checkpoint_cb is not None:
                self.checkpoint_cb()
            self._write_off = 0
            self._head = b""
        finally:
            if obs is not None:
                obs.end()
                obs.count("wal.checkpoints")

    def reset(self) -> None:
        """Rewind without invoking the callback (post-checkpoint reset)."""
        self._write_off = 0
        self._head = b""

    def set_seq_floor(self, seq: int) -> None:
        """Continue frame sequencing above ``seq`` (used after recovery,
        so stale pre-crash ring records stay distinguishable)."""
        self._next_seq = max(self._next_seq, seq + 1)

    # -- recovery support ---------------------------------------------------------

    def durable_records(self) -> list[LogRecord]:
        """Decode the records currently durable in the region.

        Used by recovery after a crash: buffered-but-unflushed records are
        volatile and correctly absent.
        """
        ps = self.device.page_size
        npages = (self._write_off + ps - 1) // ps
        if npages == 0:
            return []
        # Recovery pays for its log scan like any other read — a chunked
        # deep-queue sequential batch; skip the checksum verify because
        # torn final pages are expected here.
        raw = scan_region(self.device, self.model, self.region_pid, npages)
        return list(decode_records(raw[:self._write_off]))
