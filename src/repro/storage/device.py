"""Page-addressed simulated NVMe SSD with write-amplification accounting.

The device stores real bytes (so crash-recovery tests read back exactly
what survived a simulated crash) and charges I/O time to the owning
:class:`~repro.sim.cost.CostModel`.  Requests submitted as one batch
overlap their latency like commands in an NVMe submission queue, which is
how the paper's single-commit "multiple asynchronous I/O requests"
(Section III-C) gain their advantage over dependent, interleaved I/O.

End-to-end data protection: like NVMe protection information (T10
DIF/DIX), every page written through the normal I/O path is protected
by an out-of-band CRC32; verifying reads recompute it and raise
:class:`~repro.db.errors.ChecksumMismatchError` instead of returning
silently corrupt bytes.  The fault-injection layer
(:mod:`repro.storage.faults`) corrupts stored pages *without* touching
the recorded checksums — exactly the divergence real torn writes and
bit rot produce relative to a device's protection metadata.

The CRCs are taken lazily but exactly.  Stored bytes can diverge from
what the engine wrote only through :meth:`SimulatedNVMe._poke`, so that
hook records the CRC of a page's last legitimately written content just
before it first diverges, and a legitimate write drops the record.
Every other protected page matches its CRC by construction, so the host
computes CRCs only for pages that carry a record.  Virtual time is
unaffected: writes and verifications still charge
:meth:`~repro.sim.cost.CostModel.crc32_bytes` for every byte.  All-zero
pages share one per-device object.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Protocol, runtime_checkable

from repro.sim.cost import CostModel

#: Write categories used for amplification accounting.
WRITE_CATEGORIES = ("data", "wal", "journal", "meta", "dwb", "index")

#: Smallest write a block device accepts (the Samsung 980 Pro's block).
LOGICAL_BLOCK_BYTES = 512


class DeviceFull(Exception):
    """A write addressed a page beyond the device capacity."""


class CapabilityError(Exception):
    """An operation was issued to a device that lacks the capability.

    The canonical case: a ``write_bytes`` range that is not aligned to
    the device's ``write_unit`` (a byte-granular append on a block
    device, which only persists whole logical blocks).
    Callers negotiate through :attr:`StorageDevice.capabilities` instead
    of catching this in hot paths.
    """


@dataclass(frozen=True)
class DeviceCapabilities:
    """What a device can do and how its I/O is priced.

    * ``kind`` — cost channel: which ``CostParams`` entries price this
      device's transfers (``"nvme"`` → ``ssd_*``, ``"pmem"`` →
      ``pmem_*``; wrappers report their substrate).
    * ``byte_addressable`` — supports ``read_bytes`` and persists a
      ``write_bytes`` on return (cache-line flush + fence); block
      devices need an ``fdatasync`` to make writes durable.
    * ``write_unit`` — the granularity of ``write_bytes``: 1 on
      byte-addressable media, the logical-block size on block devices.
    * ``queue_depth`` — device-internal command parallelism; ``None``
      for byte-addressable media, whose loads/stores have no queue.
    * ``stripe_width`` — number of independent backing devices (> 1 for
      :class:`~repro.storage.stripe.StripedDevice`); with
      ``stripe_pages`` it lets the I/O scheduler keep coalesced runs
      inside one stripe chunk.
    """

    kind: str
    byte_addressable: bool = False
    queue_depth: int | None = None
    stripe_width: int = 1
    write_unit: int = LOGICAL_BLOCK_BYTES


@runtime_checkable
class StorageDevice(Protocol):
    """The capability-typed protocol every simulated device satisfies.

    Engine, WAL, buffer pool, shards, replicas, and the I/O scheduler
    hold devices through this interface only; concrete devices
    (:class:`SimulatedNVMe`, :class:`~repro.storage.pmem.SimulatedPMem`,
    :class:`~repro.storage.stripe.StripedDevice`, fault wrappers) are
    interchangeable behind it.
    """

    model: CostModel
    page_size: int
    capacity_pages: int

    @property
    def capabilities(self) -> DeviceCapabilities: ...

    @property
    def stats(self) -> "DeviceStats": ...

    def write(self, pid: int, data: bytes, category: str = "data",
              background: bool = False) -> None: ...

    def read(self, pid: int, npages: int, verify: bool = True) -> bytes: ...

    def submit(self, requests: list["IoRequest"], background: bool = False,
               verify: bool = True,
               queue_depth: int | None = None) -> list[bytes | None]: ...

    def write_bytes(self, offset: int, data: bytes, category: str = "wal",
                    background: bool = False) -> None: ...

    def verify_range(self, pid: int, npages: int) -> list[int]: ...

    def check_page(self, pid: int) -> bool: ...

    def peek(self, pid: int, npages: int = 1) -> bytes: ...

    def resident_pages(self) -> int: ...


def capabilities_of(device) -> DeviceCapabilities:
    """The device's capability record (unknown block device if absent)."""
    caps = getattr(device, "capabilities", None)
    if caps is None:
        return DeviceCapabilities(kind="unknown")
    return caps


def check_write_unit(device, offset: int, nbytes: int) -> None:
    """Raise ``CapabilityError`` unless the byte range is unit-aligned."""
    unit = capabilities_of(device).write_unit
    if offset % unit or nbytes % unit:
        raise CapabilityError(
            f"{type(device).__name__} writes {unit}-byte units: byte "
            f"range offset={offset} nbytes={nbytes} is not aligned")


@dataclass
class IoRequest:
    """One contiguous device command: ``npages`` starting at page ``pid``.

    For writes, ``data`` holds exactly ``npages * page_size`` bytes.
    """

    pid: int
    npages: int
    data: bytes | None = None
    category: str = "data"

    @property
    def is_write(self) -> bool:
        return self.data is not None


@dataclass
class DeviceStats:
    """Byte/request accounting, split by category for writes."""

    bytes_read: int = 0
    read_requests: int = 0
    write_requests: int = 0
    #: ``write_bytes`` requests (sector appends on block devices, byte
    #: appends on PMem).  Their exact byte counts land in
    #: ``bytes_written_by_category`` — never rounded up to pages.
    byte_append_requests: int = 0
    bytes_written_by_category: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in WRITE_CATEGORIES})
    write_requests_by_category: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in WRITE_CATEGORIES})

    @property
    def bytes_written(self) -> int:
        return sum(self.bytes_written_by_category.values())

    def write_amplification(self, payload_bytes: int) -> float:
        """Device bytes written per logical payload byte."""
        if payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        return self.bytes_written / payload_bytes

    def snapshot(self) -> "DeviceStats":
        return DeviceStats(
            bytes_read=self.bytes_read,
            read_requests=self.read_requests,
            write_requests=self.write_requests,
            byte_append_requests=self.byte_append_requests,
            bytes_written_by_category=dict(self.bytes_written_by_category),
            write_requests_by_category=dict(self.write_requests_by_category),
        )

    def delta_since(self, earlier: "DeviceStats") -> "DeviceStats":
        # Custom categories may first appear on either side of the
        # interval, so every per-category delta is taken over the union
        # of both key sets (a key missing on one side counts as zero).
        return DeviceStats(
            bytes_read=self.bytes_read - earlier.bytes_read,
            read_requests=self.read_requests - earlier.read_requests,
            write_requests=self.write_requests - earlier.write_requests,
            byte_append_requests=self.byte_append_requests
            - earlier.byte_append_requests,
            bytes_written_by_category=_dict_delta(
                self.bytes_written_by_category,
                earlier.bytes_written_by_category),
            write_requests_by_category=_dict_delta(
                self.write_requests_by_category,
                earlier.write_requests_by_category),
        )

    @classmethod
    def merge(cls, parts: Iterable["DeviceStats"]) -> "DeviceStats":
        """Union accounting over stripe members (or any device set).

        Per-category maps are summed over the union of key sets, so a
        category that only one member ever saw still aggregates.
        """
        total = cls()
        for part in parts:
            total.bytes_read += part.bytes_read
            total.read_requests += part.read_requests
            total.write_requests += part.write_requests
            total.byte_append_requests += part.byte_append_requests
            for cat, nbytes in part.bytes_written_by_category.items():
                total.bytes_written_by_category[cat] = \
                    total.bytes_written_by_category.get(cat, 0) + nbytes
            for cat, count in part.write_requests_by_category.items():
                total.write_requests_by_category[cat] = \
                    total.write_requests_by_category.get(cat, 0) + count
        return total


def _dict_delta(now: dict[str, int], earlier: dict[str, int]) \
        -> dict[str, int]:
    keys = sorted(set(now) | set(earlier))
    return {k: now.get(k, 0) - earlier.get(k, 0) for k in keys}


@dataclass
class IntegrityStats:
    """Protection-information accounting (per-page CRC32)."""

    pages_protected: int = 0
    pages_verified: int = 0
    checksum_failures: int = 0

    @classmethod
    def merge(cls, parts: Iterable["IntegrityStats"]) -> "IntegrityStats":
        total = cls()
        for part in parts:
            total.pages_protected += part.pages_protected
            total.pages_verified += part.pages_verified
            total.checksum_failures += part.checksum_failures
        return total


class SimulatedNVMe:
    """A sparse array of ``capacity_pages`` pages of ``page_size`` bytes."""

    def __init__(self, model: CostModel, capacity_pages: int,
                 page_size: int = 4096, protect: bool = True) -> None:
        if capacity_pages <= 0 or page_size <= 0:
            raise ValueError("capacity and page size must be positive")
        self.model = model
        self.capacity_pages = capacity_pages
        self.page_size = page_size
        self.stats = DeviceStats()
        #: Out-of-band per-page CRC32 protection information.
        self.protect = protect
        self.integrity = IntegrityStats()
        #: CRC of the intended content of each page whose stored bytes
        #: were poked since its last legitimate write.
        self._page_crc: dict[int, int] = {}
        #: Pages poked before any legitimate write: stored, unprotected.
        self._unwritten: set[int] = set()
        self._pages: dict[int, bytes] = {}
        self._zero = bytes(page_size)

    @property
    def capabilities(self) -> DeviceCapabilities:
        return DeviceCapabilities(
            kind="nvme", byte_addressable=False,
            queue_depth=self.model.params.ssd_queue_depth,
            write_unit=math.gcd(LOGICAL_BLOCK_BYTES, self.page_size))

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_pages * self.page_size

    def _check_range(self, pid: int, npages: int) -> None:
        if pid < 0 or npages <= 0:
            raise ValueError(f"bad I/O range pid={pid} npages={npages}")
        if pid + npages > self.capacity_pages:
            raise DeviceFull(
                f"I/O [{pid}, {pid + npages}) beyond capacity "
                f"{self.capacity_pages} pages")

    # -- synchronous single-request API ------------------------------------

    def write(self, pid: int, data: bytes, category: str = "data",
              background: bool = False) -> None:
        """Write ``data`` (a whole number of pages) starting at ``pid``."""
        self.submit([IoRequest(pid=pid, npages=_npages(data, self.page_size),
                               data=data, category=category)],
                    background=background)

    def read(self, pid: int, npages: int, verify: bool = True) -> bytes:
        """Read ``npages`` pages starting at ``pid``.

        ``verify=True`` checks each page against its recorded protection
        CRC and raises ``ChecksumMismatchError`` on divergence; recovery
        paths that handle corruption themselves pass ``verify=False``.
        """
        self._check_range(pid, npages)
        self.stats.read_requests += 1
        nbytes = npages * self.page_size
        self.stats.bytes_read += nbytes
        obs = self.model.obs
        if obs is not None:
            obs.begin("device.read")
        try:
            self._charge_batch(nbytes, 1, 0, 0, None)
            if verify:
                self._verify_pages(pid, npages)
        finally:
            if obs is not None:
                obs.end(pid=pid, bytes=nbytes)
                obs.count("device.read_bytes", nbytes)
                obs.count("device.read_requests")
        return self._gather(pid, npages)

    # -- asynchronous batch API ---------------------------------------------

    def submit(self, requests: list[IoRequest],
               background: bool = False,
               verify: bool = True,
               queue_depth: int | None = None) -> list[bytes | None]:
        """Execute a batch of commands whose latencies overlap.

        Returns, positionally, the read data for read requests and ``None``
        for writes.  This models ``io_uring``/libaio submission: one wave
        of up-to-queue-depth commands pays one device latency.
        ``queue_depth`` caps how many of the batch's commands are in
        flight at once (the submitter's SQ depth); the device-internal
        ``ssd_queue_depth`` remains the upper bound.

        ``background=True`` models work hidden from the critical path —
        page-cache writeback in file systems, a DBMS group committer, the
        asynchronous extent flush of the paper's commit protocol: bytes
        and requests are *accounted* (write amplification is real) but no
        simulated time is charged to the issuing worker.
        """
        if not requests:
            return []
        read_bytes = 0
        write_bytes = 0
        n_reads = 0
        n_writes = 0
        results: list[bytes | None] = []
        for req in requests:
            self._check_range(req.pid, req.npages)
            nbytes = req.npages * self.page_size
            if req.is_write:
                assert req.data is not None
                if len(req.data) != nbytes:
                    raise ValueError(
                        f"write of {req.npages} pages needs {nbytes} bytes, "
                        f"got {len(req.data)}")
                if req.category not in self.stats.bytes_written_by_category:
                    self.stats.bytes_written_by_category[req.category] = 0
                self._scatter(req.pid, req.data)
                self.stats.bytes_written_by_category[req.category] += nbytes
                self.stats.write_requests_by_category[req.category] = \
                    self.stats.write_requests_by_category.get(
                        req.category, 0) + 1
                write_bytes += nbytes
                n_writes += 1
                results.append(None)
            else:
                if verify:
                    self._verify_pages(req.pid, req.npages)
                results.append(self._gather(req.pid, req.npages))
                read_bytes += nbytes
                n_reads += 1
        self.stats.read_requests += n_reads
        self.stats.write_requests += n_writes
        self.stats.bytes_read += read_bytes
        obs = self.model.obs
        if obs is not None:
            for req in requests:
                if req.is_write:
                    obs.count("device.write_bytes",
                              req.npages * self.page_size,
                              category=req.category)
            if n_writes:
                obs.count("device.write_requests", n_writes,
                          background=background)
            if n_reads:
                obs.count("device.read_bytes", read_bytes)
                obs.count("device.read_requests", n_reads)
            obs.begin("device.submit")
        try:
            if not background:
                self._charge_batch(read_bytes, n_reads, write_bytes,
                                   n_writes, queue_depth)
        finally:
            if obs is not None:
                obs.end(reads=n_reads, writes=n_writes,
                        read_bytes=read_bytes, write_bytes=write_bytes,
                        background=background)
        return results

    # -- cost channel ---------------------------------------------------------

    def _charge_batch(self, read_bytes: int, n_reads: int, write_bytes: int,
                      n_writes: int, queue_depth: int | None) -> None:
        """Price one foreground batch through this device's cost channel.

        The block channel: NVMe command latencies overlap in waves up to
        the queue depth, bandwidth is paid per byte, and protected
        writes pay CRC computation.  Byte-addressable devices override
        this with their own ``CostParams`` entries.
        """
        if n_reads:
            self.model.ssd_read(read_bytes, requests=n_reads,
                                queue_depth=queue_depth)
        if n_writes:
            self.model.ssd_write(write_bytes, requests=n_writes,
                                 queue_depth=queue_depth)
            if self.protect:
                self.model.crc32_bytes(write_bytes)

    # -- sub-page interface ---------------------------------------------------

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
        """Persist ``data`` at byte ``offset`` in whole write units.

        Accounts exactly ``len(data)`` bytes (no rounding up to pages)
        and prices one command, unless ``background`` (as in ``submit``).
        """
        check_write_unit(self, offset, len(data))
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
            self._charge_batch(0, 0, len(data), 1, None)

    def read_bytes(self, offset: int, nbytes: int) -> bytes:
        """Byte-granular load — unsupported on block devices."""
        raise CapabilityError(
            f"{type(self).__name__} is block-addressable: byte-granular "
            f"reads need a byte-addressable device")

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

    # -- page store ------------------------------------------------------------

    def _scatter(self, pid: int, data: bytes) -> None:
        ps = self.page_size
        zero = self._zero
        npages = len(data) // ps
        if npages == 1:
            self._pages[pid] = zero if data.startswith(zero) else bytes(data)
        else:
            view = memoryview(data)
            self._pages.update(
                (p, zero if data.startswith(zero, off)
                 else bytes(view[off:off + ps]))
                for p, off in zip(range(pid, pid + npages),
                                  range(0, len(data), ps)))
        self._note_written(pid, npages)

    def _note_written(self, pid: int, npages: int) -> None:
        """Pages ``[pid, pid + npages)`` now hold legitimately written bytes."""
        if self.protect:
            self.integrity.pages_protected += npages
        if self._page_crc or self._unwritten:
            for p in range(pid, pid + npages):
                self._page_crc.pop(p, None)
                self._unwritten.discard(p)

    def _poke(self, pid: int, data: bytes) -> None:
        """Overwrite raw page content *without* updating protection info.

        Fault-injection hook: this is how a torn write or a flipped bit
        diverges the stored bytes from their recorded checksums.  Never
        used by the engine's own I/O paths.  The first poke of a
        protected page records the CRC of its intended content.
        """
        ps = self.page_size
        for i in range((len(data) + ps - 1) // ps):
            p = pid + i
            old = self._pages.get(p)
            if old is None:
                self._unwritten.add(p)
                old = self._zero
            elif self.protect and p not in self._page_crc \
                    and p not in self._unwritten:
                self._page_crc[p] = zlib.crc32(old)
            chunk = bytes(data[i * ps:(i + 1) * ps])
            self._pages[p] = chunk + old[len(chunk):]

    def _gather(self, pid: int, npages: int) -> bytes:
        return b"".join(map(self._pages.get, range(pid, pid + npages),
                            repeat(self._zero, npages)))

    # -- protection information -------------------------------------------------

    def check_page(self, pid: int) -> bool:
        """True when the stored page matches its intended CRC (or has none)."""
        expected = self._page_crc.get(pid)
        return expected is None or zlib.crc32(self._pages[pid]) == expected

    def _poked_in(self, pid: int, npages: int) -> list[int]:
        """Ascending pids in range that carry an intended-content CRC."""
        poked = self._page_crc
        if npages <= len(poked):
            return [p for p in range(pid, pid + npages) if p in poked]
        return sorted(p for p in poked if pid <= p < pid + npages)

    def _protected_in(self, pid: int, end: int) -> int:
        """How many pages in ``[pid, end)`` were ever legitimately written."""
        n = sum(map(self._pages.__contains__, range(pid, end)))
        if self._unwritten:
            n -= sum(1 for p in self._unwritten if pid <= p < end)
        return n

    def _verify_pages(self, pid: int, npages: int) -> None:
        """Raise ``ChecksumMismatchError`` on the first failing page."""
        if not self.protect:
            return
        self.model.crc32_bytes(npages * self.page_size)
        for p in self._poked_in(pid, npages):
            if not self.check_page(p):
                self.integrity.pages_verified += self._protected_in(pid, p + 1)
                self.integrity.checksum_failures += 1
                from repro.db.errors import ChecksumMismatchError
                raise ChecksumMismatchError(
                    f"page {p} failed its protection CRC", pid=p)
        self.integrity.pages_verified += self._protected_in(pid, pid + npages)

    def verify_range(self, pid: int, npages: int) -> list[int]:
        """Return the pids in range whose stored bytes fail their CRC.

        Unlike a verifying read this never raises — recovery uses it to
        locate damage (e.g. in the WAL ring) and decide between repair,
        truncation, and reporting.
        """
        self._check_range(pid, npages)
        if not self.protect:
            return []
        self.model.crc32_bytes(npages * self.page_size)
        bad = [p for p in self._poked_in(pid, npages)
               if not self.check_page(p)]
        self.integrity.pages_verified += npages
        self.integrity.checksum_failures += len(bad)
        return bad

    def peek(self, pid: int, npages: int = 1) -> bytes:
        """Read without charging I/O time (test/inspection helper)."""
        self._check_range(pid, npages)
        return self._gather(pid, npages)

    def resident_pages(self) -> int:
        """Number of pages ever written (occupancy, not logical usage)."""
        return len(self._pages)


def _npages(data: bytes, page_size: int) -> int:
    if len(data) == 0 or len(data) % page_size:
        raise ValueError(
            f"data length {len(data)} is not a whole number of "
            f"{page_size}-byte pages")
    return len(data) // page_size
