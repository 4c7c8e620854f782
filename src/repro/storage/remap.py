"""Out-of-place writes: logical PIDs decoupled from physical addresses.

The paper's proposed answer to storage aging (Section VI): "in
principle, out-of-place write policy can solve the aging problem.  The
core idea is to decouple logical PID from the on-storage physical
address.  Consequently, the DBMS can allocate every extent as new and
map those PIDs with the available physical addresses."

:class:`RemappedDevice` implements that layer over a physical
:class:`~repro.storage.device.SimulatedNVMe` with FTL-like semantics:

* the *logical* address space is larger than the physical device, so the
  extent allocator never fragments — every extent is allocated fresh;
* every logical page write lands on a freshly allocated physical page
  (log-structured); the previous physical page, if any, returns to the
  free pool immediately — overwrites self-reclaim;
* a sub-page ``write_bytes`` (the WAL's sector appends) lands in place
  in the mapped physical page, as an FTL absorbs a partial-page write;
* ``trim`` releases the physical pages of deleted logical extents;
* reads translate per page and gather (one request per physically
  contiguous run), priced through the shared cost model.

Physical space is exhausted only when *live* data exceeds the device —
fragmentation of the logical space is free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.cost import CostModel
from repro.storage.device import (
    DeviceCapabilities,
    DeviceFull,
    IoRequest,
    SimulatedNVMe,
    check_write_unit,
)


@dataclass
class RemapStats:
    logical_writes: int = 0
    relocations: int = 0
    trimmed_pages: int = 0

    @property
    def live_fraction_meaningful(self) -> bool:  # pragma: no cover
        return True


class RemappedDevice:
    """A logical page device backed by out-of-place physical writes.

    Implements the same interface the engine uses on
    :class:`SimulatedNVMe` (``write``/``read``/``submit``/``peek``/
    ``stats``/``capacity_pages``/``page_size``), so it can be passed to
    :class:`~repro.db.database.BlobDB` as the device.
    """

    #: Cost of one logical->physical map update (cached FTL entry).
    _MAP_UPDATE_NS = 30.0

    def __init__(self, model: CostModel, physical_pages: int,
                 logical_pages: int | None = None,
                 page_size: int = 4096) -> None:
        self.model = model
        self.physical = SimulatedNVMe(model, capacity_pages=physical_pages,
                                      page_size=page_size)
        #: The logical space defaults to 8x the physical device: extents
        #: are always allocated fresh and never reuse a fragmented range.
        self.capacity_pages = logical_pages or physical_pages * 8
        self.page_size = page_size
        self._map: dict[int, int] = {}
        self._free: list[int] = list(range(physical_pages - 1, -1, -1))
        self.remap_stats = RemapStats()

    # -- interface parity with SimulatedNVMe --------------------------------

    @property
    def capabilities(self) -> DeviceCapabilities:
        return DeviceCapabilities(
            kind="remap", byte_addressable=False,
            queue_depth=self.model.params.ssd_queue_depth,
            write_unit=self.physical.capabilities.write_unit)

    @property
    def stats(self):
        return self.physical.stats

    @property
    def integrity(self):
        return self.physical.integrity

    @property
    def protect(self) -> bool:
        return self.physical.protect

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_pages * self.page_size

    def live_pages(self) -> int:
        return len(self._map)

    def physical_utilization(self) -> float:
        return len(self._map) / self.physical.capacity_pages

    # -- translation ----------------------------------------------------------

    def _allocate_physical(self) -> int:
        if not self._free:
            raise DeviceFull("out-of-place device: no free physical pages")
        return self._free.pop()

    def _translate_write(self, logical: int) -> int:
        """Out-of-place: a write always gets a fresh physical page."""
        self.model.cpu(self._MAP_UPDATE_NS)
        new_phys = self._allocate_physical()
        old = self._map.get(logical)
        if old is not None:
            self._free.append(old)
            self.remap_stats.relocations += 1
        self._map[logical] = new_phys
        self.remap_stats.logical_writes += 1
        return new_phys

    def _check_logical(self, pid: int, npages: int) -> None:
        if pid < 0 or npages <= 0 or pid + npages > self.capacity_pages:
            raise DeviceFull(
                f"logical I/O [{pid}, {pid + npages}) beyond logical "
                f"capacity {self.capacity_pages}")

    # -- I/O --------------------------------------------------------------------

    def write(self, pid: int, data: bytes, category: str = "data",
              background: bool = False) -> None:
        npages = len(data) // self.page_size
        self.submit([IoRequest(pid=pid, npages=npages, data=data,
                               category=category)], background=background)

    def read(self, pid: int, npages: int, verify: bool = True) -> bytes:
        self._check_logical(pid, npages)
        return b"".join(
            self.physical.read(self._map[pid + i], 1, verify=verify)
            if pid + i in self._map else b"\x00" * self.page_size
            for i in range(npages))

    def submit(self, requests: list[IoRequest],
               background: bool = False,
               verify: bool = True,
               queue_depth: int | None = None) -> list[bytes | None]:
        """Translate each logical request into physical run requests."""
        physical_requests: list[IoRequest] = []
        plans: list[tuple[IoRequest, list[int]] | None] = []
        for req in requests:
            self._check_logical(req.pid, req.npages)
            if req.is_write:
                assert req.data is not None
                phys = [self._translate_write(req.pid + i)
                        for i in range(req.npages)]
                for run_start, run_len, data_off in _runs(phys):
                    physical_requests.append(IoRequest(
                        pid=run_start, npages=run_len,
                        data=req.data[data_off * self.page_size:
                                      (data_off + run_len) * self.page_size],
                        category=req.category))
                plans.append(None)
            else:
                phys = [self._map.get(req.pid + i, -1)
                        for i in range(req.npages)]
                for run_start, run_len, _ in _runs([p for p in phys if p >= 0]):
                    physical_requests.append(IoRequest(pid=run_start,
                                                       npages=run_len))
                plans.append((req, phys))
        self.physical.submit(physical_requests, background=background,
                             queue_depth=queue_depth)
        # Reads re-gather from physical state (content-exact, cost above).
        results: list[bytes | None] = []
        for plan in plans:
            if plan is None:
                results.append(None)
                continue
            req, phys = plan
            if verify:
                for p in phys:
                    if p >= 0:
                        self.physical._verify_pages(p, 1)
            blank = b"\x00" * self.page_size
            results.append(b"".join(
                self.physical.peek(p, 1) if p >= 0 else blank
                for p in phys))
        return results

    def write_bytes(self, offset: int, data: bytes, category: str = "wal",
                    background: bool = False) -> None:
        """Sub-page write, in place in the mapped physical pages (mapped
        fresh if never written), one command per contiguous run."""
        check_write_unit(self, offset, len(data))
        if not data:
            return
        ps = self.page_size
        first = offset // ps
        npages = (offset + len(data) - 1) // ps - first + 1
        self._check_logical(first, npages)
        phys = [self._map.get(first + i) for i in range(npages)]
        phys = [self._translate_write(first + i) if p is None else p
                for i, p in enumerate(phys)]
        for run_start, run_len, page_off in _runs(phys):
            lo = max(offset, (first + page_off) * ps)
            hi = min(offset + len(data), (first + page_off + run_len) * ps)
            self.physical.write_bytes(
                run_start * ps + lo - (first + page_off) * ps,
                data[lo - offset:hi - offset], category=category,
                background=background)

    def peek(self, pid: int, npages: int = 1) -> bytes:
        self._check_logical(pid, npages)
        blank = b"\x00" * self.page_size
        return b"".join(
            self.physical.peek(self._map[pid + i], 1)
            if pid + i in self._map else blank
            for i in range(npages))

    def _poke(self, pid: int, data: bytes) -> None:
        """Fault-injection hook: raw overwrite of the *current* mapping."""
        ps = self.page_size
        for i in range((len(data) + ps - 1) // ps):
            phys = self._map.get(pid + i)
            if phys is not None:
                self.physical._poke(phys, data[i * ps:(i + 1) * ps])

    def check_page(self, pid: int) -> bool:
        phys = self._map.get(pid)
        return True if phys is None else self.physical.check_page(phys)

    def verify_range(self, pid: int, npages: int) -> list[int]:
        """Logical pids in range whose mapped physical page fails its CRC."""
        self._check_logical(pid, npages)
        if not self.protect:
            return []
        self.model.crc32_bytes(npages * self.page_size)
        bad = [p for p in range(pid, pid + npages) if not self.check_page(p)]
        self.integrity.pages_verified += npages
        self.integrity.checksum_failures += len(bad)
        return bad

    # -- reclamation ----------------------------------------------------------------

    def trim(self, pid: int, npages: int) -> None:
        """Release the physical pages of a deleted logical range."""
        self._check_logical(pid, npages)
        for i in range(npages):
            phys = self._map.pop(pid + i, None)
            if phys is not None:
                self._free.append(phys)
                self.remap_stats.trimmed_pages += 1

    def resident_pages(self) -> int:
        return self.physical.resident_pages()


def _runs(pages: list[int]):
    """Split a physical page list into contiguous (start, len, offset)."""
    out = []
    i = 0
    while i < len(pages):
        j = i
        while j + 1 < len(pages) and pages[j + 1] == pages[j] + 1:
            j += 1
        out.append((pages[i], j - i + 1, i))
        i = j + 1
    return out
