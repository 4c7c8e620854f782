"""Byte-addressable simulated persistent memory (Optane DCPMM class).

The device that changes the WAL calculus (ROADMAP #5, "On Usage of
Non-Volatile Memory as Primary Storage for DBMS"): persistence is
byte-granular, so a log append persists exactly the appended bytes —
no page round-up, no read-modify-write of a partially filled log page —
and durability is a cache-line flush plus one fence instead of a block
write latency and an ``fdatasync``.

:class:`SimulatedPMem` keeps the full interface of
:class:`~repro.storage.device.SimulatedNVMe` (same sparse page store,
same protection information, same ``submit`` batch semantics, same
``write_bytes``), so every consumer — the WAL writer, catalog
checkpoints, the recovery scan, fault wrappers — works unchanged.  Only
three things differ: the *pricing* flows through the ``pmem_*``
``CostParams`` channel, the write unit is one byte (a WAL flush never
rewrites a durable prefix), and ``read_bytes`` loads byte-granular
ranges.
"""

from __future__ import annotations

from repro.storage.device import DeviceCapabilities, SimulatedNVMe


class SimulatedPMem(SimulatedNVMe):
    """A byte-addressable persistent-memory device.

    Inherits the sparse page store, batch interface and ``write_bytes``
    of the NVMe simulation; overrides the cost channel (``pmem_*``
    parameters) and the write unit (one byte), and adds byte loads.
    """

    @property
    def capabilities(self) -> DeviceCapabilities:
        return DeviceCapabilities(kind="pmem", byte_addressable=True,
                                  queue_depth=None, write_unit=1)

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
