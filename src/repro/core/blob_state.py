"""Blob State: the single indirection layer for BLOBs (Section III-B).

A Blob State bundles *all* metadata of one BLOB:

* **size** — logical size in bytes;
* **sha256** — full-content digest, used for durability validation during
  recovery and for cheap equality checks in the Blob State index;
* **sha_state** — the intermediate SHA-256 state (chaining value before
  the final padded block), letting growth operations resume hashing
  without re-reading existing content;
* **prefix** — the first 32 bytes, used by the incremental comparator to
  answer most range comparisons without dereferencing the BLOB;
* **tail_extent** — optional ``(pid, npages)`` arbitrary-size last extent;
* **extent_pids** — head-page PIDs of the tiered extents; combined with
  the static tier table this determines every extent's physical location.

It is stored inline with the owning tuple, so one relation lookup yields
everything needed to read the BLOB — unlike TOAST's extra relation or the
overflow-page chains of SQLite/MySQL/SQL Server (Table I).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import cached_property

from repro.core.extent import TailExtent, extent_page_ranges
from repro.core.tier import TierTable
from repro.sha.sha256 import Sha256State

PREFIX_LEN = 32

_MAGIC = b"BS"
_FLAG_TAIL = 0x01
_HEADER = struct.Struct(">2sBQ")       # magic, flags, size
_TAIL = struct.Struct(">QI")           # tail pid, tail npages
_NEXTENTS = struct.Struct(">H")
_PID = struct.Struct(">Q")


@dataclass(frozen=True)
class BlobState:
    """Immutable snapshot of one BLOB's metadata."""

    size: int
    sha256: bytes
    sha_state: Sha256State
    prefix: bytes
    extent_pids: tuple[int, ...] = ()
    tail_extent: TailExtent | None = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be >= 0")
        if len(self.sha256) != 32:
            raise ValueError("sha256 must be 32 bytes")
        if len(self.prefix) > PREFIX_LEN:
            raise ValueError(f"prefix longer than {PREFIX_LEN} bytes")
        if len(self.prefix) != min(self.size, PREFIX_LEN):
            raise ValueError("prefix must be the first min(size, 32) bytes")

    # -- geometry ---------------------------------------------------------

    @property
    def num_extents(self) -> int:
        """Number of tiered extents (tail extent excluded, as in the paper)."""
        return len(self.extent_pids)

    def page_ranges(self, tiers: TierTable) -> list[tuple[int, int]]:
        """Physical ``(pid, npages)`` of all extents, tail included."""
        return extent_page_ranges(list(self.extent_pids), tiers, self.tail_extent)

    def capacity_pages(self, tiers: TierTable) -> int:
        return sum(n for _, n in self.page_ranges(tiers))

    def used_pages(self, page_size: int) -> int:
        return (self.size + page_size - 1) // page_size

    # -- serialization -------------------------------------------------------

    def serialize(self) -> bytes:
        """Binary encoding stored in the owning tuple and in the WAL."""
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:
        # Encoded once per instance: the state is frozen, every
        # checkpoint re-encodes the whole catalog, and ``replace()``
        # builds a fresh object (with no cached encoding) for any change.
        flags = _FLAG_TAIL if self.tail_extent is not None else 0
        parts = [
            _HEADER.pack(_MAGIC, flags, self.size),
            self.sha256,
            self.sha_state.serialize(),
            bytes([len(self.prefix)]),
            self.prefix.ljust(PREFIX_LEN, b"\x00"),
        ]
        if self.tail_extent is not None:
            parts.append(_TAIL.pack(self.tail_extent.pid, self.tail_extent.npages))
        parts.append(_NEXTENTS.pack(len(self.extent_pids)))
        parts.extend(_PID.pack(pid) for pid in self.extent_pids)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, raw: bytes | memoryview) -> "BlobState":
        raw = bytes(raw)
        magic, flags, size = _HEADER.unpack_from(raw, 0)
        if magic != _MAGIC:
            raise ValueError("not a serialized BlobState")
        off = _HEADER.size
        sha256 = raw[off:off + 32]
        off += 32
        sha_state = Sha256State.deserialize(
            raw[off:off + Sha256State.SERIALIZED_SIZE])
        off += Sha256State.SERIALIZED_SIZE
        prefix_len = raw[off]
        off += 1
        prefix = raw[off:off + prefix_len]
        off += PREFIX_LEN
        tail = None
        if flags & _FLAG_TAIL:
            tail_pid, tail_npages = _TAIL.unpack_from(raw, off)
            tail = TailExtent(pid=tail_pid, npages=tail_npages)
            off += _TAIL.size
        (n_extents,) = _NEXTENTS.unpack_from(raw, off)
        off += _NEXTENTS.size
        pids = tuple(_PID.unpack_from(raw, off + i * _PID.size)[0]
                     for i in range(n_extents))
        return cls(size=size, sha256=sha256, sha_state=sha_state,
                   prefix=prefix, extent_pids=pids, tail_extent=tail)

    def serialized_size(self) -> int:
        return len(self._encoded)

    # -- functional updates -----------------------------------------------------

    def with_extents(self, extent_pids: tuple[int, ...]) -> "BlobState":
        return replace(self, extent_pids=extent_pids)

    def with_content(self, size: int, sha256: bytes, sha_state: Sha256State,
                     prefix: bytes) -> "BlobState":
        return replace(self, size=size, sha256=sha256,
                       sha_state=sha_state, prefix=prefix)
