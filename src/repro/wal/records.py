"""Log record types and their binary framing.

Framing: ``[u8 type][u32 payload_len][u64 seq][payload][u32 crc32]``.
A scan stops at the first frame whose type is unknown, whose length runs
past the buffer, whose CRC fails, or whose sequence number is not
strictly increasing — which is how recovery finds the end of the valid
log after a crash mid-flush *and* avoids replaying stale records from an
earlier pass over the WAL ring.
"""

from __future__ import annotations

import re
import struct
import zlib
from dataclasses import dataclass
from typing import ClassVar, Iterator

_FRAME = struct.Struct(">BIQ")
_CRC = struct.Struct(">I")
#: A scan reads a frame only when this many bytes remain, so this many
#: zero bytes after the last frame end the log cleanly.
END_MARKER_BYTES = _FRAME.size + _CRC.size


def frame_size(raw, off: int) -> int:
    """Length of the encoded frame that starts at ``off`` in ``raw``."""
    return _FRAME.size + _FRAME.unpack_from(raw, off)[1] + _CRC.size


def _pack_bytes(*parts: bytes) -> bytes:
    """Concatenate length-prefixed byte strings."""
    out = bytearray()
    for part in parts:
        out += struct.pack(">I", len(part))
        out += part
    return bytes(out)


class _ByteCursor:
    def __init__(self, raw: bytes) -> None:
        self.raw = raw
        self.off = 0

    def take(self) -> bytes:
        (n,) = struct.unpack_from(">I", self.raw, self.off)
        self.off += 4
        part = self.raw[self.off:self.off + n]
        if len(part) != n:
            raise ValueError("truncated byte field")
        self.off += n
        return part

    def take_u64(self) -> int:
        (v,) = struct.unpack_from(">Q", self.raw, self.off)
        self.off += 8
        return v


@dataclass(frozen=True)
class LogRecord:
    """Base class; subclasses define ``TYPE`` and payload (de)coding."""

    TYPE: ClassVar[int] = 0

    def payload(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def from_payload(cls, raw: bytes) -> "LogRecord":
        raise NotImplementedError

    def encode(self, seq: int = 0) -> bytes:
        payload = self.payload()
        frame = _FRAME.pack(self.TYPE, len(payload), seq) + payload
        return frame + _CRC.pack(zlib.crc32(frame))


@dataclass(frozen=True)
class TxnBeginRecord(LogRecord):
    TYPE: ClassVar[int] = 1
    txn_id: int = 0

    def payload(self) -> bytes:
        return struct.pack(">Q", self.txn_id)

    @classmethod
    def from_payload(cls, raw: bytes) -> "TxnBeginRecord":
        return cls(txn_id=struct.unpack(">Q", raw)[0])


@dataclass(frozen=True)
class TxnCommitRecord(LogRecord):
    TYPE: ClassVar[int] = 2
    txn_id: int = 0

    def payload(self) -> bytes:
        return struct.pack(">Q", self.txn_id)

    @classmethod
    def from_payload(cls, raw: bytes) -> "TxnCommitRecord":
        return cls(txn_id=struct.unpack(">Q", raw)[0])


@dataclass(frozen=True)
class TxnAbortRecord(LogRecord):
    TYPE: ClassVar[int] = 3
    txn_id: int = 0

    def payload(self) -> bytes:
        return struct.pack(">Q", self.txn_id)

    @classmethod
    def from_payload(cls, raw: bytes) -> "TxnAbortRecord":
        return cls(txn_id=struct.unpack(">Q", raw)[0])


@dataclass(frozen=True)
class InsertRecord(LogRecord):
    """Logical insert of ``key -> value`` into ``table``.

    For BLOB columns ``value`` is the *serialized Blob State* — never the
    BLOB content.  This is the paper's single-flush logging: the content
    is durable in its extents, only the metadata goes through the WAL.
    """

    TYPE: ClassVar[int] = 4
    txn_id: int = 0
    table: str = ""
    key: bytes = b""
    value: bytes = b""

    def payload(self) -> bytes:
        return struct.pack(">Q", self.txn_id) + _pack_bytes(
            self.table.encode(), self.key, self.value)

    @classmethod
    def from_payload(cls, raw: bytes) -> "InsertRecord":
        cur = _ByteCursor(raw)
        txn_id = cur.take_u64()
        return cls(txn_id=txn_id, table=cur.take().decode(),
                   key=cur.take(), value=cur.take())


@dataclass(frozen=True)
class DeleteRecord(LogRecord):
    """Logical delete; carries the old value so recovery can rebuild the
    free lists from the deleted Blob State's extents."""

    TYPE: ClassVar[int] = 5
    txn_id: int = 0
    table: str = ""
    key: bytes = b""
    old_value: bytes = b""

    def payload(self) -> bytes:
        return struct.pack(">Q", self.txn_id) + _pack_bytes(
            self.table.encode(), self.key, self.old_value)

    @classmethod
    def from_payload(cls, raw: bytes) -> "DeleteRecord":
        cur = _ByteCursor(raw)
        txn_id = cur.take_u64()
        return cls(txn_id=txn_id, table=cur.take().decode(),
                   key=cur.take(), old_value=cur.take())


@dataclass(frozen=True)
class UpdateRecord(LogRecord):
    """Logical update of ``key`` from ``old_value`` to ``new_value``."""

    TYPE: ClassVar[int] = 6
    txn_id: int = 0
    table: str = ""
    key: bytes = b""
    old_value: bytes = b""
    new_value: bytes = b""

    def payload(self) -> bytes:
        return struct.pack(">Q", self.txn_id) + _pack_bytes(
            self.table.encode(), self.key, self.old_value, self.new_value)

    @classmethod
    def from_payload(cls, raw: bytes) -> "UpdateRecord":
        cur = _ByteCursor(raw)
        txn_id = cur.take_u64()
        return cls(txn_id=txn_id, table=cur.take().decode(), key=cur.take(),
                   old_value=cur.take(), new_value=cur.take())


@dataclass(frozen=True)
class BlobDeltaRecord(LogRecord):
    """Physical delta for the in-place BLOB update scheme (Section III-D,
    scheme 1): redo writes ``data`` at byte ``offset`` of page ``pid``.

    Carries its table/key so recovery can repair one BLOB's content
    without touching pages that later transactions reused for other
    BLOBs (checksum-guided repair-on-demand).
    """

    TYPE: ClassVar[int] = 7
    txn_id: int = 0
    table: str = ""
    key: bytes = b""
    pid: int = 0
    offset: int = 0
    data: bytes = b""

    def payload(self) -> bytes:
        return struct.pack(">QQQ", self.txn_id, self.pid, self.offset) + \
            _pack_bytes(self.table.encode(), self.key, self.data)

    @classmethod
    def from_payload(cls, raw: bytes) -> "BlobDeltaRecord":
        txn_id, pid, offset = struct.unpack_from(">QQQ", raw, 0)
        cur = _ByteCursor(raw)
        cur.off = 24
        return cls(txn_id=txn_id, table=cur.take().decode(), key=cur.take(),
                   pid=pid, offset=offset, data=cur.take())


@dataclass(frozen=True)
class BlobChunkRecord(LogRecord):
    """One segment of BLOB content logged physically (``physlog`` only)."""

    TYPE: ClassVar[int] = 8
    txn_id: int = 0
    table: str = ""
    key: bytes = b""
    offset: int = 0
    data: bytes = b""

    def payload(self) -> bytes:
        return struct.pack(">QQ", self.txn_id, self.offset) + _pack_bytes(
            self.table.encode(), self.key, self.data)

    @classmethod
    def from_payload(cls, raw: bytes) -> "BlobChunkRecord":
        txn_id, offset = struct.unpack_from(">QQ", raw, 0)
        cur = _ByteCursor(raw)
        cur.off = 16
        return cls(txn_id=txn_id, offset=offset, table=cur.take().decode(),
                   key=cur.take(), data=cur.take())


@dataclass(frozen=True)
class CheckpointRecord(LogRecord):
    """Marks a completed checkpoint (WAL before this point is obsolete)."""

    TYPE: ClassVar[int] = 9
    checkpoint_id: int = 0

    def payload(self) -> bytes:
        return struct.pack(">Q", self.checkpoint_id)

    @classmethod
    def from_payload(cls, raw: bytes) -> "CheckpointRecord":
        return cls(checkpoint_id=struct.unpack(">Q", raw)[0])


_RECORD_TYPES: dict[int, type[LogRecord]] = {
    cls.TYPE: cls
    for cls in (TxnBeginRecord, TxnCommitRecord, TxnAbortRecord,
                InsertRecord, DeleteRecord, UpdateRecord,
                BlobDeltaRecord, BlobChunkRecord, CheckpointRecord)
}


def decode_records(raw: bytes) -> Iterator[LogRecord]:
    """Decode frames until the log ends or corruption is detected.

    Sequence numbers must be strictly increasing; a drop marks the seam
    where the current ring pass ends and stale bytes from the previous
    pass begin.
    """
    for _, record in decode_records_with_seq(raw):
        yield record


def decode_records_with_seq(raw: bytes) -> Iterator[tuple[int, LogRecord]]:
    """Like :func:`decode_records` but yields ``(seq, record)``."""
    yield from scan_records(raw).records


@dataclass
class WalScan:
    """Result of structurally scanning a WAL region prefix.

    ``stop_reason`` distinguishes a log that simply ended (``"end"`` —
    the remaining bytes never held a frame of this pass) from one that
    stopped at a damaged or stale frame (``"bad_frame"`` — a CRC
    failure, an unknown type, a length overrun, or a sequence drop),
    and both from a prefix that ran out of bytes mid-frame (``"short"``).
    """

    records: list[tuple[int, "LogRecord"]]
    #: Bytes of validated frames; the scan stopped at this offset.
    valid_bytes: int
    #: Highest validated frame sequence (-1 when no frame decoded).
    max_seq: int
    stop_reason: str


def scan_records(raw: bytes, last_seq: int = -1,
                 region_bytes: int | None = None) -> WalScan:
    """Validate frames from offset 0, reporting where and why the scan
    stopped — recovery uses this to decide between tail truncation and
    declaring unrecoverable mid-log corruption.

    ``raw`` may be a prefix of a ``region_bytes``-long region: a frame
    or end marker that runs past ``raw`` but not past the region stops
    the scan as ``"short"`` — read more, then resume at ``valid_bytes``
    with ``last_seq=max_seq``.  The verdicts are those of scanning the
    whole region at once.
    """
    records: list[tuple[int, LogRecord]] = []
    off = 0
    end = len(raw)
    region = end if region_bytes is None else region_bytes
    while True:
        if off + END_MARKER_BYTES > end:
            reason = "short" if off + END_MARKER_BYTES <= region else "end"
            return WalScan(records, off, last_seq, reason)
        rtype, length, seq = _FRAME.unpack_from(raw, off)
        if rtype == 0 and length == 0 and seq == 0:
            # Zero bytes: never-written (or padded) region, a clean end.
            return WalScan(records, off, last_seq, "end")
        cls = _RECORD_TYPES.get(rtype)
        if cls is None or seq <= last_seq:
            return WalScan(records, off, last_seq, "bad_frame")
        frame_end = off + _FRAME.size + length
        if frame_end + _CRC.size > end:
            reason = "short" if frame_end + _CRC.size <= region \
                else "bad_frame"
            return WalScan(records, off, last_seq, reason)
        record = _decode_frame(raw, off, cls, frame_end)
        if record is None:
            return WalScan(records, off, last_seq, "bad_frame")
        records.append((seq, record))
        last_seq = seq
        off = frame_end + _CRC.size


def _decode_frame(raw: bytes, off: int, cls: type[LogRecord],
                  frame_end: int) -> LogRecord | None:
    """The record of a frame lying wholly in ``raw``; ``None`` when its
    CRC fails or its payload does not parse."""
    (crc,) = _CRC.unpack_from(raw, frame_end)
    if zlib.crc32(raw[off:frame_end]) != crc:
        return None
    try:
        return cls.from_payload(raw[off + _FRAME.size:frame_end])
    except (ValueError, struct.error):
        return None


def find_frame_beyond(raw: bytes, start: int, min_seq: int) -> int | None:
    """Look past a damaged frame for a valid frame of the *same* pass.

    Such a frame may start anywhere from ``start`` to the end of
    ``raw``.  A pass numbers its frames consecutively and a frame takes
    at least :data:`END_MARKER_BYTES`, so its sequence lies in
    ``(min_seq, min_seq + 1 + len(raw) // END_MARKER_BYTES]``: a regular
    expression on a known type byte and that sequence range finds the
    candidate headers at C speed, and each is checked like a scanned
    frame, with a sequence above ``min_seq`` (a stale frame from an
    earlier ring pass does not count).  Returns the offset of such a
    frame, meaning committed records exist beyond the damage and
    truncating at ``start`` would silently drop them; ``None`` means the
    damage is confined to the tail and truncation is safe.
    """
    lo = (min_seq + 1).to_bytes(8, "big")
    hi = (min_seq + 1 + len(raw) // END_MARKER_BYTES).to_bytes(8, "big")
    k = next((i for i in range(8) if lo[i] != hi[i]), 8)
    seq = b"".join(b"\\x%02x" % b for b in lo[:k])
    if k < 8:
        seq += b"[\\x%02x-\\x%02x].{%d}" % (lo[k], hi[k], 7 - k)
    types = b"".join(b"\\x%02x" % t for t in _RECORD_TYPES)
    header = re.compile(b"[" + types + b"].{4}" + seq, re.DOTALL)
    match = header.search(raw, start)
    while match is not None:
        off = match.start()
        rtype, length, seq_no = _FRAME.unpack_from(raw, off)
        frame_end = off + _FRAME.size + length
        if seq_no > min_seq and frame_end + _CRC.size <= len(raw) and \
                _decode_frame(raw, off, _RECORD_TYPES[rtype],
                              frame_end) is not None:
            return off
        match = header.search(raw, off + 1)
    return None
