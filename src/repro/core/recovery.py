"""Crash recovery: analysis / redo / undo with SHA-256 validation.

The paper's recoverability argument (Section III-C): the Blob State is
forced to the WAL *before* the extents are written, so after a crash the
Analysis phase can recompute each committed BLOB's SHA-256 from the
device and compare it against the digest in the logged Blob State.  A
mismatch means the crash hit the window between WAL durability and the
extent flush — the transaction is declared *failed* and joins the UNDO
list, and because its effects are never redone, its extents are never
marked allocated: the "unusable holes" reclaim themselves.

Physical redo comes first (physlog chunk records and in-place delta
records rewrite device pages), then validation, then logical redo of the
surviving transactions, then the allocator rebuild from the checkpoint
snapshot plus the replayed allocation/free deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.blob_state import BlobState
from repro.core.hashing import new_hasher
from repro.core.tier import TierTable
from repro.db.catalog import CatalogSnapshot, Superblock, decode_value
from repro.db.config import EngineConfig
from repro.db.errors import WalCorruptionError
from repro.io import IoScheduler
from repro.sim.cost import CostModel
from repro.storage.device import SimulatedNVMe
from repro.wal.records import (
    BlobChunkRecord,
    BlobDeltaRecord,
    DeleteRecord,
    InsertRecord,
    TxnAbortRecord,
    TxnBeginRecord,
    TxnCommitRecord,
    UpdateRecord,
    find_frame_beyond,
    scan_records,
)
from repro.wal.writer import SCAN_CHUNK_PAGES, SCAN_QUEUE_DEPTH, scan_region

#: Page budget of one verifier window (8 MiB of 4 KiB pages): the extents
#: of this many pages' worth of Blob States are queued and drained as one
#: deep-queue batch.  A window always admits at least one state, so a
#: BLOB larger than the budget still verifies (alone in its window).
VERIFY_WINDOW_PAGES = 2048


@dataclass
class RecoveredState:
    """Everything needed to restart the engine."""

    tables: dict[str, dict[bytes, object]] = field(default_factory=dict)
    allocator_next_pid: int = 0
    free_extents: dict[int, list[int]] = field(default_factory=dict)
    free_tails: dict[int, list[int]] = field(default_factory=dict)
    next_txn_id: int = 1
    checkpoint_id: int = 0
    #: Committed-in-WAL transactions whose BLOB content failed validation.
    failed_txns: list[int] = field(default_factory=list)
    #: Highest valid WAL frame sequence; the new WAL continues above it.
    wal_max_seq: int = 0
    #: WAL-ring pages the scan read, and the windows (read batches) it
    #: took: it stops at the log's end unless a damaged frame needs the
    #: rest of the ring for the resync probe.
    wal_pages_read: int = 0
    wal_windows: int = 0
    #: Pages among those read whose stored bytes failed their protection
    #: CRC (damage past the log's end is never read, so never counted).
    wal_corrupt_pages: int = 0
    #: Damaged-tail truncations: each discards the log from the first
    #: unreadable record onward (at least that record is lost).
    wal_records_truncated: int = 0
    #: Keys whose durable content no longer matches its digest and could
    #: not be repaired from the WAL — readable only as a typed error.
    quarantined: list[tuple[str, bytes]] = field(default_factory=list)
    extents_quarantined: int = 0
    #: Keys whose content was restored by replaying physical WAL records.
    repaired_keys: int = 0
    #: Blob States digest-checked by Analysis (every live BLOB, plus each
    #: fallback version a failed transaction exposes).
    blobs_validated: int = 0
    #: Data-device read commands / bytes Analysis issued to produce them
    #: (verifier batches plus repair-on-demand page reads).
    validation_read_requests: int = 0
    validation_bytes_read: int = 0


def _io(retry, op):
    """Run a device operation, retrying transient faults when a policy
    is attached (recovery must survive the same faults as normal I/O)."""
    if retry is not None:
        return retry.run(op)
    return op()


def recover_state(device: SimulatedNVMe, config: EngineConfig,
                  model: CostModel, tiers: TierTable,
                  retry=None, meta_device=None,
                  wal_device=None) -> RecoveredState:
    """Run the full recovery pipeline against a crashed device.

    ``device`` is the data tier; heterogeneous engines pass the devices
    holding the catalog (``meta_device``) and the WAL ring
    (``wal_device``) separately — both default to the data device.
    """
    obs = model.obs
    if obs is None:
        return _recover_state_body(device, config, model, tiers, retry,
                                   meta_device, wal_device)
    obs.begin("recovery")
    try:
        return _recover_state_body(device, config, model, tiers, retry,
                                   meta_device, wal_device)
    finally:
        obs.end()


def _recover_state_body(device: SimulatedNVMe, config: EngineConfig,
                        model: CostModel, tiers: TierTable,
                        retry=None, meta_device=None,
                        wal_device=None) -> RecoveredState:
    meta_device = meta_device if meta_device is not None else device
    wal_device = wal_device if wal_device is not None else device
    obs = model.obs
    state = RecoveredState(allocator_next_pid=config.data_start_pid)
    snapshot = None
    if obs is not None:
        obs.begin("recovery.snapshot")
    try:
        snapshot = _load_snapshot(meta_device, config, retry)
    finally:
        if obs is not None:
            obs.end(found=snapshot is not None)
    if snapshot is not None:
        state.checkpoint_id = snapshot.checkpoint_id
        state.next_txn_id = snapshot.next_txn_id
        state.allocator_next_pid = snapshot.allocator_next_pid
        state.free_extents = {t: list(p)
                              for t, p in snapshot.free_extents.items()}
        state.free_tails = {n: list(p)
                            for n, p in snapshot.free_tails.items()}
        for name, rows in snapshot.tables.items():
            state.tables[name] = {k: decode_value(v) for k, v in rows}

    if obs is not None:
        obs.begin("recovery.wal_scan")
    try:
        records = _read_wal(wal_device, config, model, state, retry)
    finally:
        if obs is not None:
            obs.end(corrupt_pages=state.wal_corrupt_pages,
                    truncated=state.wal_records_truncated,
                    pages_read=state.wal_pages_read,
                    windows=state.wal_windows)
    committed, aborted, seen_txns = _analyze_outcomes(records)
    if seen_txns:
        state.next_txn_id = max(state.next_txn_id, max(seen_txns) + 1)

    # Analysis: validate the BLOB content each key would end up with.
    # A digest mismatch first triggers *repair-on-demand* — replaying the
    # key's physical WAL records (physlog chunks, in-place deltas) and
    # re-checking — because those records exist precisely to redo writes
    # whose extent flush the crash interrupted.  Repair is keyed, never
    # blanket: pages that later transactions legitimately reused for
    # other BLOBs are left alone.  If repair cannot restore the digest,
    # the writing transaction is declared *failed*; the live value then
    # falls back to an earlier version, which is re-validated (fixpoint)
    # — the paper's UNDO list for torn BLOB flushes.
    snapshot_tables = {name: dict(rows) for name, rows in state.tables.items()}
    failed: set[int] = set()
    repaired: set[tuple[str, bytes, int]] = set()
    verified: set[tuple[str, bytes, int]] = set()
    #: Snapshot-owned keys whose content is corrupt: no transaction to
    #: fail, no WAL records to replay — the key is quarantined so reads
    #: surface a typed error instead of wrong bytes.
    quarantined: set[tuple[str, bytes]] = set()
    #: Successful repair overlays, held back until the fixpoint settles:
    #: writing one early would poison fallback validation if its
    #: transaction is later failed by a *different* key.
    overlays: dict[tuple[str, bytes], tuple[int, dict]] = {}
    if obs is not None:
        obs.begin("recovery.analysis")
    reads_before = device.stats.snapshot()
    try:
        _analysis_fixpoint(device, model, tiers, config, records, committed,
                           failed, repaired, verified, quarantined, overlays,
                           snapshot_tables, state, retry)
    finally:
        reads = device.stats.delta_since(reads_before)
        state.validation_read_requests = reads.read_requests
        state.validation_bytes_read = reads.bytes_read
        if obs is not None:
            obs.end(failed_txns=len(failed), quarantined=len(quarantined),
                    repaired=len(overlays), validated=state.blobs_validated,
                    read_requests=reads.read_requests,
                    bytes_read=reads.bytes_read)
            obs.count("recovery.validated", state.blobs_validated)
            obs.count("recovery.validate_reads", reads.read_requests)
    state.failed_txns = sorted(failed)
    state.quarantined = sorted(quarantined)
    valid = committed - failed

    # Fixpoint settled: commit the overlays of still-valid live owners.
    final_live = _compute_live(snapshot_tables, records, valid)
    for (table, key), (txn_id, overlay) in overlays.items():
        owner = final_live.get((table, key), (None, None))[0]
        if owner == txn_id and (txn_id is None or txn_id in valid):
            state.repaired_keys += 1
            for pid, image in overlay.items():
                _io(retry, lambda p=pid, im=image: device.write(
                    p, bytes(im), category="data"))

    # Logical redo + allocator delta replay, in log order.
    if obs is not None:
        obs.begin("recovery.redo")
    try:
        _redo_logical(state, records, valid, tiers, config)
    finally:
        if obs is not None:
            obs.end(records=len(records))
    return state


def _analysis_fixpoint(device, model, tiers, config, records, committed,
                       failed, repaired, verified, quarantined, overlays,
                       snapshot_tables, state, retry) -> None:
    """The validate/repair/fail fixpoint of the Analysis phase.

    Each round digest-checks every live Blob State still lacking a
    verdict in one batched pass, then takes the decisions in ``live``
    order — so a key of a transaction failed earlier in the round is
    skipped exactly as if it had never been read.
    """
    while True:
        valid = committed - failed
        live = _compute_live(snapshot_tables, records, valid)
        pending = [(table, key, txn_id, value)
                   for (table, key), (txn_id, value) in live.items()
                   if isinstance(value, BlobState)
                   and (table, key, txn_id) not in verified
                   and (table, key) not in quarantined]
        verdicts = verify_states(device, model, tiers, config.page_size,
                                 [value for *_, value in pending], retry)
        state.blobs_validated += len(pending)
        newly: set[int] = set()
        for (table, key, txn_id, value), intact in zip(pending, verdicts):
            if txn_id in newly:
                continue
            mark = (table, key, txn_id)
            if intact:
                verified.add(mark)
                continue
            if mark not in repaired:
                repaired.add(mark)
                overlay = _repair_key(device, records, valid, tiers,
                                      table, key, value, retry)
                if overlay and _content_valid(device, model, tiers,
                                              config.page_size, value,
                                              overlay=overlay, retry=retry):
                    verified.add(mark)
                    overlays[(table, key)] = (txn_id, overlay)
                    continue
            if txn_id is None:
                # Durable-before-checkpoint value rotted at rest and the
                # WAL holds nothing to rebuild it from: quarantine.
                quarantined.add((table, key))
                state.extents_quarantined += value.num_extents + \
                    (1 if value.tail_extent is not None else 0)
            else:
                newly.add(txn_id)
        if not newly:
            break
        failed |= newly


def _load_snapshot(device: SimulatedNVMe, config: EngineConfig,
                   retry=None) -> CatalogSnapshot | None:
    try:
        super_block = Superblock.deserialize(
            _io(retry, lambda: device.read(0, 1)))
    except ValueError:
        return None
    if super_block.active_slot < 0:
        return None
    slot_pid = (config.catalog_a_pid if super_block.active_slot == 0
                else config.catalog_b_pid)
    ps = device.page_size
    npages = (super_block.catalog_len + ps - 1) // ps
    raw = _io(retry, lambda: device.read(slot_pid, npages))
    return CatalogSnapshot.deserialize(raw[:super_block.catalog_len])


def _read_wal(device: SimulatedNVMe, config: EngineConfig,
              model: CostModel, state: RecoveredState, retry=None) -> list:
    """Scan the WAL ring up to the log's end, hardening against damage.

    The ring is read unverified (recovery owns corruption handling
    here) in windows of one scan queue wave — ``SCAN_QUEUE_DEPTH ×
    SCAN_CHUNK_PAGES`` pages, each window one chunked deep-queue batch
    — and the frame scan resumes where the last window stopped.  A zero
    frame header inside the bytes read ends the log: nothing past it is
    read.  A frame running past the bytes read needs the next window.  A
    damaged frame needs the rest of the ring, read once, so the resync
    probe sees every byte after the damage.  Page-level CRC failures are
    counted over the pages read.  Damage at the *tail* is the expected
    shape of a torn final flush — the log is truncated at the first bad
    record and the loss is counted.  Damage with valid same-pass frames
    *beyond* it means committed work would be silently dropped by
    truncation, so recovery refuses with :class:`WalCorruptionError`.
    """
    def read_on(npages: int) -> bytes:
        pid = config.wal_region_pid + state.wal_pages_read
        chunk = _io(retry, lambda: scan_region(device, model, pid, npages))
        state.wal_pages_read += npages
        state.wal_windows += 1
        return chunk

    region_bytes = config.wal_pages * device.page_size
    records: list = []
    raw, base, last_seq = b"", 0, -1
    while True:
        raw += read_on(min(SCAN_QUEUE_DEPTH * SCAN_CHUNK_PAGES,
                           config.wal_pages - state.wal_pages_read))
        scan = scan_records(raw, last_seq, region_bytes - base)
        records += scan.records
        last_seq = scan.max_seq
        if scan.stop_reason != "short":
            break
        raw, base = raw[scan.valid_bytes:], base + scan.valid_bytes
    if scan.stop_reason == "bad_frame" and \
            state.wal_pages_read < config.wal_pages:
        raw += read_on(config.wal_pages - state.wal_pages_read)
    state.wal_corrupt_pages = len(
        device.verify_range(config.wal_region_pid, state.wal_pages_read))
    state.wal_max_seq = max(last_seq, 0)
    if scan.stop_reason == "bad_frame":
        beyond = find_frame_beyond(raw, scan.valid_bytes + 1, last_seq)
        if beyond is not None:
            raise WalCorruptionError(
                f"WAL damaged at byte {base + scan.valid_bytes} but a "
                f"valid record (same pass) survives at byte "
                f"{base + beyond}: truncation would drop committed work")
        state.wal_records_truncated += 1
    return [record for _, record in records]


def _compute_live(snapshot_tables: dict[str, dict[bytes, object]], records,
                  valid: set[int]) -> dict:
    """Final value per key after replaying ``valid`` txns onto the
    snapshot; values are ``(writing_txn_id, value)`` with ``None`` for
    snapshot-provided values (already durable before the checkpoint)."""
    live: dict[tuple[str, bytes], tuple[int | None, object]] = {}
    for name, rows in snapshot_tables.items():
        for key, value in rows.items():
            live[(name, key)] = (None, value)
    for record in records:
        txn_id = getattr(record, "txn_id", None)
        if txn_id not in valid:
            continue
        if isinstance(record, InsertRecord):
            live[(record.table, record.key)] = \
                (txn_id, decode_value(record.value))
        elif isinstance(record, UpdateRecord):
            live[(record.table, record.key)] = \
                (txn_id, decode_value(record.new_value))
        elif isinstance(record, DeleteRecord):
            live.pop((record.table, record.key), None)
    return live


def _analyze_outcomes(records) -> tuple[set[int], set[int], set[int]]:
    committed: set[int] = set()
    aborted: set[int] = set()
    seen: set[int] = set()
    for record in records:
        txn_id = getattr(record, "txn_id", None)
        if txn_id is not None:
            seen.add(txn_id)
        if isinstance(record, TxnCommitRecord):
            committed.add(record.txn_id)
        elif isinstance(record, TxnAbortRecord):
            aborted.add(record.txn_id)
    return committed - aborted, aborted, seen


def _repair_key(device: SimulatedNVMe, records, valid: set[int],
                tiers: TierTable, table: str, key: bytes,
                live_state: BlobState, retry=None) -> dict[int, bytearray]:
    """Replay one key's physical WAL records into an overlay.

    Applies, in log order, every chunk (physlog content) and in-place
    delta that a still-valid committed transaction logged for this key.
    Only pages addressed by those records are touched, so BLOBs that
    later reused unrelated freed extents are unaffected.  The overlay is
    returned — the caller validates through it and writes it to the
    device only if the digest checks out (repairs never corrupt).
    """
    ps = device.page_size
    page_images: dict[int, bytearray] = {}

    def page(pid: int) -> bytearray:
        if pid not in page_images:
            page_images[pid] = bytearray(_io(
                retry, lambda: device.read(pid, 1, verify=False)))
        return page_images[pid]

    live_heads = {pid for pid, _ in live_state.page_ranges(tiers)}
    for record in records:
        if getattr(record, "txn_id", None) not in valid:
            continue
        if isinstance(record, BlobDeltaRecord) and \
                record.table == table and record.key == key:
            # A delta from an older incarnation of this key may address
            # pages that were freed and reused by *other* BLOBs since;
            # only deltas targeting the live extents are applicable.
            if record.pid in live_heads:
                _apply_span(page, ps, record.pid, record.offset, record.data)
        elif isinstance(record, BlobChunkRecord) and \
                record.table == table and record.key == key:
            _apply_logical(page, ps, tiers, live_state, record.offset,
                           record.data)
    return page_images


def _apply_span(page, page_size: int, pid: int, offset: int,
                data: bytes) -> None:
    """Write ``data`` starting at byte ``offset`` of page ``pid``."""
    pos = 0
    while pos < len(data):
        pid_off, byte_off = divmod(offset + pos, page_size)
        take = min(page_size - byte_off, len(data) - pos)
        page(pid + pid_off)[byte_off:byte_off + take] = data[pos:pos + take]
        pos += take


def _apply_logical(page, page_size: int, tiers: TierTable, state: BlobState,
                   offset: int, data: bytes) -> None:
    """Write ``data`` at a logical BLOB offset through the extent map."""
    logical = 0
    for pid, npages in state.page_ranges(tiers):
        ext_bytes = npages * page_size
        lo = max(logical, offset)
        hi = min(logical + ext_bytes, offset + len(data))
        if lo < hi:
            _apply_span(page, page_size, pid, lo - logical,
                        data[lo - offset:hi - offset])
        logical += ext_bytes


def _content_valid(device, model, tiers, page_size, state: BlobState,
                   overlay: dict[int, bytearray] | None = None,
                   retry=None) -> bool:
    """Digest-check one state, optionally through a repair overlay of
    not-yet-committed page images."""
    return verify_states(device, model, tiers, page_size, [state], retry,
                         overlays=[overlay])[0]


def verify_states(device, model, tiers, page_size, states, retry,
                  overlays=None) -> list[bool]:
    """Digest-check ``states`` against the device; verdicts in input order.

    The one BLOB verifier (recovery Analysis and ``BlobDB.scrub``):
    states are visited in physical order, and the extents of a window
    of them — :data:`VERIFY_WINDOW_PAGES` pages, at least one state —
    are queued on a deep-queue scheduler and drained as one batch, so
    command latencies overlap and adjacent extents coalesce; each state
    is then hashed from its own tickets.  Only the pages the digest
    covers are read (an extent's unused tail is not), unverified,
    because the SHA-256 is the stronger check.  A transient fault fails
    the drain with its queue intact, so the retry policy resubmits the
    whole window.  ``overlays``, parallel to ``states``, patches repair
    page images over what was read.
    """
    scheduler = IoScheduler(device, model, queue_depth=SCAN_QUEUE_DEPTH,
                            max_merge_pages=SCAN_CHUNK_PAGES)
    verdicts = [False] * len(states)
    window: list[tuple[int, list]] = []
    window_pages = 0

    def settle() -> None:
        nonlocal window_pages
        _io(retry, lambda: scheduler.drain(verify=False))
        for i, tickets in window:
            state = states[i]
            overlay = overlays[i] if overlays else None
            hasher = new_hasher("fast")
            remaining = state.size
            for ticket in tickets:
                raw = ticket.result
                if overlay:
                    patched = bytearray(raw)
                    for page in range(ticket.npages):
                        image = overlay.get(ticket.pid + page)
                        if image is not None:
                            patched[page * page_size:
                                    (page + 1) * page_size] = image
                    raw = patched
                take = min(remaining, len(raw))
                hasher.update(memoryview(raw)[:take])
                remaining -= take
            model.hash_bytes(state.size)
            verdicts[i] = hasher.digest() == state.sha256
        window.clear()
        window_pages = 0

    # Physical order, so neighbours on the device share a window and merge.
    ranges = [state.page_ranges(tiers) for state in states]
    for i in sorted(range(len(states)),
                    key=lambda n: ranges[n][0][0] if ranges[n] else -1):
        state = states[i]
        used = state.used_pages(page_size)
        if window and window_pages + used > VERIFY_WINDOW_PAGES:
            settle()
        tickets = []
        remaining = used
        for pid, npages in ranges[i]:
            if remaining <= 0:
                break
            take = min(npages, remaining)
            tickets.append(scheduler.submit_read(pid, take))
            remaining -= take
        window.append((i, tickets))
        window_pages += used
    settle()
    return verdicts


def _redo_logical(state: RecoveredState, records, valid: set[int],
                  tiers: TierTable, config: EngineConfig) -> None:
    free_sets: dict[int, set[int]] = {t: set(p)
                                      for t, p in state.free_extents.items()}
    tail_sets: dict[int, set[int]] = {n: set(p)
                                      for n, p in state.free_tails.items()}
    next_pid = state.allocator_next_pid

    def mark_allocated(blob: BlobState) -> None:
        nonlocal next_pid
        for i, pid in enumerate(blob.extent_pids):
            npages = tiers.size(i)
            free_sets.get(i, set()).discard(pid)
            next_pid = max(next_pid, pid + npages)
        if blob.tail_extent is not None:
            tail = blob.tail_extent
            tail_sets.get(tail.npages, set()).discard(tail.pid)
            next_pid = max(next_pid, tail.pid + tail.npages)

    def mark_freed(blob: BlobState) -> None:
        nonlocal next_pid
        for i, pid in enumerate(blob.extent_pids):
            free_sets.setdefault(i, set()).add(pid)
            next_pid = max(next_pid, pid + tiers.size(i))
        if blob.tail_extent is not None:
            tail = blob.tail_extent
            tail_sets.setdefault(tail.npages, set()).add(tail.pid)
            next_pid = max(next_pid, tail.pid + tail.npages)

    for record in records:
        if isinstance(record, TxnBeginRecord):
            continue
        txn_id = getattr(record, "txn_id", None)
        if txn_id is not None and txn_id not in valid:
            continue
        if isinstance(record, InsertRecord):
            value = decode_value(record.value)
            if record.table == "\x00tables":
                state.tables.setdefault(record.key.decode(), {})
            state.tables.setdefault(record.table, {})[record.key] = value
            if isinstance(value, BlobState):
                mark_allocated(value)
        elif isinstance(record, UpdateRecord):
            old = decode_value(record.old_value)
            new = decode_value(record.new_value)
            state.tables.setdefault(record.table, {})[record.key] = new
            if isinstance(new, BlobState):
                mark_allocated(new)
            if isinstance(old, BlobState) and isinstance(new, BlobState):
                # Extents present in the old state but not the new one
                # were released by the update (clone scheme, tail clone).
                old_pids = set(old.extent_pids)
                new_pids = set(new.extent_pids)
                for i, pid in enumerate(old.extent_pids):
                    if pid not in new_pids:
                        free_sets.setdefault(i, set()).add(pid)
                if old.tail_extent is not None and \
                        old.tail_extent != new.tail_extent:
                    tail_sets.setdefault(old.tail_extent.npages,
                                         set()).add(old.tail_extent.pid)
        elif isinstance(record, DeleteRecord):
            old = decode_value(record.old_value)
            state.tables.setdefault(record.table, {}).pop(record.key, None)
            if isinstance(old, BlobState):
                mark_freed(old)

    state.tables.setdefault("\x00tables", {})
    for name in list(state.tables["\x00tables"]):
        state.tables.setdefault(name.decode(), {})
    state.free_extents = {t: sorted(p) for t, p in free_sets.items() if p}
    state.free_tails = {n: sorted(p) for n, p in tail_sets.items() if p}
    state.allocator_next_pid = min(next_pid, config.device_pages)
