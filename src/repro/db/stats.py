"""Engine observability: one structured snapshot of every subsystem.

``BlobDB.stats_report()`` gathers the counters a storage engineer would
put on a dashboard — buffer pool hit ratio, device write amplification
by category, WAL pressure and checkpoint counts, allocator recycling,
lock/OCC activity — in one plain-data object that examples and tests can
assert against.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EngineReport:
    """A point-in-time engine snapshot (all values cumulative)."""

    # Buffer pool
    pool_used_pages: int = 0
    pool_capacity_pages: int = 0
    pool_hit_ratio: float = 0.0
    pool_evictions: int = 0
    pool_eviction_probes: int = 0

    # Device
    device_bytes_written_by_category: dict[str, int] = field(
        default_factory=dict)
    device_bytes_read: int = 0
    device_write_requests: int = 0

    # Storage tiers (defaults describe the homogeneous single-NVMe case)
    storage_heterogeneous: bool = False
    wal_device_kind: str = "nvme"
    stripe_width: int = 1
    pmem_bytes_written: int = 0
    wal_byte_appends: int = 0

    # I/O scheduler (the pool's SQ/CQ front end)
    io_requests_in: int = 0
    io_requests_out: int = 0
    io_drains: int = 0
    io_coalesce_ratio: float = 0.0

    # WAL
    wal_records: int = 0
    wal_bytes_appended: int = 0
    wal_synchronous_flushes: int = 0
    wal_used_fraction: float = 0.0
    checkpoints_taken: int = 0

    # Allocator
    allocator_utilization: float = 0.0
    extents_fresh: int = 0
    extents_reused: int = 0
    extents_freed: int = 0

    # Transactions
    active_transactions: int = 0
    occ_aborts: int = 0

    # Faults and repair (zero on a healthy device)
    faults_injected: int = 0
    fault_breakdown: dict[str, int] = field(default_factory=dict)
    io_retries: int = 0
    io_retries_exhausted: int = 0
    checksum_pages_verified: int = 0
    checksum_failures: int = 0
    wal_corrupt_pages: int = 0
    wal_records_truncated: int = 0
    extents_quarantined: int = 0
    keys_quarantined: int = 0
    keys_repaired: int = 0
    recovery_blobs_validated: int = 0
    recovery_validation_reads: int = 0
    scrub_blobs_scanned: int = 0
    scrub_corrupt_found: int = 0

    # Sharding (all zero/empty on a single-engine report)
    shard_count: int = 0
    shard_fanout_batches: int = 0
    shard_routed_keys: int = 0
    shard_imbalance: float = 0.0
    shard_keys_per_shard: list[int] = field(default_factory=list)

    # Replication (all zero without replica groups)
    replica_groups: int = 0
    replica_members: int = 0
    replica_quorum: int = 0
    replica_epoch: int = 0
    replica_acked_writes: int = 0
    replica_records_shipped: int = 0
    replica_ship_retries: int = 0
    replica_failovers: int = 0
    replica_rejoins: int = 0
    replica_fenced_ships: int = 0
    replica_truncated_records: int = 0
    replica_max_lag_records: int = 0
    replica_stale_reads: int = 0

    # Relation index (learned-tier counters zero on btree/art engines).
    # The structure starts unset ("") so aggregates adopt the first
    # member's engine; ``build_report`` always fills it from the config.
    index_structure: str = ""
    index_probes: int = 0
    index_delta_hits: int = 0
    index_segment_retrains: int = 0
    index_segments: int = 0
    index_entries: int = 0

    # Namespace accelerator (all zero without an attached interval index)
    ns_nodes: int = 0
    ns_range_scans: int = 0
    ns_renumbers: int = 0

    # Simulated time
    simulated_seconds: float = 0.0

    @property
    def extent_reuse_ratio(self) -> float:
        total = self.extents_fresh + self.extents_reused
        return self.extents_reused / total if total else 0.0

    @property
    def recovery_reads_per_blob(self) -> float:
        return self.recovery_validation_reads / self.recovery_blobs_validated \
            if self.recovery_blobs_validated else 0.0

    @property
    def index_delta_hit_ratio(self) -> float:
        return self.index_delta_hits / self.index_probes \
            if self.index_probes else 0.0

    @property
    def pool_probes_per_eviction(self) -> float:
        return self.pool_eviction_probes / self.pool_evictions \
            if self.pool_evictions else 0.0

    @property
    def pool_fill_fraction(self) -> float:
        if not self.pool_capacity_pages:
            return 0.0
        return self.pool_used_pages / self.pool_capacity_pages

    def accumulate(self, other: "EngineReport") -> None:
        """Fold one member engine's raw counters into this aggregate.

        Used by replica groups and their router, whose reports sum the
        member engines (and, one level up, the groups).  Only *summable
        raw counters* are folded (plus max-style gauges like WAL
        pressure); ratios are recomputed from the summed raws by
        :meth:`recompute_ratios`, never averaged.
        """
        self.pool_used_pages += other.pool_used_pages
        self.pool_capacity_pages += other.pool_capacity_pages
        self.pool_evictions += other.pool_evictions
        self.pool_eviction_probes += other.pool_eviction_probes
        for cat, nbytes in other.device_bytes_written_by_category.items():
            self.device_bytes_written_by_category[cat] = \
                self.device_bytes_written_by_category.get(cat, 0) + nbytes
        self.device_bytes_read += other.device_bytes_read
        self.device_write_requests += other.device_write_requests
        self.storage_heterogeneous |= other.storage_heterogeneous
        if other.wal_device_kind != self.wal_device_kind:
            self.wal_device_kind = "mixed"
        self.stripe_width = max(self.stripe_width, other.stripe_width)
        self.pmem_bytes_written += other.pmem_bytes_written
        self.wal_byte_appends += other.wal_byte_appends
        self.io_requests_in += other.io_requests_in
        self.io_requests_out += other.io_requests_out
        self.io_drains += other.io_drains
        self.wal_records += other.wal_records
        self.wal_bytes_appended += other.wal_bytes_appended
        self.wal_synchronous_flushes += other.wal_synchronous_flushes
        self.wal_used_fraction = max(self.wal_used_fraction,
                                     other.wal_used_fraction)
        self.checkpoints_taken += other.checkpoints_taken
        self.extents_fresh += other.extents_fresh
        self.extents_reused += other.extents_reused
        self.extents_freed += other.extents_freed
        self.active_transactions += other.active_transactions
        self.occ_aborts += other.occ_aborts
        self.faults_injected += other.faults_injected
        for kind, count in other.fault_breakdown.items():
            self.fault_breakdown[kind] = \
                self.fault_breakdown.get(kind, 0) + count
        self.io_retries += other.io_retries
        self.io_retries_exhausted += other.io_retries_exhausted
        self.checksum_pages_verified += other.checksum_pages_verified
        self.checksum_failures += other.checksum_failures
        self.wal_corrupt_pages += other.wal_corrupt_pages
        self.wal_records_truncated += other.wal_records_truncated
        self.extents_quarantined += other.extents_quarantined
        self.keys_quarantined += other.keys_quarantined
        self.keys_repaired += other.keys_repaired
        self.recovery_blobs_validated += other.recovery_blobs_validated
        self.recovery_validation_reads += other.recovery_validation_reads
        self.scrub_blobs_scanned += other.scrub_blobs_scanned
        self.scrub_corrupt_found += other.scrub_corrupt_found
        if not self.index_structure:
            self.index_structure = other.index_structure
        elif other.index_structure != self.index_structure:
            self.index_structure = "mixed"
        self.index_probes += other.index_probes
        self.index_delta_hits += other.index_delta_hits
        self.index_segment_retrains += other.index_segment_retrains
        self.index_segments += other.index_segments
        self.index_entries += other.index_entries
        self.ns_nodes += other.ns_nodes
        self.ns_range_scans += other.ns_range_scans
        self.ns_renumbers += other.ns_renumbers
        self.replica_groups += other.replica_groups
        self.replica_members += other.replica_members
        self.replica_quorum = max(self.replica_quorum, other.replica_quorum)
        self.replica_epoch = max(self.replica_epoch, other.replica_epoch)
        self.replica_acked_writes += other.replica_acked_writes
        self.replica_records_shipped += other.replica_records_shipped
        self.replica_ship_retries += other.replica_ship_retries
        self.replica_failovers += other.replica_failovers
        self.replica_rejoins += other.replica_rejoins
        self.replica_fenced_ships += other.replica_fenced_ships
        self.replica_truncated_records += other.replica_truncated_records
        self.replica_max_lag_records = max(self.replica_max_lag_records,
                                           other.replica_max_lag_records)
        self.replica_stale_reads += other.replica_stale_reads

    def recompute_ratios(self, engines) -> None:
        """Set the ratios of an aggregate from the engines' summed raws.

        The counterpart of :meth:`accumulate`, which never averages: the
        pool hit and I/O coalesce ratios come from summed counters, the
        allocator utilization is the mean over ``engines``.
        """
        hits = sum(db.pool.stats.hits for db in engines)
        misses = sum(db.pool.stats.misses for db in engines)
        self.pool_hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        if self.io_requests_in:
            self.io_coalesce_ratio = \
                (self.io_requests_in - self.io_requests_out) \
                / self.io_requests_in
        utils = [db.allocator.utilization() for db in engines]
        self.allocator_utilization = sum(utils) / len(utils) if utils else 0.0

    def format(self) -> str:
        """Human-readable multi-line summary."""
        cats = ", ".join(f"{k}={v >> 10}K"
                         for k, v in sorted(
                             self.device_bytes_written_by_category.items())
                         if v)
        lines = [
            f"simulated time: {self.simulated_seconds:.3f}s",
            f"buffer pool:    {self.pool_used_pages}/"
            f"{self.pool_capacity_pages} pages "
            f"({self.pool_fill_fraction:.0%} full, "
            f"hit ratio {self.pool_hit_ratio:.1%}, "
            f"{self.pool_evictions} evictions, "
            f"{self.pool_probes_per_eviction:.2f} probes each)",
            f"device:         wrote [{cats}], "
            f"read {self.device_bytes_read >> 10}K "
            f"in {self.device_write_requests} write requests",
            f"io scheduler:   {self.io_requests_in} submitted -> "
            f"{self.io_requests_out} issued in {self.io_drains} drains "
            f"({self.io_coalesce_ratio:.0%} coalesced)",
            f"wal:            {self.wal_records} records, "
            f"{self.wal_bytes_appended >> 10}K appended, "
            f"{self.wal_synchronous_flushes} sync flushes, "
            f"{self.checkpoints_taken} checkpoints, "
            f"ring {self.wal_used_fraction:.0%} full",
            f"allocator:      {self.allocator_utilization:.1%} utilized, "
            f"{self.extents_fresh} fresh / {self.extents_reused} reused "
            f"({self.extent_reuse_ratio:.0%} recycling)",
            f"transactions:   {self.active_transactions} active, "
            f"{self.occ_aborts} OCC aborts",
            f"integrity:      {self.faults_injected} faults injected, "
            f"{self.io_retries} I/O retries "
            f"({self.io_retries_exhausted} exhausted), "
            f"{self.checksum_failures} checksum failures / "
            f"{self.checksum_pages_verified} pages verified, "
            f"{self.wal_records_truncated} WAL truncations, "
            f"{self.recovery_blobs_validated} BLOBs validated, "
            f"{self.recovery_reads_per_blob:.2f} reads each, "
            f"{self.keys_repaired} keys repaired, "
            f"{self.keys_quarantined} keys "
            f"({self.extents_quarantined} extents) quarantined",
        ]
        # Storage tier line only when placement is non-trivial: a plain
        # single-NVMe engine must not print pmem/stripe noise.
        if self.storage_heterogeneous or self.stripe_width > 1:
            lines.append(
                f"storage:        wal on {self.wal_device_kind}, "
                f"data striped x{self.stripe_width}, "
                f"{self.pmem_bytes_written >> 10}K to pmem, "
                f"{self.wal_byte_appends} sub-page appends")
        # Shard balance only makes sense with at least two shards:
        # single-engine (or one-shard) reports must not divide by the
        # shard count or print a meaningless imbalance ratio.
        if self.shard_count >= 2:
            spread = "/".join(str(n) for n in self.shard_keys_per_shard)
            lines.append(
                f"shards:         {self.shard_count} shards, "
                f"{self.shard_routed_keys} keys routed "
                f"[{spread}] in {self.shard_fanout_batches} fan-outs, "
                f"imbalance {self.shard_imbalance:.2f}x")
        # Learned-index line only for that engine: btree/art reports must
        # not print segment/delta noise (and the delta ratio guards its
        # zero-probe denominator).
        if self.index_structure in ("learned", "mixed"):
            lines.append(
                f"index:          {self.index_structure}, "
                f"{self.index_segments} segments / "
                f"{self.index_entries} entries, "
                f"{self.index_probes} probes "
                f"({self.index_delta_hit_ratio:.0%} delta hits), "
                f"{self.index_segment_retrains} retrains")
        # Namespace line only when an interval index is attached.
        if self.ns_nodes or self.ns_range_scans:
            lines.append(
                f"namespace:      {self.ns_nodes} interval nodes, "
                f"{self.ns_range_scans} range scans, "
                f"{self.ns_renumbers} renumbers")
        # Replication line only for actual replica groups; a plain or
        # merely sharded engine must not print quorum/epoch noise.
        if self.replica_groups >= 1:
            lines.append(
                f"replication:    {self.replica_groups} group(s) x "
                f"{self.replica_members // max(self.replica_groups, 1)} "
                f"members, quorum {self.replica_quorum}, "
                f"epoch {self.replica_epoch}; "
                f"{self.replica_acked_writes} acked writes, "
                f"{self.replica_records_shipped} records shipped "
                f"({self.replica_ship_retries} retried), "
                f"{self.replica_failovers} failovers / "
                f"{self.replica_rejoins} rejoins, "
                f"{self.replica_fenced_ships} fenced ships, "
                f"{self.replica_truncated_records} divergent records "
                f"truncated, max lag {self.replica_max_lag_records}, "
                f"{self.replica_stale_reads} stale reads")
        return "\n".join(lines)


def build_report(db) -> EngineReport:
    """Collect an :class:`EngineReport` from a live engine."""
    from repro.storage.device import capabilities_of
    pool = db.pool
    device = db.device
    fault_stats = getattr(device, "fault_stats", None)
    integrity = getattr(device, "integrity", None)
    recovery = getattr(db, "recovery_info", None)
    wal_caps = capabilities_of(db.wal_device)
    index_probes = index_delta = index_retrains = 0
    index_segments = index_entries = 0
    if db.config.index_structure == "learned":
        for name in sorted(db._tables):
            tree = db._tables[name]
            tree_stats = tree.stats()
            index_probes += tree_stats.probe_count
            index_delta += tree_stats.delta_hit_count
            index_retrains += tree_stats.retrain_count
            index_segments += tree_stats.segment_count
            index_entries += tree_stats.entry_count
    ns = db.ns
    pmem_bytes = sum(
        sum(dev.stats.bytes_written_by_category.values())
        for dev in db.storage.devices
        if capabilities_of(dev).kind == "pmem")
    return EngineReport(
        pool_used_pages=pool.used_pages,
        pool_capacity_pages=pool.capacity_pages,
        pool_hit_ratio=pool.stats.hit_ratio,
        pool_evictions=pool.stats.evictions,
        pool_eviction_probes=pool.stats.eviction_probes,
        device_bytes_written_by_category=dict(
            device.stats.bytes_written_by_category),
        device_bytes_read=device.stats.bytes_read,
        device_write_requests=device.stats.write_requests,
        storage_heterogeneous=db.storage.heterogeneous,
        wal_device_kind=wal_caps.kind,
        stripe_width=capabilities_of(device).stripe_width,
        pmem_bytes_written=pmem_bytes,
        wal_byte_appends=db.wal_device.stats.byte_append_requests,
        io_requests_in=pool.io.stats.requests_in,
        io_requests_out=pool.io.stats.requests_out,
        io_drains=pool.io.stats.drains,
        io_coalesce_ratio=pool.io.stats.coalesce_ratio,
        wal_records=db.wal.stats.records,
        wal_bytes_appended=db.wal.stats.bytes_appended,
        wal_synchronous_flushes=db.wal.stats.synchronous_flushes,
        wal_used_fraction=db.wal.used_fraction(),
        checkpoints_taken=db.checkpoints_taken,
        allocator_utilization=db.allocator.utilization(),
        extents_fresh=db.allocator.stats.fresh_extents,
        extents_reused=db.allocator.stats.reused_extents,
        extents_freed=db.allocator.stats.freed_extents,
        active_transactions=len(db._active),
        occ_aborts=db.occ_aborts,
        faults_injected=fault_stats.total if fault_stats else 0,
        fault_breakdown=fault_stats.as_dict() if fault_stats else {},
        io_retries=db.retry.stats.retries,
        io_retries_exhausted=db.retry.stats.exhausted,
        checksum_pages_verified=integrity.pages_verified if integrity else 0,
        checksum_failures=integrity.checksum_failures if integrity else 0,
        wal_corrupt_pages=recovery.wal_corrupt_pages if recovery else 0,
        wal_records_truncated=(recovery.wal_records_truncated
                               if recovery else 0),
        extents_quarantined=db.quarantined_extents,
        keys_quarantined=len(db._quarantined),
        keys_repaired=recovery.repaired_keys if recovery else 0,
        recovery_blobs_validated=(recovery.blobs_validated
                                  if recovery else 0),
        recovery_validation_reads=(recovery.validation_read_requests
                                   if recovery else 0),
        scrub_blobs_scanned=db.scrub_stats.blobs_scanned,
        scrub_corrupt_found=db.scrub_stats.corrupt_found,
        index_structure=db.config.index_structure,
        index_probes=index_probes,
        index_delta_hits=index_delta,
        index_segment_retrains=index_retrains,
        index_segments=index_segments,
        index_entries=index_entries,
        ns_nodes=ns.nodes if ns is not None else 0,
        ns_range_scans=ns.range_scans if ns is not None else 0,
        ns_renumbers=ns.renumbers if ns is not None else 0,
        simulated_seconds=db.model.clock.now_s,
    )
