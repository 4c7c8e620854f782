"""Engine configuration: every knob the paper's evaluation varies."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hashing import HASHER_KINDS
from repro.storage.device import CapabilityError

POOL_KINDS = ("vmcache", "hashtable")
LOG_POLICIES = ("async-blob", "physlog")
CONCURRENCY_MODES = ("2pl", "occ")
WAL_PLACEMENTS = ("auto", "pmem", "nvme")
#: Relation-index engines: the accepted set, the validation error text,
#: and the engine loops of the index tests and Table III benchmark all
#: derive from this one registry.
INDEX_ENGINES = ("btree", "art", "learned")


@dataclass
class EngineConfig:
    """Configuration of a :class:`~repro.db.database.BlobDB` instance.

    The defaults describe ``Our`` in the paper: vmcache+exmap buffer
    manager, asynchronous single-flush BLOB logging, 10-tiers-per-level
    extent tiers, no tail extents.  ``Our.ht`` is ``pool="hashtable"``;
    ``Our.physlog`` is ``log_policy="physlog"``.
    """

    page_size: int = 4096
    #: Total simulated device size in pages (default 256 MiB).
    device_pages: int = 65536
    #: Pages of the WAL ring region.
    wal_pages: int = 2048
    #: Pages reserved for each of the two catalog checkpoint slots.
    catalog_pages: int = 1024
    #: Buffer pool capacity in pages (default 128 MiB).
    buffer_pool_pages: int = 32768
    #: WAL buffer in bytes; physlog segments BLOBs through this.
    wal_buffer_bytes: int = 1 << 20
    pool: str = "vmcache"
    log_policy: str = "async-blob"
    hasher: str = "fast"
    #: Concurrency control on the Blob State relation (Section III-H):
    #: strict 2PL with no-wait conflicts, or OCC (reads never block;
    #: commit-time validation of the read set, Silo-style write markers).
    concurrency: str = "2pl"
    #: Structure backing the relations — Section III-F: "DBMSs can use
    #: any data structure like B-Tree or ART".  One of
    #: :data:`INDEX_ENGINES`: "btree" (prefix-compressed B-Tree), "art"
    #: (adaptive radix tree), or "learned" (disk-resident updatable
    #: learned index, :mod:`repro.lindex`).
    index_structure: str = "btree"
    #: Learned-index error bound: a probe's last-mile search is confined
    #: to ``+-lindex_epsilon`` positions around the model's prediction.
    lindex_epsilon: int = 64
    #: Buffered updates a learned-index segment tolerates before it is
    #: deterministically retrained (merged, refitted, rewritten).
    lindex_delta_max: int = 32
    use_tail_extents: bool = False
    tiers_per_level: int = 10
    max_levels: int = 13
    n_workers: int = 1
    #: Worker-local aliasing area in pages (default 16 MiB).
    worker_local_pages: int = 4096
    eviction_seed: int = 0
    #: Checkpoint when the WAL region is this full (background trigger).
    checkpoint_threshold: float = 0.5
    #: Out-of-place writes (the paper's Section VI proposal): logical
    #: PIDs are decoupled from physical addresses, so extent allocation
    #: never fragments; physical space is exhausted only by live data
    #: (the logical space is 8x the physical device).
    out_of_place: bool = False
    #: Attempts (total tries) for transient device/network faults before
    #: the engine degrades to a typed ``RetriesExhaustedError``; the
    #: backoff starts at 50 virtual us and doubles per retry.
    io_retries: int = 4
    #: Cross-worker group-commit window in virtual ns.  0 (the default)
    #: flushes at every commit; > 0 lets commits inside the window share
    #: one WAL flush and one sorted extent batch.
    group_commit_window_ns: float = 0.0
    #: Byte-addressable PMem tier in pages (0 = no PMem tier).  When
    #: present it holds the superblock and catalog slots — and the WAL
    #: ring, unless ``wal_placement`` forces it back onto NVMe.
    pmem_pages: int = 0
    #: Where the WAL ring lives: "auto" prefers the PMem tier when one
    #: is configured and falls back to NVMe otherwise; "pmem" *requires*
    #: a tier (a :class:`CapabilityError` without one); "nvme" forces
    #: the block device even when PMem exists.
    wal_placement: str = "auto"
    #: Member devices of the striped data tier (1 = no striping).
    stripe_devices: int = 1
    #: Stripe unit in pages when ``stripe_devices > 1``.
    stripe_chunk_pages: int = 64

    def __post_init__(self) -> None:
        if self.io_retries < 1:
            raise ValueError("io_retries must be at least 1")
        if self.group_commit_window_ns < 0:
            raise ValueError("group_commit_window_ns must be non-negative")
        if self.pool not in POOL_KINDS:
            raise ValueError(f"pool must be one of {POOL_KINDS}")
        if self.log_policy not in LOG_POLICIES:
            raise ValueError(f"log_policy must be one of {LOG_POLICIES}")
        if self.hasher not in HASHER_KINDS:
            raise ValueError(f"hasher must be one of {HASHER_KINDS}")
        if self.concurrency not in CONCURRENCY_MODES:
            raise ValueError(
                f"concurrency must be one of {CONCURRENCY_MODES}")
        if self.index_structure not in INDEX_ENGINES:
            raise ValueError(
                f"index_structure must be one of {INDEX_ENGINES}")
        if self.lindex_epsilon < 1:
            raise ValueError("lindex_epsilon must be at least 1")
        if self.lindex_delta_max < 1:
            raise ValueError("lindex_delta_max must be at least 1")
        if not 0.0 < self.checkpoint_threshold <= 1.0:
            raise ValueError("checkpoint_threshold must be in (0, 1]")
        if self.wal_placement not in WAL_PLACEMENTS:
            raise ValueError(
                f"wal_placement must be one of {WAL_PLACEMENTS}")
        if self.pmem_pages < 0:
            raise ValueError("pmem_pages must be non-negative")
        if self.wal_placement == "pmem" and self.pmem_pages == 0:
            raise CapabilityError(
                "wal_placement='pmem' needs a byte-addressable tier: "
                "set pmem_pages > 0 (or use 'auto' to fall back to NVMe)")
        if self.stripe_devices < 1:
            raise ValueError("stripe_devices must be at least 1")
        if self.stripe_chunk_pages < 1:
            raise ValueError("stripe_chunk_pages must be at least 1")
        if self.out_of_place and self.stripe_devices > 1:
            raise ValueError(
                "out_of_place remapping and striping are exclusive")
        if 0 < self.pmem_pages < self.min_pmem_pages:
            raise ValueError(
                f"pmem_pages={self.pmem_pages} too small for the metadata"
                f" regions (need at least {self.min_pmem_pages})")
        if self.data_pages <= 0:
            raise ValueError("device too small for the configured regions")

    # -- device layout -------------------------------------------------------
    #
    # Homogeneous (pmem_pages == 0) — everything on one block device:
    #
    #   [0]                superblock
    #   [1 .. C]           catalog slot A
    #   [1+C .. 1+2C]      catalog slot B
    #   [1+2C .. 1+2C+W]   WAL ring
    #   [rest]             data area (extent allocator)
    #
    # Heterogeneous (pmem_pages > 0) — the PMem tier holds the
    # superblock and both catalog slots (the pids above, on the *meta*
    # device) plus the WAL ring when ``wal_on_pmem``; the data device
    # then starts its extent area at pid 0.  With ``wal_placement=
    # "nvme"`` the ring occupies the data device's first ``wal_pages``.

    @property
    def catalog_a_pid(self) -> int:
        return 1

    @property
    def catalog_b_pid(self) -> int:
        return 1 + self.catalog_pages

    @property
    def wal_on_pmem(self) -> bool:
        """Placement decision: does the WAL ring land on the PMem tier?"""
        return self.pmem_pages > 0 and self.wal_placement != "nvme"

    @property
    def min_pmem_pages(self) -> int:
        """Smallest PMem tier holding the metadata (and WAL) regions."""
        need = 1 + 2 * self.catalog_pages
        if self.wal_placement != "nvme":
            need += self.wal_pages
        return need

    @property
    def wal_region_pid(self) -> int:
        """Start of the WAL ring *on the device that hosts it*."""
        if self.pmem_pages > 0 and not self.wal_on_pmem:
            return 0
        return 1 + 2 * self.catalog_pages

    @property
    def data_start_pid(self) -> int:
        if self.pmem_pages > 0:
            return 0 if self.wal_on_pmem else self.wal_pages
        return self.wal_region_pid + self.wal_pages

    @property
    def data_pages(self) -> int:
        return self.device_pages - self.data_start_pid
