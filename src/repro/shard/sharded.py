"""Hash-partitioned engine: N independent ``BlobDB`` shards.

Each shard is a complete engine — its own :class:`SimulatedNVMe`, WAL,
buffer pool, and I/O scheduler — running on its **own**
:class:`~repro.sim.clock.VirtualClock`.  A deterministic
:class:`~repro.shard.router.ShardRouter` partitions the keyspace by
content hash, and cross-shard batches run *scatter-gather*: every shard
executes its sub-batch on its private clock, and the router's observed
latency is the **makespan** — the maximum per-shard elapsed time — plus
a per-shard fan-out charge.  This lifts the wave-pipelining idea of
:meth:`CostModel._charge_io` (overlapped NVMe commands pay the slowest
wave, not the sum) one layer up: overlapped shard executions pay the
slowest shard, not the sum.

The consequence ``tests/test_sharding.py`` holds: a uniform key batch over
N shards approaches N-way speedup, a Zipf-0.99 batch lands almost
entirely on one shard and the makespan collapses back to the serial
time — sharding buys nothing against skew it cannot split.
"""

from __future__ import annotations

from repro.db.config import EngineConfig
from repro.db.database import BlobDB
from repro.db.stats import EngineReport
from repro.shard.router import ShardRouter
from repro.sim.cost import CostModel


def gather_makespan(model: CostModel, clocks, runner,
                    obs_label: str = "shard") -> float:
    """Run ``runner(pid)`` for each ``(pid, clock)`` participant.

    The scatter-gather pricing core, shared by the sharded engine, its
    network front ends, and the replica layer one level up: every
    participant executes on its *own* virtual clock, the coordinator's
    clock (``model``) advances by the **makespan** — the maximum
    per-participant elapsed time — and each participant's elapsed time
    is observed under ``<obs_label>.s<pid>.batch_ns``.  Participants run
    in sorted id order so the simulation stays order-deterministic even
    though the model says "parallel".
    """
    obs = model.obs
    makespan = 0.0
    for pid, clock in sorted(clocks, key=lambda pc: pc[0]):
        start_ns = clock.now_ns
        runner(pid)
        elapsed = clock.now_ns - start_ns
        if obs is not None:
            obs.observe(f"{obs_label}.s{pid}.batch_ns", elapsed)
        makespan = max(makespan, elapsed)
    if obs is not None:
        obs.observe(f"{obs_label}.makespan_ns", makespan)
    model.clock.advance(makespan)
    return makespan


class ShardedBlobDB:
    """Scatter-gather facade over hash-partitioned ``BlobDB`` shards."""

    def __init__(self, n_shards: int = 4,
                 config: EngineConfig | None = None,
                 model: CostModel | None = None,
                 table: str = "blobs",
                 hasher_kind: str = "fast",
                 _shards: list[BlobDB] | None = None) -> None:
        self.config = config or EngineConfig()
        #: The router's cost model: fan-out charges and makespans land
        #: here; this clock is what a client of the sharded engine sees.
        self.model = model or CostModel()
        self.table = table
        if _shards is not None:
            self.shards = _shards
        else:
            # Each shard runs on its own clock but shares the router's
            # price list, so per-shard work is comparable and overridden
            # parameters apply everywhere.
            self.shards = [
                BlobDB(config=self.config,
                       model=CostModel(self.model.params))
                for _ in range(n_shards)
            ]
        self.n_shards = len(self.shards)
        self.router = ShardRouter(self.n_shards, self.model, hasher_kind)
        for shard in self.shards:
            if table not in shard.list_tables():
                shard.create_table(table)
        #: Makespan / serial-sum of the per-shard recovery that built
        #: this engine (0.0 unless constructed via :meth:`recover`).
        self.recovery_makespan_ns = 0.0
        self.recovery_serial_ns = 0.0

    # -- scatter-gather core -------------------------------------------------

    def _gather(self, shard_ids, runner) -> float:
        """Run ``runner(shard_id)`` on each shard's private clock.

        Returns the makespan over the touched shards and advances the
        router's clock by it — the scatter-gather latency a client
        observes.  Shards execute in sorted id order so the simulation
        is order-deterministic even though the model says "parallel".
        """
        ids = sorted(shard_ids)
        self.router.charge_fanout(len(ids))
        makespan = gather_makespan(
            self.model,
            [(sid, self.shards[sid].model.clock) for sid in ids], runner)
        if self.model.obs is not None:
            self.model.obs.observe("shard.imbalance",
                                   int(self.router.stats.imbalance() * 1000))
        return makespan

    def _upsert(self, shard: BlobDB, txn, key: bytes, data: bytes) -> None:
        if shard.exists(self.table, key):
            shard.delete_blob(txn, self.table, key)
        shard.put_blob(txn, self.table, key, data)

    # -- single-key operations ------------------------------------------------

    def put(self, key: bytes, data: bytes) -> None:
        shard_id = self.router.shard_of(key)

        def run(sid: int) -> None:
            shard = self.shards[sid]
            with shard.transaction() as txn:
                self._upsert(shard, txn, key, data)
        self._gather([shard_id], run)

    def get(self, key: bytes) -> bytes:
        shard_id = self.router.shard_of(key)
        out: list[bytes] = []

        def run(sid: int) -> None:
            out.append(self.shards[sid].read_blob(self.table, key))
        self._gather([shard_id], run)
        return out[0]

    def delete(self, key: bytes) -> None:
        shard_id = self.router.shard_of(key)

        def run(sid: int) -> None:
            shard = self.shards[sid]
            with shard.transaction() as txn:
                shard.delete_blob(txn, self.table, key)
        self._gather([shard_id], run)

    def stat(self, key: bytes) -> int:
        shard_id = self.router.shard_of(key)
        out: list[int] = []

        def run(sid: int) -> None:
            out.append(self.shards[sid].get_state(self.table, key).size)
        self._gather([shard_id], run)
        return out[0]

    def exists(self, key: bytes) -> bool:
        return self.shards[self.router.shard_of(key)].exists(self.table, key)

    # -- scatter-gather batches ------------------------------------------------

    def multiget(self, keys: list[bytes]) -> list[bytes]:
        """Read a batch; latency is the slowest shard's sub-batch."""
        parts = self.router.partition(list(keys))
        results: list[bytes | None] = [None] * len(keys)

        def run(sid: int) -> None:
            shard = self.shards[sid]
            for pos, key in parts[sid]:
                results[pos] = shard.read_blob(self.table, key)
        self._gather(parts.keys(), run)
        return results  # type: ignore[return-value]

    def multiput(self, items: list[tuple[bytes, bytes]]) -> None:
        """Write a batch: one transaction per touched shard.

        Each shard commits its whole sub-batch atomically (its own WAL,
        one group-commit window); cross-shard atomicity is explicitly
        *not* promised — the router is a client of N independent
        engines, not a distributed transaction coordinator.
        """
        items = list(items)
        parts = self.router.partition([key for key, _ in items])

        def run(sid: int) -> None:
            shard = self.shards[sid]
            with shard.transaction() as txn:
                for pos, key in parts[sid]:
                    self._upsert(shard, txn, key, items[pos][1])
        self._gather(parts.keys(), run)

    def scan(self, start: bytes | None = None,
             end: bytes | None = None) -> list[tuple[bytes, object]]:
        """Scatter the scan to every shard, gather a key-ordered merge."""
        per_shard: list[list[tuple[bytes, object]]] = \
            [[] for _ in self.shards]

        def run(sid: int) -> None:
            per_shard[sid] = list(
                self.shards[sid].scan(self.table, start, end))
        self._gather(range(self.n_shards), run)
        merged: list[tuple[bytes, object]] = []
        for rows in per_shard:
            merged.extend(rows)
        merged.sort(key=lambda kv: kv[0])
        # The gather-side merge is router CPU, one comparison per row.
        self.model.cpu(len(merged) * self.model.params.shard_route_ns)
        return merged

    def drain_commit_window(self) -> None:
        """Settle every shard's open group-commit window (makespan)."""
        def run(sid: int) -> None:
            self.shards[sid].drain_commit_window()
        self._gather(range(self.n_shards), run)

    # -- crash & recovery -------------------------------------------------------

    def crash(self):
        """Drop all volatile state; returns the surviving shard devices."""
        return [shard.crash() for shard in self.shards]

    @classmethod
    def recover(cls, devices, config: EngineConfig,
                model: CostModel | None = None, table: str = "blobs",
                hasher_kind: str = "fast") -> "ShardedBlobDB":
        """Rebuild from crashed shard devices; recovery runs per shard.

        Every shard replays its own WAL on its own clock, so total
        restart time is the *makespan* over shards — the near-linear
        recovery speedup that motivates partitioned logs.  Both the
        makespan and the serial sum are recorded so callers can report
        the speedup.
        """
        shards: list[BlobDB] = []
        makespan = 0.0
        serial = 0.0
        for device in devices:
            shard_model = device.model
            start_ns = shard_model.clock.now_ns
            shards.append(BlobDB.recover(device, config, model=shard_model))
            elapsed = shard_model.clock.now_ns - start_ns
            serial += elapsed
            makespan = max(makespan, elapsed)
        sdb = cls(config=config, model=model, table=table,
                  hasher_kind=hasher_kind, _shards=shards)
        sdb.model.shard_fanout(len(shards))
        sdb.model.clock.advance(makespan)
        sdb.recovery_makespan_ns = makespan
        sdb.recovery_serial_ns = serial
        if sdb.model.obs is not None:
            sdb.model.obs.observe("shard.recovery_makespan_ns", makespan)
        return sdb

    # -- introspection ----------------------------------------------------------

    def shard_reports(self) -> list[EngineReport]:
        return [shard.stats_report() for shard in self.shards]

    def stats_report(self) -> EngineReport:
        """Aggregate per-shard counters plus the shard-balance picture."""
        reports = self.shard_reports()
        agg = EngineReport(shard_count=self.n_shards,
                           shard_fanout_batches=self.router.stats
                           .fanout_batches,
                           shard_routed_keys=self.router.stats.routed_keys,
                           shard_imbalance=self.router.stats.imbalance(),
                           shard_keys_per_shard=list(
                               self.router.stats.per_shard_keys))
        for rep in reports:
            agg.accumulate(rep)
        # Ratios recomputed from summed raw counters, not averaged.
        hits = sum(s.pool.stats.hits for s in self.shards)
        misses = sum(s.pool.stats.misses for s in self.shards)
        agg.pool_hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        if agg.io_requests_in:
            agg.io_coalesce_ratio = \
                (agg.io_requests_in - agg.io_requests_out) \
                / agg.io_requests_in
        utils = [s.allocator.utilization() for s in self.shards]
        agg.allocator_utilization = sum(utils) / len(utils) if utils else 0.0
        agg.simulated_seconds = self.model.clock.now_s
        return agg
