"""The one topology: a router over hash-partitioned replica groups.

A shard is a replica group of one.  The
:class:`~repro.shard.router.ShardRouter` maps each key to a group by
content hash, and every operation runs *scatter-gather* through
:meth:`~repro.shard.router.ShardRouter.gather`: each group executes its
sub-batch (primary work plus any quorum wait) on its own coordinator
clock, and the router's clock advances by the slowest group, not the
sum.  ``n_replicas=0, quorum=1`` gives the unreplicated sharded engine —
a group of one prices exactly like a bare engine — and ``n_replicas >
0`` replicates every partition.  A primary crash inside one group is
invisible to the others: the group fails over on its own clock and the
router keeps routing to the same group id — group membership is a
replication concern, not a partitioning one.

The consequence ``tests/test_sharding.py`` holds: a uniform key batch
over N groups approaches N-way speedup, a Zipf-0.99 batch lands almost
entirely on one group and the makespan collapses back to the serial
time — sharding buys nothing against skew it cannot split.
"""

from __future__ import annotations

from repro.db.config import EngineConfig
from repro.db.stats import EngineReport
from repro.net.transport import TCP_ETHERNET
from repro.replica.group import ReplicaGroup
from repro.shard.router import ShardRouter
from repro.sim.cost import CostModel


class ReplicatedShardedBlobDB:
    """Scatter-gather facade over hash-partitioned replica groups."""

    def __init__(self, n_groups: int = 4, n_replicas: int = 2,
                 quorum: int = 2,
                 config: EngineConfig | None = None,
                 model: CostModel | None = None,
                 table: str = "blobs",
                 hasher_kind: str = "fast",
                 transport=TCP_ETHERNET,
                 device_faults=None, link_faults=None,
                 auto_failover: bool = True) -> None:
        if n_groups < 1:
            raise ValueError("need at least one replica group")
        self.config = config or EngineConfig()
        #: The router's cost model: fan-out charges and makespans land
        #: here; this clock is what a client of the engine sees.
        self.model = model or CostModel()
        self.table = table
        # One coordinator clock per group, sharing the router's price
        # list; fault plans derive per-member seeds from the
        # group-qualified target name, so every link and device in the
        # fleet faults independently but reproducibly.
        self.groups = [
            ReplicaGroup(n_replicas=n_replicas, quorum=quorum,
                         config=self.config,
                         model=CostModel(self.model.params),
                         table=table, transport=transport,
                         name=f"g{gid}",
                         device_faults=device_faults,
                         link_faults=link_faults,
                         auto_failover=auto_failover)
            for gid in range(n_groups)
        ]
        self.n_groups = n_groups
        self.router = ShardRouter(n_groups, self.model, hasher_kind)
        #: Makespan / serial sum of the per-group restart that built
        #: this engine (0.0 unless constructed via :meth:`recover`).
        self.recovery_makespan_ns = 0.0
        self.recovery_serial_ns = 0.0

    def _gather(self, group_ids, runner) -> float:
        return self.router.gather(
            group_ids, lambda gid: self.groups[gid].model.clock, runner)

    def _on_group(self, group_id: int, op):
        """Return ``op(group)``, run as a one-group scatter-gather."""
        out = []
        self._gather([group_id], lambda gid: out.append(op(self.groups[gid])))
        return out[0]

    def _on_owner(self, key: bytes, op):
        """Route ``key`` and return ``op(group)`` run on its group."""
        return self._on_group(self.router.shard_of(key), op)

    # -- single-key operations ------------------------------------------------

    def put(self, key: bytes, data: bytes) -> None:
        self._on_owner(key, lambda group: group.put(key, data))

    def get(self, key: bytes) -> bytes:
        return self._on_owner(key, lambda group: group.get(key))

    def read_any(self, key: bytes) -> bytes:
        """Route to the owning group, read from its member rotation."""
        return self._on_owner(key, lambda group: group.read_any(key))

    def delete(self, key: bytes) -> None:
        self._on_owner(key, lambda group: group.delete(key))

    def stat(self, key: bytes) -> int:
        return self._on_owner(key, lambda group: group.stat(key))

    def exists(self, key: bytes) -> bool:
        return self._on_owner(key, lambda group: group.exists(key))

    # -- scatter-gather batches ------------------------------------------------

    def multiget(self, keys: list[bytes]) -> list[bytes]:
        """Read a batch; latency is the slowest group's sub-batch."""
        parts = self.router.partition(list(keys))
        results: list[bytes | None] = [None] * len(keys)

        def run(gid: int) -> None:
            group = self.groups[gid]
            for pos, key in parts[gid]:
                results[pos] = group.get(key)
        self._gather(parts.keys(), run)
        return results  # type: ignore[return-value]

    def multiput(self, items: list[tuple[bytes, bytes]]) -> None:
        """Write a batch: one commit per touched group.

        Each group commits its whole sub-batch atomically on its primary
        and acknowledges it with one quorum wait; cross-group atomicity
        is explicitly *not* promised — the router is a client of N
        independent groups, not a distributed transaction coordinator.
        """
        items = list(items)
        parts = self.router.partition([key for key, _ in items])
        self._gather(parts.keys(), lambda gid: self.groups[gid].multiput(
            [(key, items[pos][1]) for pos, key in parts[gid]]))

    def scan(self, start: bytes | None = None,
             end: bytes | None = None) -> list[tuple[bytes, object]]:
        """Scatter the scan to every group, gather a key-ordered merge."""
        merged: list[tuple[bytes, object]] = []
        self._gather(range(self.n_groups), lambda gid: merged.extend(
            self.groups[gid].scan(start, end)))
        merged.sort(key=lambda kv: kv[0])
        # The gather-side merge is router CPU, one comparison per row.
        self.model.cpu(len(merged) * self.model.params.shard_route_ns)
        return merged

    def drain(self) -> None:
        """Settle every group's commit window and converge replicas."""
        self._gather(range(self.n_groups),
                     lambda gid: self.groups[gid].drain())

    # -- failure surface --------------------------------------------------------

    def crash_primary(self, group_id: int, mid_record=None):
        """Crash one group's primary; the group fails over on its clock."""
        return self._on_group(
            group_id, lambda group: group.crash_primary(mid_record))

    def rejoin(self, group_id: int, member_id: int) -> dict:
        return self._on_group(group_id,
                              lambda group: group.rejoin(member_id))

    def crash(self):
        """Drop every engine's volatile state; returns their devices.

        Defined for groups of one: a group with replicas restarts
        through :meth:`crash_primary` and :meth:`rejoin` instead.
        """
        if any(len(group.members) > 1 for group in self.groups):
            raise ValueError("replicated groups restart through "
                             "crash_primary and rejoin")
        return [group.primary.db.crash() for group in self.groups]

    @classmethod
    def recover(cls, devices, config: EngineConfig,
                model: CostModel | None = None, table: str = "blobs",
                hasher_kind: str = "fast") -> "ReplicatedShardedBlobDB":
        """Rebuild groups of one from crashed devices.

        Every engine replays its own WAL on its own clock, so total
        restart time is the *makespan* over groups — the near-linear
        recovery speedup that motivates partitioned logs.  Both the
        makespan and the serial sum are recorded so callers can report
        the speedup.
        """
        rdb = cls(n_groups=len(devices), n_replicas=0, quorum=1,
                  config=config, model=model, table=table,
                  hasher_kind=hasher_kind)
        # A restart is not a client batch: it pays the scatter charge
        # but feeds no fan-out counter or batch histogram.
        elapsed = rdb.router.run_each(
            range(len(devices)), lambda gid: devices[gid].model.clock,
            lambda gid: rdb.groups[gid].restart(devices[gid]))
        makespan = max([0, *elapsed])
        rdb.model.shard_fanout(len(devices))
        rdb.model.clock.advance(makespan)
        rdb.recovery_makespan_ns = makespan
        rdb.recovery_serial_ns = sum(elapsed)
        if rdb.model.obs is not None:
            rdb.model.obs.observe("shard.recovery_makespan_ns", makespan)
        return rdb

    # -- introspection ----------------------------------------------------------

    def group_reports(self) -> list[EngineReport]:
        return [group.stats_report() for group in self.groups]

    def stats_report(self) -> EngineReport:
        """Aggregate engine raws and replication counters across groups,
        plus the shard-balance picture."""
        stats = self.router.stats
        agg = EngineReport(shard_count=self.n_groups,
                           shard_fanout_batches=stats.fanout_batches,
                           shard_routed_keys=stats.routed_keys,
                           shard_imbalance=stats.imbalance(),
                           shard_keys_per_shard=list(stats.per_shard_keys))
        for rep in self.group_reports():
            agg.accumulate(rep)
        agg.recompute_ratios(
            [db for group in self.groups for db in group.engines()])
        agg.simulated_seconds = self.model.clock.now_s
        return agg
