"""Replica groups: WAL shipping, quorum commit, deterministic failover.

A :class:`ReplicaGroup` promotes one engine to a group of ``1 primary +
N replicas``.  Every member owns a complete engine — its own
:class:`~repro.storage.device.SimulatedNVMe` (optionally wrapped in
:class:`~repro.storage.faults.FaultyNVMe`), WAL, buffer pool, and
virtual clock.  The primary executes each write locally, then ships the
resulting replication record (:mod:`repro.replica.record`) to every
replica over that member's own
:class:`~repro.net.transport.TransportProfile` link; a commit is
acknowledged only once a configurable *quorum* of members (primary
included) has durably applied it.

Pricing follows the router's scatter-gather discipline one level down:
each replica applies its records on its **own** clock, and the group
clock — what the client observes — advances by the primary's local time
plus the *quorum makespan*: the ``(quorum - 1)``-th smallest per-replica
clock delta.  ``quorum=1`` is asynchronous replication (the client
never waits for a link), ``quorum=N+1`` is fully synchronous (the
slowest member gates every commit), and anything between prices exactly
the partial wait a real quorum protocol buys.  A group of one
(``n_replicas=0``) has no quorum to decide and prices exactly like the
bare engine: it is how the router runs an unreplicated shard.

Failure handling, all driven by seeded :class:`FaultPlan` draws:

* a drawn network fault loses one ship exchange in flight; the member's
  retry policy re-issues it inside that member's clock delta;
* a drawn partition (:meth:`FaultPlan.draw_partition_ns`) kills the
  link until the member's clock passes the deadline;
* a member whose retries exhaust simply *lags* — it catches up on the
  next ship, on :meth:`ReplicaGroup.catch_up`, or at failover;
* a primary crash (or a commit that cannot reach quorum) triggers
  epoch-fenced promotion of the most-caught-up replica — safe for
  ``quorum >= 2`` because every acknowledged record lives on at least
  ``quorum - 1`` surviving members applied *in LSN order*, so the
  longest survivor log contains all of them;
* a deposed primary's :meth:`rejoin` is fenced by epoch (its stale
  ship is rejected), its divergent tail is truncated back to the
  authoritative state, and it re-enters as a replica.

See ``docs/replication.md`` for the full state machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.config import EngineConfig
from repro.db.database import BlobDB
from repro.db.errors import (
    QuorumLostError,
    RetriesExhaustedError,
    StaleEpochError,
    TransientNetworkError,
)
from repro.db.stats import EngineReport
from repro.net.transport import TCP_ETHERNET, TransportProfile, one_per
from repro.replica.record import ACK_BYTES, ReplicationRecord
from repro.sim.cost import CostModel
from repro.storage.faults import FaultPlanFactory, FaultyNVMe, RetryPolicy
from repro.storage.factory import build_storage


def view_bytes(db: BlobDB, table: str, key: bytes) -> bytes:
    """A BLOB's bytes served from its aliasing view, without a copy."""
    with db.read_blob_view(table, key) as view:
        return view.contiguous()


@dataclass
class GroupStats:
    """Cumulative replication counters of one group."""

    acked_writes: int = 0
    records_shipped: int = 0
    quorum_losses: int = 0
    failovers: int = 0
    rejoins: int = 0
    fenced_ships: int = 0
    truncated_records: int = 0
    resynced_records: int = 0
    stale_reads: int = 0
    replica_reads: int = 0
    primary_crashes: int = 0
    #: Group-clock duration of the most recent failover.
    last_failover_ns: float = 0.0


class ReplicaMember:
    """One member of a replica group: a full engine plus its link state."""

    def __init__(self, member_id: int, db: BlobDB, table: str,
                 transport: TransportProfile, link_plan=None,
                 retry_attempts: int = 4) -> None:
        self.member_id = member_id
        self.model = db.model
        self.db: BlobDB | None = db
        self.table = table
        self.transport = transport
        self.link_plan = link_plan
        #: Bound to this member's model so retry backoff is simulated
        #: inside the member's clock delta — and therefore inside the
        #: quorum makespan, exactly like the server's per-group retries.
        self.retry = RetryPolicy(self.model, attempts=retry_attempts)
        #: Highest replication LSN durably applied by this member.
        self.applied_lsn = 0
        #: Primary term this member has accepted (fencing floor).
        self.epoch = 1
        #: Records applied that some live member has not, in LSN order
        #: from ``history_base + 1`` (the member's view of the stream;
        #: the current primary's list is authoritative).
        self.history: list[ReplicationRecord] = []
        #: LSN of the last record dropped from the front of ``history``.
        self.history_base = 0
        self.alive = True
        #: Surviving device of a crashed member (for recovery on rejoin).
        self.device = None
        #: Member-clock deadline until which the ship link is dead.
        self.partitioned_until_ns = 0.0

    def lag(self, primary_lsn: int) -> int:
        return max(0, primary_lsn - self.applied_lsn)

    def apply(self, *records: ReplicationRecord) -> None:
        """Durably apply consecutive records in one engine transaction.

        All or nothing: a delete of a missing key raises
        :class:`~repro.db.errors.KeyNotFoundError` and nothing applies.
        """
        db, table = self.db, self.table
        assert db is not None
        if records[0].lsn != self.applied_lsn + 1:
            raise AssertionError(
                f"member {self.member_id}: stream gap "
                f"(applied {self.applied_lsn}, got {records[0].lsn})")
        with db.transaction() as txn:
            for record in records:
                if record.op == "put":
                    if db.exists(table, record.key):
                        db.delete_blob(txn, table, record.key)
                    assert record.payload is not None
                    db.put_blob(txn, table, record.key, record.payload)
                else:
                    db.delete_blob(txn, table, record.key)
        self.applied_lsn = records[-1].lsn
        self.history.extend(records)


class ReplicaGroup:
    """1 primary + N replicas with quorum commit and failover."""

    def __init__(self, n_replicas: int = 2, quorum: int = 2,
                 config: EngineConfig | None = None,
                 model: CostModel | None = None,
                 table: str = "blobs",
                 transport: TransportProfile | list = TCP_ETHERNET,
                 name: str = "group",
                 device_faults: FaultPlanFactory | None = None,
                 link_faults: FaultPlanFactory | None = None,
                 retry_attempts: int = 4,
                 auto_failover: bool = True) -> None:
        if n_replicas < 0:
            raise ValueError("need a non-negative replica count")
        n_members = n_replicas + 1
        if not 1 <= quorum <= n_members:
            raise ValueError(
                f"quorum {quorum} out of range for {n_members} members")
        self.config = config or EngineConfig()
        #: The group coordinator's model: quorum waits and fan-out
        #: charges land here; this clock is what a client observes.
        self.model = model or CostModel()
        self.table = table
        self.name = name
        self.quorum = quorum
        self.auto_failover = auto_failover
        transports = one_per(transport, n_members, "member")
        # Each member runs on its own clock but shares the coordinator's
        # price list; fault plans are derived per member from one base
        # seed, so the whole group replays from (code, seed).
        self.members = [
            ReplicaMember(
                i, self._engine(device_faults.plan_for(f"{name}.m{i}.device")
                                if device_faults is not None else None),
                table, transports[i],
                link_plan=(link_faults.plan_for(f"{name}.m{i}.link")
                           if link_faults is not None else None),
                retry_attempts=retry_attempts)
            for i in range(n_members)
        ]
        self.primary_id = 0
        #: Current primary term; bumped (and fenced) at every promotion.
        self.epoch = 1
        #: Highest LSN the group has acknowledged to a client.
        self.acked_lsn = 0
        #: New primary's applied LSN at the last promotion — the point
        #: beyond which the old primary's log is divergent.
        self.fence_lsn = 0
        self.stats = GroupStats()

    def _engine(self, device_plan) -> BlobDB:
        """A member's engine on its own clock and the group's price list.

        With ``device_plan``, every distinct device of the placement is
        fault-wrapped: PMem/stripe tiers fault independently, aliases
        stay shared.
        """
        model = CostModel(self.model.params)
        storage = build_storage(self.config, model)
        if device_plan is not None:
            storage = storage.map(lambda dev: FaultyNVMe(dev, device_plan))
        db = BlobDB(config=self.config, device=storage, model=model)
        db.create_table(self.table)
        return db

    # -- membership helpers --------------------------------------------------

    @property
    def primary(self) -> ReplicaMember:
        return self.members[self.primary_id]

    def replicas(self) -> list[ReplicaMember]:
        """Non-primary members, in member-id order (determinism)."""
        return [m for m in self.members if m.member_id != self.primary_id]

    def engines(self) -> list[BlobDB]:
        """The live members' engines, in member-id order."""
        return [m.db for m in self.members
                if m.alive and m.db is not None]

    def ship_retries(self) -> int:
        return sum(m.retry.stats.retries for m in self.members)

    def max_lag(self) -> int:
        lsn = self.primary.applied_lsn
        lags = [m.lag(lsn) for m in self.replicas() if m.alive]
        return max(lags) if lags else 0

    # -- WAL shipping --------------------------------------------------------

    def _ship(self, member: ReplicaMember, upto_lsn: int) -> bool:
        """Ship the primary's records up to ``upto_lsn`` to one member.

        Runs entirely on the member's clock: the link exchange per
        record, the member's apply work, and any retry backoff.  A
        member that misses earlier records catches the whole gap here —
        applies are strictly in LSN order, so every member's log is a
        prefix of the primary's (the property failover safety rests
        on).  Returns False when the link stayed down through every
        retry (the member lags; nothing was partially applied beyond a
        record boundary).
        """
        primary = self.primary
        src_epoch = self.epoch
        obs = self.model.obs

        def attempt() -> None:
            now = member.model.clock.now_ns
            if member.partitioned_until_ns > now:
                raise TransientNetworkError(
                    f"link to member {member.member_id} partitioned")
            if member.link_plan is not None:
                partition_ns = member.link_plan.draw_partition_ns()
                if partition_ns:
                    member.partitioned_until_ns = now + partition_ns
                    raise TransientNetworkError(
                        f"partition opened to member {member.member_id}")
                if member.link_plan.draw_network_fault():
                    raise TransientNetworkError(
                        f"ship to member {member.member_id} lost in flight")
            if src_epoch < member.epoch:
                raise StaleEpochError(
                    f"member {member.member_id} fenced epoch {src_epoch} "
                    f"(its epoch is {member.epoch})")
            member.epoch = max(member.epoch, src_epoch)
            while member.applied_lsn < upto_lsn:
                record = primary.history[member.applied_lsn
                                         - primary.history_base]
                member.transport.charge_exchange(
                    member.model, record.wire_bytes(), ACK_BYTES)
                member.apply(record)
                self.stats.records_shipped += 1
                if obs is not None:
                    obs.count("replica.records_shipped")

        try:
            member.retry.run(attempt)
        except RetriesExhaustedError:
            return False
        if obs is not None:
            obs.observe("replica.lag",
                        member.lag(self.primary.applied_lsn))
        return True

    def _trim_history(self) -> None:
        """Forget the records every live member has applied.

        Nothing replays them again: a lagging live member catches up
        from the primary's history, a crashed one rejoins by comparing
        state, not by replay.
        """
        floor = min([m.applied_lsn for m in self.members if m.alive])
        for member in self.members:
            if member.alive and member.history_base < floor:
                del member.history[:floor - member.history_base]
                member.history_base = floor

    # -- the write path ------------------------------------------------------

    def put(self, key: bytes, data: bytes) -> None:
        self._commit([("put", key, data)])

    def delete(self, key: bytes) -> None:
        self._commit([("delete", key, None)])

    def multiput(self, items: list[tuple[bytes, bytes]]) -> None:
        """Commit a batch in one primary transaction and one quorum
        wait: the batch is atomic on the primary, like a bare engine's
        transaction."""
        if items:
            self._commit([("put", key, data) for key, data in items])

    def _commit(self, ops: list[tuple], _failed_over: bool = False) -> None:
        """Execute ``(op, key, payload)`` ops on the primary in one
        transaction, ship them, and wait for the quorum once.

        The group clock advances by the primary's local commit time plus
        the quorum makespan — the ``(quorum - 1)``-th smallest successful
        replica delta.  Slower members still apply on their own clocks;
        they just never gate the acknowledgement (asynchronous tail).
        On quorum loss the controller promotes a reachable replica and
        re-executes once; if that is impossible the typed
        :class:`QuorumLostError` reports the write as unacknowledged.
        """
        primary = self.primary
        if not primary.alive:
            self._handle_quorum_loss(ops, _failed_over,
                                     reason="primary down")
            return
        start_primary = primary.model.clock.now_ns
        records = [ReplicationRecord(lsn=primary.applied_lsn + i,
                                     epoch=self.epoch, op=op, key=key,
                                     payload=payload)
                   for i, (op, key, payload) in enumerate(ops, 1)]
        primary.apply(*records)
        primary_delta = primary.model.clock.now_ns - start_primary
        lsn = records[-1].lsn

        replicas = [m for m in self.replicas() if m.alive]
        self.model.replica_ship(len(replicas) * len(records))
        ack_deltas: list[float] = []
        for member in replicas:
            start = member.model.clock.now_ns
            if self._ship(member, lsn):
                ack_deltas.append(member.model.clock.now_ns - start)
        if len(self.members) > 1:
            self.model.quorum_commit()

        need = self.quorum - 1
        ack_deltas.sort()
        if len(ack_deltas) < need:
            self.stats.quorum_losses += 1
            self._handle_quorum_loss(ops, _failed_over,
                                     reason=f"{len(ack_deltas)}/{need} acks")
            return
        quorum_wait = ack_deltas[need - 1] if need else 0.0
        self.model.clock.advance(primary_delta + quorum_wait)
        self.acked_lsn = lsn
        self.stats.acked_writes += len(records)
        self._trim_history()
        obs = self.model.obs
        if obs is not None:
            obs.count("replica.acked_writes", len(records))
            obs.observe("replica.quorum_makespan_ns", quorum_wait)

    def _handle_quorum_loss(self, ops, already_failed_over,
                            reason: str) -> None:
        """Quorum lost: promote a reachable replica and retry once."""
        if already_failed_over or not self.auto_failover:
            raise QuorumLostError(
                f"{self.name}: write not acknowledged ({reason})")
        self.failover()
        self._commit(ops, _failed_over=True)

    def _fence(self, src_epoch: int) -> None:
        """Authoritative-side epoch fence: reject stale-term shipments."""
        if src_epoch < self.epoch:
            raise StaleEpochError(
                f"{self.name}: ship from epoch {src_epoch} rejected, "
                f"group is at epoch {self.epoch}")

    # -- reads ----------------------------------------------------------------

    def _on_primary(self, op, *args):
        """Return ``op(primary engine, *args)``; the group clock pays."""
        primary = self.primary
        if not primary.alive:
            raise QuorumLostError(f"{self.name}: primary down")
        start = primary.model.clock.now_ns
        out = op(primary.db, *args)
        self.model.clock.advance(primary.model.clock.now_ns - start)
        return out

    def get(self, key: bytes, zero_copy: bool = False) -> bytes:
        """Linearizable read from the primary.

        ``zero_copy`` serves the bytes from the primary's aliasing view
        without a copy; the caller pays the one materializing copy.
        """
        return self._on_primary(view_bytes if zero_copy
                                else BlobDB.read_blob, self.table, key)

    def stat(self, key: bytes) -> int:
        return self._on_primary(
            lambda db: db.get_state(self.table, key).size)

    def scan(self, start: bytes | None = None,
             end: bytes | None = None) -> list[tuple[bytes, object]]:
        return self._on_primary(
            lambda db: list(db.scan(self.table, start, end)))

    def exists(self, key: bytes) -> bool:
        return self._on_primary(lambda db: db.exists(self.table, key))

    def read_any(self, key: bytes) -> bytes:
        """Read from the next member in rotation, with staleness
        accounting.

        The read rides the member's replication link (one priced
        exchange) and may observe a *stale* value — or a missing key —
        if the member lags the primary; the lag in records is counted
        and observed so staleness is a measured property, never a
        silent one.
        """
        candidates = [m for m in self.members if m.alive]
        if not candidates:
            raise QuorumLostError(f"{self.name}: no live members")
        member = candidates[self.stats.replica_reads % len(candidates)]
        self.stats.replica_reads += 1
        staleness = member.lag(self.primary.applied_lsn)
        if staleness:
            self.stats.stale_reads += 1
        obs = self.model.obs
        if obs is not None:
            obs.observe("replica.staleness", staleness)
        assert member.db is not None
        start = member.model.clock.now_ns
        data = member.db.read_blob(self.table, key)
        if member.member_id != self.primary_id:
            member.transport.charge_exchange(member.model, len(key),
                                             len(data))
        self.model.clock.advance(member.model.clock.now_ns - start)
        return data

    # -- convergence ----------------------------------------------------------

    def catch_up(self) -> None:
        """Drive every lagging live replica to the primary's LSN.

        Makespan-priced like any other fan-out; members whose links are
        still down simply remain lagging.
        """
        primary = self.primary
        makespan = 0.0
        for member in self.replicas():
            if not member.alive:
                continue
            start = member.model.clock.now_ns
            self._ship(member, primary.applied_lsn)
            makespan = max(makespan,
                           member.model.clock.now_ns - start)
        self.model.clock.advance(makespan)
        self._trim_history()

    def drain(self) -> None:
        """Settle the primary's commit window and converge replicas."""
        self._on_primary(BlobDB.drain_commit_window)
        self.catch_up()

    # -- failover controller ---------------------------------------------------

    def crash_primary(self, mid_record: tuple | None = None):
        """Kill the primary, optionally mid-batch, and promote.

        ``mid_record=(key, data, n_ships)`` models a crash *inside* a
        commit: the primary applies the record locally and ships it to
        only the first ``n_ships`` replicas, then dies before the quorum
        decision — so the record was never acknowledged.  After the
        promotion it either survives (a shipped copy reached the new
        primary) or vanishes as a divergent tail: all-or-nothing per
        record, never a torn value.  Returns the crashed device.
        """
        primary = self.primary
        assert primary.alive and primary.db is not None
        if mid_record is not None:
            key, data, n_ships = mid_record
            record = ReplicationRecord(lsn=primary.applied_lsn + 1,
                                       epoch=self.epoch, op="put", key=key,
                                       payload=data)
            primary.apply(record)
            for member in [m for m in self.replicas()
                           if m.alive][:n_ships]:
                self._ship(member, record.lsn)
        device = primary.db.crash()
        primary.device = device
        primary.db = None
        primary.alive = False
        primary.history = []
        self.stats.primary_crashes += 1
        if self.auto_failover:
            self.failover()
        return device

    def restart(self, device) -> None:
        """Re-seat a group of one on the engine recovered from ``device``
        (WAL replay on the device's clock); replicated groups restart
        through :meth:`crash_primary` and :meth:`rejoin` instead."""
        assert len(self.members) == 1, "not a group of one"
        db = BlobDB.recover(device, self.config, model=device.model)
        self.members = [ReplicaMember(0, db, self.table,
                                      self.primary.transport)]

    def failover(self) -> int:
        """Epoch-fenced promotion of the most-caught-up live replica.

        Deterministic election: the candidate with the highest applied
        LSN wins, ties broken by the lowest member id.  The new primary
        settles its commit window and fsyncs (its promotion record);
        surviving peers learn the new epoch over their links and catch
        up from the new primary's log.  The group clock advances by the
        makespan of promotion + announcements — the failover duration a
        client experiences as unavailability.  Returns the new primary
        id.
        """
        candidates = [m for m in self.replicas() if m.alive]
        if not candidates:
            raise QuorumLostError(
                f"{self.name}: no live replica to promote")
        new_primary = max(candidates,
                          key=lambda m: (m.applied_lsn, -m.member_id))
        self.epoch += 1
        self.fence_lsn = new_primary.applied_lsn
        assert new_primary.db is not None
        start_new = new_primary.model.clock.now_ns
        new_primary.db.drain_commit_window()
        new_primary.model.syscall("fdatasync")
        new_primary.epoch = self.epoch
        self.primary_id = new_primary.member_id
        makespan = new_primary.model.clock.now_ns - start_new
        for peer in candidates:
            if peer.member_id == new_primary.member_id:
                continue
            start = peer.model.clock.now_ns
            peer.transport.charge_exchange(peer.model, 32, ACK_BYTES)
            self._ship(peer, new_primary.applied_lsn)
            makespan = max(makespan, peer.model.clock.now_ns - start)
        self.model.clock.advance(makespan)
        self._trim_history()
        self.stats.failovers += 1
        self.stats.last_failover_ns = makespan
        obs = self.model.obs
        if obs is not None:
            obs.count("replica.failovers")
            obs.observe("replica.failover_ns", makespan)
        return new_primary.member_id

    def rejoin(self, member_id: int) -> dict:
        """Bring a crashed or deposed member back as a replica.

        Three fenced, priced steps:

        1. a crashed member first recovers its engine from its
           surviving device (per-member WAL replay, on its own clock);
        2. a member deposed while holding an older epoch *offers* its
           tail to the group and is rejected — the epoch fence — before
           accepting the authoritative state;
        3. divergent-tail truncation: every key whose content differs
           from the current primary (compared by Blob State SHA-256) is
           rolled back or overwritten, divergent inserts are deleted,
           and missing records are copied over the member's link.  No
           acknowledged write is touched: acknowledged records are, by
           quorum intersection, part of the authoritative log.

        Returns ``{"truncated": n, "resynced": n}``.
        """
        member = self.members[member_id]
        if member_id == self.primary_id:
            raise ValueError("the current primary cannot rejoin")
        primary = self.primary
        assert primary.db is not None
        start_member = member.model.clock.now_ns
        start_primary = primary.model.clock.now_ns
        if not member.alive:
            member.db = BlobDB.recover(member.device, self.config,
                                       model=member.model)
            member.device = None
            member.alive = True
        assert member.db is not None
        obs = self.model.obs
        if member.epoch < self.epoch:
            # The deposed member does not know it was deposed: it offers
            # the tip of its log and the primary fences it by epoch.
            member.transport.charge_exchange(member.model, 32, ACK_BYTES)
            try:
                self._fence(member.epoch)
            except StaleEpochError:
                self.stats.fenced_ships += 1
                if obs is not None:
                    obs.count("replica.fenced_ships")
        truncated = 0
        resynced = 0
        member_keys = {key for key, _ in member.db.scan(self.table)}
        auth_keys = {key for key, _ in primary.db.scan(self.table)}
        for key in sorted(member_keys - auth_keys):
            # Divergent insert: committed on the old primary past the
            # fence point, never acknowledged — truncated on rejoin.
            with member.db.transaction() as txn:
                member.db.delete_blob(txn, self.table, key)
            member.transport.charge_exchange(member.model, len(key),
                                            ACK_BYTES)
            truncated += 1
        for key in sorted(auth_keys):
            auth_sha = primary.db.get_state(self.table, key).sha256
            have = key in member_keys
            if have and member.db.get_state(self.table,
                                            key).sha256 == auth_sha:
                continue
            data = primary.db.read_blob(self.table, key)
            member.transport.charge_exchange(member.model,
                                             len(key) + len(data),
                                             ACK_BYTES)
            with member.db.transaction() as txn:
                if have:
                    member.db.delete_blob(txn, self.table, key)
                member.db.put_blob(txn, self.table, key, data)
            if have:
                truncated += 1
            else:
                resynced += 1
        member.history = list(primary.history)
        member.history_base = primary.history_base
        member.applied_lsn = primary.applied_lsn
        member.epoch = self.epoch
        member.partitioned_until_ns = 0.0
        self.model.clock.advance(max(
            member.model.clock.now_ns - start_member,
            primary.model.clock.now_ns - start_primary))
        self._trim_history()
        self.stats.rejoins += 1
        self.stats.truncated_records += truncated
        self.stats.resynced_records += resynced
        if obs is not None:
            obs.count("replica.rejoins")
            obs.count("replica.truncated_records", truncated)
        return {"truncated": truncated, "resynced": resynced}

    # -- introspection ---------------------------------------------------------

    def stats_report(self) -> EngineReport:
        """Aggregate member engines plus the group's replication line."""
        agg = EngineReport(
            replica_groups=1,
            replica_members=len(self.members),
            replica_quorum=self.quorum,
            replica_epoch=self.epoch,
            replica_acked_writes=self.stats.acked_writes,
            replica_records_shipped=self.stats.records_shipped,
            replica_ship_retries=self.ship_retries(),
            replica_failovers=self.stats.failovers,
            replica_rejoins=self.stats.rejoins,
            replica_fenced_ships=self.stats.fenced_ships,
            replica_truncated_records=self.stats.truncated_records,
            replica_max_lag_records=self.max_lag(),
            replica_stale_reads=self.stats.stale_reads,
        )
        engines = self.engines()
        for db in engines:
            agg.accumulate(db.stats_report())
        agg.recompute_ratios(engines)
        agg.simulated_seconds = self.model.clock.now_s
        return agg
