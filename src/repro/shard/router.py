"""Deterministic hash routing of keys to shards.

The router is the only component that sees the whole keyspace: it maps
each key to a shard by content hash (the same SHA-256 family the engine
already uses for BLOB digests, :mod:`repro.core.hashing`), so the
assignment is a pure function of the key bytes — identical across runs,
processes, and shard counts that agree.  Routing work is priced on the
*router's* cost model: the per-key hash + bucket math via
:meth:`~repro.sim.cost.CostModel.shard_route`, and a per-shard scatter
charge via :meth:`~repro.sim.cost.CostModel.shard_fanout` when a batch
fans out.  :meth:`ShardRouter.gather` prices every scatter-gather the
way the device layer prices overlapped NVMe commands: each participant
runs on its own clock and the router's clock advances by the slowest
one (the *makespan*), not the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.hashing import new_hasher
from repro.sim.cost import CostModel


def shard_index(key: bytes, n_shards: int, hasher_kind: str = "fast") -> int:
    """Shard id of ``key`` among ``n_shards``: a pure function of its bytes."""
    digest = new_hasher(hasher_kind, key).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


@dataclass
class RouterStats:
    """Cumulative routing counters (the balance picture)."""

    routed_keys: int = 0
    fanout_batches: int = 0
    #: Keys routed to each shard, indexed by shard id.
    per_shard_keys: list[int] = field(default_factory=list)

    def imbalance(self) -> float:
        """Max-over-mean ratio of per-shard key counts.

        1.0 is a perfectly balanced keyspace; a Zipf-skewed workload on
        few shards drives this up.  Guarded: with fewer than two shards
        or no routed keys there is no balance to speak of, so the ratio
        is reported as 0.0 rather than dividing by the shard count.
        """
        if len(self.per_shard_keys) < 2 or not self.routed_keys:
            return 0.0
        mean = self.routed_keys / len(self.per_shard_keys)
        return max(self.per_shard_keys) / mean if mean else 0.0


class ShardRouter:
    """Routes keys to one of ``n_shards`` buckets, charging the model."""

    def __init__(self, n_shards: int, model: CostModel,
                 hasher_kind: str = "fast") -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        self.model = model
        self.hasher_kind = hasher_kind
        self.stats = RouterStats(per_shard_keys=[0] * n_shards)

    def shard_of(self, key: bytes) -> int:
        """Deterministic shard id for ``key`` (pure function of bytes)."""
        self.model.shard_route(len(key))
        shard = shard_index(key, self.n_shards, self.hasher_kind)
        self.stats.routed_keys += 1
        self.stats.per_shard_keys[shard] += 1
        if self.model.obs is not None:
            self.model.obs.count("shard.requests", shard=str(shard))
        return shard

    def partition(self, keys: list[bytes]) -> dict[int, list[tuple[int, bytes]]]:
        """Split ``keys`` into per-shard sub-batches.

        Each sub-batch entry keeps the key's position in the original
        batch so scatter-gather results can be stitched back in request
        order.  The returned dict's iteration order is insertion order
        (first key seen for each shard) — callers that must be
        deterministic iterate shards in sorted order.
        """
        parts: dict[int, list[tuple[int, bytes]]] = {}
        for pos, key in enumerate(keys):
            parts.setdefault(self.shard_of(key), []).append((pos, key))
        return parts

    def charge_fanout(self, n_sub_batches: int) -> None:
        """Charge the scatter cost of one fan-out batch."""
        self.model.shard_fanout(n_sub_batches)
        self.stats.fanout_batches += 1
        if self.model.obs is not None:
            self.model.obs.count("shard.fanout")
            self.model.obs.observe("shard.fanout_width", n_sub_batches)

    def run_each(self, ids, clock_of, runner) -> list:
        """Run ``runner(pid)`` for each participant, in sorted id order
        (determinism), and return each one's elapsed time on its own
        clock ``clock_of(pid)``; charges nothing to the router."""
        elapsed = []
        for pid in sorted(ids):
            clock = clock_of(pid)
            start_ns = clock.now_ns
            runner(pid)
            elapsed.append(clock.now_ns - start_ns)
        return elapsed

    def gather(self, ids, clock_of, runner) -> float:
        """Scatter to the participants ``ids``; advance by the makespan.

        Charges the fan-out, runs the participants through
        :meth:`run_each` and advances the router's clock by the maximum
        elapsed time — the scatter-gather latency a client observes.
        Returns the makespan.
        """
        ids = sorted(ids)
        self.charge_fanout(len(ids))
        elapsed = self.run_each(ids, clock_of, runner)
        makespan = max([0, *elapsed])
        obs = self.model.obs
        if obs is not None:
            for pid, ns in zip(ids, elapsed):
                obs.observe(f"shard.s{pid}.batch_ns", ns)
            obs.observe("shard.makespan_ns", makespan)
            obs.observe("shard.imbalance", int(self.stats.imbalance() * 1000))
        self.model.clock.advance(makespan)
        return makespan
