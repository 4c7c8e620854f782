"""Deterministic fault injection for the simulated storage stack.

Three pieces turn the repro from "correct on a perfect disk" into an
engine whose failure envelope is itself measured and tested:

* :class:`FaultPlan` — a seeded schedule deciding, per device operation,
  whether to inject a torn write, a silent bit flip, a transient
  ``DeviceIOError``, or a latency spike.  The schedule is a pure
  function of the seed and the operation sequence, so a failing run
  replays byte-identically from its seed.
* :class:`FaultyNVMe` — a wrapper composing with
  :class:`~repro.storage.device.SimulatedNVMe` (or the out-of-place
  :class:`~repro.storage.remap.RemappedDevice`): any existing test or
  benchmark runs under faults unchanged.  Corruption is applied *below*
  the device's protection information — the stored bytes diverge from
  their recorded CRCs exactly as real torn writes and bit rot diverge
  from NVMe end-to-end protection metadata.
* :class:`RetryPolicy` — bounded retry with exponential backoff, driven
  by the virtual clock so retried runs remain fully deterministic.
  Retries fire only on :class:`~repro.db.errors.TransientError`;
  persistent corruption is never retried blindly.

The Sears & van Ingen line of work ("To BLOB or Not To BLOB",
"Fragmentation in Large Object Repositories") shows BLOB stores degrade
precisely under such storage-level misbehaviour; this module makes that
misbehaviour a first-class, reproducible test input.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, fields, replace

from repro.db.errors import DeviceIOError, RetriesExhaustedError, TransientError
from repro.storage.device import IoRequest, check_write_unit


@dataclass(frozen=True)
class FaultSpec:
    """Rates and bounds of a fault schedule (all probabilities per op)."""

    seed: int = 0
    #: Probability that a write request lands only a prefix (torn at a
    #: uniformly drawn byte, possibly mid-page).
    torn_write: float = 0.0
    #: Probability that one bit of one written page flips at rest.
    bit_flip: float = 0.0
    #: Probability that a device operation fails with ``DeviceIOError``.
    transient_error: float = 0.0
    #: Probability that an operation stalls for ``latency_spike_ns``.
    latency_spike: float = 0.0
    #: Probability that a network exchange is lost (remote store only).
    network_error: float = 0.0
    #: Probability that a network exchange opens a *partition*: the link
    #: stays dead for a drawn duration instead of losing one exchange.
    partition: float = 0.0
    #: A transient burst never exceeds this many consecutive failures,
    #: so any retry policy with more attempts is guaranteed to succeed.
    max_consecutive_transients: int = 2
    latency_spike_ns: float = 2_000_000.0
    #: Upper bound of a drawn partition duration; the draw is uniform in
    #: ``[partition_max_ns / 2, partition_max_ns]`` so partitions are
    #: never degenerate one-exchange blips.
    partition_max_ns: float = 8_000_000.0

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "seed" and isinstance(v, float) and v:
                parts.append(f"{f.name}={v:g}")
        return " ".join(parts)


@dataclass
class FaultStats:
    """What a plan actually injected (deterministic given the run)."""

    torn_writes: int = 0
    bit_flips: int = 0
    transient_errors: int = 0
    latency_spikes: int = 0
    network_errors: int = 0
    partitions: int = 0

    @property
    def total(self) -> int:
        return (self.torn_writes + self.bit_flips + self.transient_errors
                + self.latency_spikes + self.network_errors
                + self.partitions)

    def as_dict(self) -> dict[str, int]:
        return {
            "torn_writes": self.torn_writes,
            "bit_flips": self.bit_flips,
            "transient_errors": self.transient_errors,
            "latency_spikes": self.latency_spikes,
            "network_errors": self.network_errors,
            "partitions": self.partitions,
        }


class FaultPlan:
    """Seeded, order-deterministic fault schedule.

    Every decision consumes draws from one ``random.Random(seed)`` in a
    fixed per-operation order, so two runs issuing the same operation
    sequence against plans with the same spec inject identical faults.
    """

    def __init__(self, spec: FaultSpec | None = None, **overrides) -> None:
        self.spec = spec or FaultSpec(**overrides)
        if spec is not None and overrides:
            raise ValueError("pass a FaultSpec or keyword rates, not both")
        self._rng = random.Random(self.spec.seed)
        self.stats = FaultStats()
        self._consecutive_transients = 0
        self._consecutive_network = 0

    # -- per-operation draws ------------------------------------------------

    def draw_transient(self) -> bool:
        """One draw per device operation; bursts are capped."""
        if self.spec.transient_error <= 0.0:
            return False
        hit = self._rng.random() < self.spec.transient_error
        if hit and self._consecutive_transients \
                < self.spec.max_consecutive_transients:
            self._consecutive_transients += 1
            self.stats.transient_errors += 1
            return True
        self._consecutive_transients = 0
        return False

    def draw_network_fault(self) -> bool:
        """One draw per request/response exchange; bursts are capped."""
        if self.spec.network_error <= 0.0:
            return False
        hit = self._rng.random() < self.spec.network_error
        if hit and self._consecutive_network \
                < self.spec.max_consecutive_transients:
            self._consecutive_network += 1
            self.stats.network_errors += 1
            return True
        self._consecutive_network = 0
        return False

    def draw_latency_spike_ns(self) -> float:
        if self.spec.latency_spike <= 0.0:
            return 0.0
        if self._rng.random() < self.spec.latency_spike:
            self.stats.latency_spikes += 1
            return self.spec.latency_spike_ns
        return 0.0

    def draw_partition_ns(self) -> float:
        """Duration of a network partition opening at this exchange.

        Returns 0.0 for a healthy exchange.  A non-zero draw means the
        link goes dead *now* and stays dead for the returned number of
        simulated nanoseconds — callers (the replica WAL-shipping links)
        fail every exchange until their clock passes the deadline,
        modelling a partition rather than independent losses.  The
        duration is drawn uniformly from the upper half of
        ``partition_max_ns`` so a partition always outlives at least one
        retry backoff.
        """
        if self.spec.partition <= 0.0:
            return 0.0
        if self._rng.random() < self.spec.partition:
            self.stats.partitions += 1
            return self.spec.partition_max_ns * self._rng.uniform(0.5, 1.0)
        return 0.0

    def draw_fault_index(self, n_requests: int) -> int:
        """Index of the request a transient batch failure lands on.

        Requests ahead of the drawn index have already completed when
        the error surfaces; the failing request and everything queued
        behind it never reach the device.  Single-request operations
        consume no extra draw, preserving the schedule of plans written
        before batch-position faults existed.
        """
        if n_requests <= 1:
            return 0
        return self._rng.randrange(n_requests)

    def draw_torn_byte(self, nbytes: int) -> int | None:
        """Byte offset at which a write tears, or None for a clean write."""
        if self.spec.torn_write <= 0.0:
            return None
        if self._rng.random() < self.spec.torn_write:
            self.stats.torn_writes += 1
            return self._rng.randrange(nbytes)
        return None

    def draw_bit_flip(self, npages: int, page_size: int) \
            -> tuple[int, int] | None:
        """(page index, bit index) to flip in a write, or None."""
        if self.spec.bit_flip <= 0.0:
            return None
        if self._rng.random() < self.spec.bit_flip:
            self.stats.bit_flips += 1
            return (self._rng.randrange(npages),
                    self._rng.randrange(page_size * 8))
        return None


def derive_seed(base_seed: int, target: str) -> int:
    """Stable per-target sub-seed of one base seed.

    A Knuth multiplicative mix of the base seed with a CRC32 of the
    target name: pure arithmetic, so the derived seed is identical
    across processes and Python versions (unlike ``hash()``), and
    distinct targets get decorrelated streams.
    """
    return (base_seed * 2654435761 + zlib.crc32(target.encode("utf-8"))) \
        % (1 << 32)


class FaultPlanFactory:
    """Derives one independent :class:`FaultPlan` per named target.

    A replica group needs a *separate* schedule per member device and
    per shipping link — sharing one plan would entangle the draw order
    of unrelated members, so adding a replica would reshuffle every
    other member's faults.  The factory gives each target its own
    ``random.Random`` seeded by :func:`derive_seed`, so every member's
    schedule is a pure function of ``(base seed, target name)`` and the
    whole group remains digest-reproducible from the one base seed.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        #: Plans handed out so far, by target name (insertion order).
        self.plans: dict[str, FaultPlan] = {}

    def plan_for(self, target: str) -> FaultPlan:
        """The target's plan (created on first use, then stable)."""
        plan = self.plans.get(target)
        if plan is None:
            plan = FaultPlan(replace(
                self.spec, seed=derive_seed(self.spec.seed, target)))
            self.plans[target] = plan
        return plan

    def stats(self) -> FaultStats:
        """Aggregate injected-fault counters across every target."""
        total = FaultStats()
        for plan in self.plans.values():
            for name, value in plan.stats.as_dict().items():
                setattr(total, name, getattr(total, name) + value)
        return total


class FaultyNVMe:
    """Device wrapper injecting the plan's faults below the engine.

    Composes with any device exposing the :class:`SimulatedNVMe`
    interface plus the raw ``peek``/``_poke`` hooks.  Transient errors
    and latency spikes fire *before* the inner operation (a retry sees a
    fresh draw); torn writes and bit flips silently mutate the stored
    bytes *after* it, leaving the recorded protection CRCs describing
    the data the engine intended to write.
    """

    #: State-carrying inner methods forwarded through a fault-accounting
    #: shim rather than verbatim.  These are the ``crash()``/
    #: ``snapshot()``-style operations an engine calls *around* plain
    #: I/O — trimming freed extents at commit, CRC-scanning a region
    #: during recovery or scrub.  A verbatim passthrough would let a
    #: "faulty" device behave perfectly on exactly the paths that decide
    #: whether a crashed-then-recovered engine is healthy; the shim
    #: keeps the plan's draw sequence and latency-spike accounting
    #: running.  (They stay infallible — no injected ``DeviceIOError`` —
    #: because recovery scans them without a retry loop by design.)
    _ACCOUNTED_STATE_METHODS = frozenset({"trim", "verify_range",
                                          "check_page"})

    def __init__(self, inner, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan

    @property
    def fault_stats(self) -> FaultStats:
        return self.plan.stats

    def __getattr__(self, name: str):
        # Guard: during unpickle/copy, attribute lookups can arrive
        # before ``inner`` exists in the instance dict; delegating the
        # lookup of ``inner`` itself would recurse forever.
        if name in ("inner", "plan"):
            raise AttributeError(name)
        attr = getattr(self.inner, name)
        if name in self._ACCOUNTED_STATE_METHODS and callable(attr):
            def forward(*args, _method=attr, **kwargs):
                spike = self.plan.draw_latency_spike_ns()
                if spike:
                    self.inner.model.clock.advance(spike)
                return _method(*args, **kwargs)
            forward.__name__ = name
            return forward
        return attr

    # -- faulted I/O ---------------------------------------------------------

    def _pre_op(self) -> None:
        if self.plan.draw_transient():
            raise DeviceIOError("injected transient device error")
        spike = self.plan.draw_latency_spike_ns()
        if spike:
            self.inner.model.clock.advance(spike)

    def write(self, pid: int, data: bytes, category: str = "data",
              background: bool = False) -> None:
        npages = len(data) // self.inner.page_size
        self.submit([IoRequest(pid=pid, npages=npages, data=data,
                               category=category)], background=background)

    def read(self, pid: int, npages: int, verify: bool = True) -> bytes:
        self._pre_op()
        return self.inner.read(pid, npages, verify=verify)

    def submit(self, requests: list[IoRequest],
               background: bool = False,
               verify: bool = True,
               queue_depth: int | None = None) -> list[bytes | None]:
        if self.plan.draw_transient():
            # A queued batch does not fail atomically: the error surfaces
            # on request k, after requests [0, k) completed and before
            # [k, n) were issued.  The prefix is applied verbatim (its
            # own torn/flip draws happen on the retry that rewrites it).
            k = self.plan.draw_fault_index(len(requests))
            if k:
                self.inner.submit(requests[:k], background=background,
                                  verify=verify, queue_depth=queue_depth)
            raise DeviceIOError(
                f"injected transient device error at request {k}")
        spike = self.plan.draw_latency_spike_ns()
        if spike:
            self.inner.model.clock.advance(spike)
        ps = self.inner.page_size
        damage: list[tuple[int, bytes]] = []
        flips: list[tuple[int, int]] = []
        for req in requests:
            if not req.is_write:
                continue
            assert req.data is not None
            torn_at = self.plan.draw_torn_byte(len(req.data))
            if torn_at is not None:
                # Pages past the tear keep their old content; the page
                # containing the tear is spliced new-prefix/old-suffix.
                pre = self.inner.peek(req.pid, req.npages)
                page, in_page = divmod(torn_at, ps)
                image = req.data[page * ps:page * ps + in_page] \
                    + pre[page * ps + in_page:]
                damage.append((req.pid + page, image))
            flip = self.plan.draw_bit_flip(req.npages, ps)
            if flip is not None:
                flips.append((req.pid + flip[0], flip[1]))
        results = self.inner.submit(requests, background=background,
                                    verify=verify, queue_depth=queue_depth)
        for pid, image in damage:
            self.inner._poke(pid, image)
        for pid, bit in flips:
            page = bytearray(self.inner.peek(pid, 1))
            page[bit // 8] ^= 1 << (bit % 8)
            self.inner._poke(pid, bytes(page))
        return results

    def write_bytes(self, offset: int, data: bytes, category: str = "wal",
                    background: bool = False) -> None:
        """Faulted sub-page write (sector append or PMem byte append).

        A torn write lands a prefix (the suffix keeps its pre-image, CRCs
        diverging like a torn block write); a bit flip hits the written
        range.  An unaligned range raises before any fault draw.
        """
        check_write_unit(self.inner, offset, len(data))
        self._pre_op()
        if not data:
            return
        torn_at = self.plan.draw_torn_byte(len(data))
        flip = self.plan.draw_bit_flip(1, len(data))
        pre_suffix = None
        if torn_at is not None:
            pre_suffix = self._peek_bytes(offset + torn_at,
                                          len(data) - torn_at)
        self.inner.write_bytes(offset, data, category=category,
                               background=background)
        if pre_suffix is not None:
            self._poke_bytes(offset + torn_at, pre_suffix)
        if flip is not None:
            _page, bit = flip
            byte = bytearray(self._peek_bytes(offset + bit // 8, 1))
            byte[0] ^= 1 << (bit % 8)
            self._poke_bytes(offset + bit // 8, bytes(byte))

    def _peek_bytes(self, offset: int, nbytes: int) -> bytes:
        ps = self.inner.page_size
        first = offset // ps
        raw = self.inner.peek(first, (offset + nbytes - 1) // ps - first + 1)
        return raw[offset - first * ps:offset - first * ps + nbytes]

    def _poke_bytes(self, offset: int, data: bytes) -> None:
        """Raw byte splice *without* refreshing protection CRCs.

        The byte-granular analogue of ``_poke``: composes page images
        through ``peek`` so the stored bytes diverge from the CRCs the
        clean append recorded — which is what makes the damage
        detectable.
        """
        ps = self.inner.page_size
        pos = 0
        while pos < len(data):
            pid, byte_off = divmod(offset + pos, ps)
            take = min(ps - byte_off, len(data) - pos)
            page = bytearray(self.inner.peek(pid, 1))
            page[byte_off:byte_off + take] = data[pos:pos + take]
            self.inner._poke(pid, bytes(page))
            pos += take


# -- deterministic bounded retry ---------------------------------------------


@dataclass
class RetryStats:
    operations: int = 0
    retries: int = 0
    exhausted: int = 0
    backoff_ns: float = 0.0


class RetryPolicy:
    """Bounded retry with exponential backoff on the virtual clock.

    ``attempts`` counts total tries; backoff between try *i* and *i+1*
    is ``base_delay_ns * multiplier**i``, advanced on the shared virtual
    clock (the worker sleeps, it does not burn CPU).  Only
    :class:`TransientError` is retried; when the budget is exhausted the
    last fault is wrapped in :class:`RetriesExhaustedError` — graceful
    degradation as a typed error, never a hang or a bare exception.
    """

    def __init__(self, model, attempts: int = 4,
                 base_delay_ns: float = 50_000.0,
                 multiplier: float = 2.0) -> None:
        if attempts < 1:
            raise ValueError("retry policy needs at least one attempt")
        self.model = model
        self.attempts = attempts
        self.base_delay_ns = base_delay_ns
        self.multiplier = multiplier
        self.stats = RetryStats()

    def run(self, op):
        """Execute ``op()`` under the policy and return its result."""
        self.stats.operations += 1
        delay = self.base_delay_ns
        for attempt in range(self.attempts):
            try:
                return op()
            except TransientError as fault:
                if attempt == self.attempts - 1:
                    self.stats.exhausted += 1
                    raise RetriesExhaustedError(
                        f"{fault} (after {self.attempts} attempts)"
                    ) from fault
                self.stats.retries += 1
                self.stats.backoff_ns += delay
                self.model.clock.advance(delay)
                delay *= self.multiplier
        raise AssertionError("unreachable")
