"""K-way striping over independent simulated NVMe devices.

"DuckDB on xNVMe" (PAPERS.md) locates the other half of real NVMe
throughput in keeping *multiple independent device queues* full; one
simulated device per shard serializes what real deployments spread over
several drives.  :class:`StripedDevice` reproduces the multi-queue win
deterministically:

* the logical page space is chunked into ``stripe_pages``-page stripe
  units assigned round-robin to ``n_devices`` members, each a full
  :class:`~repro.storage.device.SimulatedNVMe` with its **own**
  :class:`~repro.sim.cost.CostModel` (its own clock and SQ/CQ queue —
  the per-device cost channel);
* a batch ``submit`` splits every request at stripe boundaries, hands
  each member its fragment batch, and advances the parent clock by the
  **makespan** (the slowest member), so member queues drain in parallel
  exactly like the sharded engine's gather;
* stats, protection information, and fault accounting are unioned over
  members; ``verify_range`` maps member-local damage back to logical
  pids, so a fault injected into one member quarantines only that
  stripe's pages.

``n_devices=1`` degenerates to a transparent pass-through sharing the
parent model — byte-identical (bytes, stats, virtual time) to a bare
``SimulatedNVMe``, which the capability tests pin down.
"""

from __future__ import annotations

from repro.sim.cost import CostModel
from repro.storage.device import (
    CapabilityError,
    DeviceCapabilities,
    DeviceFull,
    DeviceStats,
    IntegrityStats,
    IoRequest,
    SimulatedNVMe,
    _npages,
    check_write_unit,
)


class StripedDevice:
    """One logical page device striped across K member devices."""

    def __init__(self, model: CostModel, capacity_pages: int,
                 page_size: int = 4096, protect: bool = True,
                 n_devices: int = 2, stripe_pages: int = 64,
                 fault_factory=None) -> None:
        if capacity_pages <= 0 or page_size <= 0:
            raise ValueError("capacity and page size must be positive")
        if n_devices < 1:
            raise ValueError("striping needs at least one device")
        if stripe_pages < 1:
            raise ValueError("stripe unit must be at least one page")
        self.model = model
        self.capacity_pages = capacity_pages
        self.page_size = page_size
        self.protect = protect
        self.n_devices = n_devices
        #: Stripe unit in pages; the I/O scheduler reads this attribute
        #: to keep coalesced runs inside one stripe chunk.
        self.stripe_pages = stripe_pages
        chunks = (capacity_pages + stripe_pages - 1) // stripe_pages
        member_chunks = (chunks + n_devices - 1) // n_devices
        member_capacity = max(1, member_chunks) * stripe_pages
        self.members = []
        for i in range(n_devices):
            # K=1 shares the parent model (true pass-through); K>1 gives
            # each member its own clock so queues drain independently.
            member_model = model if n_devices == 1 \
                else CostModel(model.params)
            member = SimulatedNVMe(member_model,
                                   capacity_pages=member_capacity,
                                   page_size=page_size, protect=protect)
            if fault_factory is not None:
                from repro.storage.faults import FaultyNVMe
                member = FaultyNVMe(member,
                                    fault_factory.plan_for(f"stripe{i}"))
            self.members.append(member)

    @property
    def capabilities(self) -> DeviceCapabilities:
        return DeviceCapabilities(
            kind="striped", byte_addressable=False,
            queue_depth=self.model.params.ssd_queue_depth,
            stripe_width=self.n_devices,
            write_unit=self.members[0].capabilities.write_unit)

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_pages * self.page_size

    @property
    def stats(self) -> DeviceStats:
        return DeviceStats.merge(m.stats for m in self.members)

    @property
    def integrity(self) -> IntegrityStats:
        return IntegrityStats.merge(m.integrity for m in self.members)

    @property
    def fault_stats(self):
        """Union of member fault accounting (fault-wrapped members only)."""
        stats = [m.fault_stats for m in self.members
                 if hasattr(m, "fault_stats")]
        if not stats:
            return None
        total = type(stats[0])()
        for part in stats:
            for name in vars(part):
                setattr(total, name, getattr(total, name)
                        + getattr(part, name))
        return total

    # -- address mapping ------------------------------------------------------

    def _check_range(self, pid: int, npages: int) -> None:
        if pid < 0 or npages <= 0:
            raise ValueError(f"bad I/O range pid={pid} npages={npages}")
        if pid + npages > self.capacity_pages:
            raise DeviceFull(
                f"I/O [{pid}, {pid + npages}) beyond capacity "
                f"{self.capacity_pages} pages")

    def _fragments(self, pid: int, npages: int):
        """Yield ``(member, member_pid, npages, page_offset)`` splits.

        Logical stripe chunk ``c`` lives on member ``c % K`` at member
        chunk ``c // K``; a request is split wherever it crosses a
        chunk boundary.
        """
        off = 0
        while off < npages:
            chunk, in_chunk = divmod(pid + off, self.stripe_pages)
            member = chunk % self.n_devices
            member_pid = (chunk // self.n_devices) * self.stripe_pages \
                + in_chunk
            take = min(self.stripe_pages - in_chunk, npages - off)
            yield member, member_pid, take, off
            off += take

    def _to_logical(self, member: int, member_pid: int) -> int:
        member_chunk, in_chunk = divmod(member_pid, self.stripe_pages)
        chunk = member_chunk * self.n_devices + member
        return chunk * self.stripe_pages + in_chunk

    # -- I/O ------------------------------------------------------------------

    def write(self, pid: int, data: bytes, category: str = "data",
              background: bool = False) -> None:
        npages = _npages(data, self.page_size)
        self._check_range(pid, npages)
        if self.n_devices == 1:
            self.members[0].write(pid, data, category=category,
                                  background=background)
            return
        self.submit([IoRequest(pid=pid, npages=npages, data=data,
                               category=category)], background=background)

    def read(self, pid: int, npages: int, verify: bool = True) -> bytes:
        self._check_range(pid, npages)
        if self.n_devices == 1:
            return self.members[0].read(pid, npages, verify=verify)
        result = self.submit([IoRequest(pid=pid, npages=npages)],
                             verify=verify)[0]
        assert result is not None
        return result

    def submit(self, requests: list[IoRequest],
               background: bool = False,
               verify: bool = True,
               queue_depth: int | None = None) -> list[bytes | None]:
        """Scatter a batch over member queues; price the makespan.

        Each member executes its fragment batch on its own clock; the
        parent clock advances by the slowest member's elapsed time —
        per-device SQ/CQ draining, not serialized waves.
        """
        if not requests:
            return []
        for req in requests:
            self._check_range(req.pid, req.npages)
        if self.n_devices == 1:
            return self.members[0].submit(requests, background=background,
                                          verify=verify,
                                          queue_depth=queue_depth)
        ps = self.page_size
        per_member: dict[int, list[IoRequest]] = {}
        frag_map: list[list[tuple[int, int]]] = []
        n_fragments = 0
        for req in requests:
            frags: list[tuple[int, int]] = []
            for member, member_pid, take, off in self._fragments(
                    req.pid, req.npages):
                if req.is_write:
                    assert req.data is not None
                    sub = IoRequest(pid=member_pid, npages=take,
                                    data=req.data[off * ps:(off + take) * ps],
                                    category=req.category)
                else:
                    sub = IoRequest(pid=member_pid, npages=take)
                queue = per_member.setdefault(member, [])
                frags.append((member, len(queue)))
                queue.append(sub)
                n_fragments += 1
            frag_map.append(frags)
        results_by_member: dict[int, list[bytes | None]] = {}
        makespan = 0.0
        for member_id in sorted(per_member):
            member = self.members[member_id]
            start = member.model.clock.now_ns
            results_by_member[member_id] = member.submit(
                per_member[member_id], background=background, verify=verify,
                queue_depth=queue_depth)
            makespan = max(makespan,
                           member.model.clock.now_ns - start)
        if makespan > 0.0:
            self.model.clock.advance(makespan)
            self.model.io_time_ns += makespan
        obs = self.model.obs
        if obs is not None:
            obs.count("stripe.fragments", n_fragments)
            obs.observe("stripe.makespan_ns", makespan)
        results: list[bytes | None] = []
        for req, frags in zip(requests, frag_map):
            if req.is_write:
                results.append(None)
            else:
                parts = [results_by_member[m][i] for m, i in frags]
                results.append(b"".join(p for p in parts
                                        if p is not None))
        return results

    def write_bytes(self, offset: int, data: bytes, category: str = "wal",
                    background: bool = False) -> None:
        """Unit-aligned sub-page write, split at stripe-chunk boundaries."""
        if self.n_devices == 1:
            self.members[0].write_bytes(offset, data, category=category,
                                        background=background)
            return
        check_write_unit(self, offset, len(data))
        if not data:
            return
        ps = self.page_size
        first = offset // ps
        npages = (offset + len(data) - 1) // ps - first + 1
        self._check_range(first, npages)
        makespan = 0.0
        for member_id, member_pid, take, off in self._fragments(first,
                                                                npages):
            lo = max(offset, (first + off) * ps)
            hi = min(offset + len(data), (first + off + take) * ps)
            member = self.members[member_id]
            start = member.model.clock.now_ns
            member.write_bytes(member_pid * ps + lo - (first + off) * ps,
                               data[lo - offset:hi - offset],
                               category=category, background=background)
            makespan = max(makespan, member.model.clock.now_ns - start)
        if makespan > 0.0:
            self.model.clock.advance(makespan)
            self.model.io_time_ns += makespan

    def read_bytes(self, offset: int, nbytes: int) -> bytes:
        raise CapabilityError(
            "StripedDevice is block-addressable: byte-granular reads "
            "need a byte-addressable device")

    # -- protection information ------------------------------------------------

    def check_page(self, pid: int) -> bool:
        self._check_range(pid, 1)
        for member, member_pid, _take, _off in self._fragments(pid, 1):
            return self.members[member].check_page(member_pid)
        return True

    def verify_range(self, pid: int, npages: int) -> list[int]:
        """Member-local CRC audit mapped back to *logical* pids.

        Damage injected into one member therefore surfaces as exactly
        that member's stripe chunks — the quarantine stays per stripe.
        """
        self._check_range(pid, npages)
        bad: list[int] = []
        for member_id, member_pid, take, _off in self._fragments(pid,
                                                                 npages):
            member = self.members[member_id]
            start = member.model.clock.now_ns
            member_bad = member.verify_range(member_pid, take)
            if self.n_devices > 1:
                # CRC auditing is serial CPU work: sum, not makespan.
                self.model.clock.advance(
                    member.model.clock.now_ns - start)
            bad.extend(self._to_logical(member_id, p) for p in member_bad)
        return sorted(bad)

    def peek(self, pid: int, npages: int = 1) -> bytes:
        self._check_range(pid, npages)
        return b"".join(
            self.members[m].peek(mpid, take)
            for m, mpid, take, _off in self._fragments(pid, npages))

    def _poke(self, pid: int, data: bytes) -> None:
        """Raw fault-injection splice, fanned out to the owning members."""
        ps = self.page_size
        npages = (len(data) + ps - 1) // ps
        for member, member_pid, take, off in self._fragments(pid, npages):
            self.members[member]._poke(
                member_pid, data[off * ps:(off + take) * ps])

    def resident_pages(self) -> int:
        return sum(m.resident_pages() for m in self.members)
