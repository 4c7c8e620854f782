"""Transport cost profiles.

Round-trip latencies and per-byte costs follow published measurements
for the four transports the paper's Related Work discusses (Fent et al.
[89] compare exactly these):

* **TCP over Ethernet** — kernel stack both sides, interrupt + copy:
  ~30 µs round trip, ~10 GbE wire (0.8 ns/B effective).
* **Unix-domain socket** — same-machine kernel path: ~24 µs round trip
  (the figure the DBMS baselines pay in Fig. 5/6), memory-speed payload.
* **RDMA** — kernel bypass, one-sided verbs: ~3 µs round trip,
  ~100 Gb/s (0.08 ns/B), no CPU serialization on the passive side.
* **Shared memory** — a cache-coherent mailbox: ~0.6 µs round trip,
  payloads move at memcpy speed, and responses can be *views* (no wire
  copy at all — the network analogue of virtual-memory aliasing).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.cost import CostModel


@dataclass(frozen=True)
class TransportProfile:
    """Prices one request/response exchange."""

    name: str
    #: Fixed round-trip latency (request + response headers).
    roundtrip_ns: float
    #: Per-byte wire cost for payload movement.
    wire_ns_per_byte: float
    #: Per-byte CPU cost of (de)serializing payloads for the wire;
    #: zero-copy transports skip it.
    serialize_ns_per_byte: float
    #: Whether responses can reference shared memory instead of copying.
    zero_copy_responses: bool = False

    def charge_exchange(self, model: CostModel, request_bytes: int,
                        response_bytes: int) -> None:
        """Charge one full request/response on the caller's model."""
        model.cpu(self.roundtrip_ns)
        payload = request_bytes + response_bytes
        if payload:
            model.cpu(payload * self.wire_ns_per_byte)
            if self.serialize_ns_per_byte:
                model.memcpy(payload)  # staging copies into wire buffers
                model.cpu(payload * self.serialize_ns_per_byte)


TCP_ETHERNET = TransportProfile(
    name="tcp", roundtrip_ns=30_000.0, wire_ns_per_byte=0.8,
    serialize_ns_per_byte=0.45)

UNIX_SOCKET = TransportProfile(
    name="unix", roundtrip_ns=24_000.0, wire_ns_per_byte=0.10,
    serialize_ns_per_byte=0.45)

RDMA = TransportProfile(
    name="rdma", roundtrip_ns=3_000.0, wire_ns_per_byte=0.08,
    serialize_ns_per_byte=0.0, zero_copy_responses=True)

SHARED_MEMORY = TransportProfile(
    name="shm", roundtrip_ns=600.0, wire_ns_per_byte=0.0625,
    serialize_ns_per_byte=0.0, zero_copy_responses=True)


def one_per(transports, n: int, what: str) -> list[TransportProfile]:
    """One profile per ``what``: a single profile is shared by all ``n``,
    a list must hold exactly ``n``."""
    if isinstance(transports, TransportProfile):
        return [transports] * n
    transports = list(transports)
    if len(transports) != n:
        raise ValueError(f"need one transport per {what}: got "
                         f"{len(transports)} for {n} {what}s")
    return transports
