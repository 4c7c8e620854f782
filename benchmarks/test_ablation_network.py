"""Ablation: remote BLOB access across transports (Section VI, Networks).

The paper attributes PostgreSQL's and MySQL's standing in Figs. 5/6 to
"communication and (de)serialization overheads" and names RDMA and
shared memory as the upcoming remedies.  This ablation quantifies that
narrative on *our* engine: the same storage design behind four
transports, against the embedded baseline.  The remote engine is the one
server, :class:`ReplicatedBlobServer`, over a topology of one group of
one, timed on the router clock — what a client observes.  The router's
share, one ``shard_route`` and one ``shard_fanout`` per GET, is priced
explicitly and printed as its own table.
"""

from conftest import print_table

from repro.bench.harness import RunResult
from repro.db import BlobDB, EngineConfig
from repro.net import (
    RDMA,
    SHARED_MEMORY,
    TCP_ETHERNET,
    UNIX_SOCKET,
    ReplicatedBlobServer,
)
from repro.replica import ReplicatedShardedBlobDB
from repro.sim.clock import Stopwatch
from repro.sim.cost import CostModel

PAYLOADS = {"120B": 120, "100KB": 100 * 1024, "10MB": 10 * 1024 * 1024}
N_OPS = 60
TRANSPORTS = (TCP_ETHERNET, UNIX_SOCKET, RDMA, SHARED_MEMORY)


def config() -> EngineConfig:
    return EngineConfig(device_pages=262144, buffer_pool_pages=65536,
                        wal_pages=4096, catalog_pages=1024)


def run_embedded(payload: int) -> RunResult:
    db = BlobDB(config())
    db.create_table("blobs")
    with db.transaction() as txn:
        db.put_blob(txn, "blobs", b"k", b"\x11" * payload)
    with Stopwatch(db.model.clock) as sw:
        for _ in range(N_OPS):
            db.read_blob("blobs", b"k")
    return RunResult(system="embedded", ops=N_OPS, elapsed_ns=sw.elapsed_ns)


def run_remote(transport, payload: int) -> RunResult:
    """GETs through a one-group server; ``extra["routing_ns"]`` is the
    router clock's time beyond the group clock's."""
    rdb = ReplicatedShardedBlobDB(n_groups=1, n_replicas=0, quorum=1,
                                  config=config())
    server = ReplicatedBlobServer(rdb, transport)
    server.put(b"k", b"\x11" * payload)
    group_clock = server.groups[0].model.clock
    group_start = group_clock.now_ns
    with Stopwatch(server.model.clock) as sw:
        for _ in range(N_OPS):
            server.get(b"k")
    routing_ns = sw.elapsed_ns - (group_clock.now_ns - group_start)
    return RunResult(system=f"our.{transport.name}", ops=N_OPS,
                     elapsed_ns=sw.elapsed_ns,
                     extra={"routing_ns": routing_ns})


def route_charge_ns() -> int:
    """One ``shard_route`` of the key plus one one-wide ``shard_fanout``,
    charged on a fresh clock with the default price list."""
    probe = CostModel()
    probe.shard_route(len(b"k"))
    probe.shard_fanout(1)
    return probe.clock.now_ns


def run_all():
    results = {}
    for label, payload in PAYLOADS.items():
        results[(label, "embedded")] = run_embedded(payload)
        for transport in TRANSPORTS:
            results[(label, transport.name)] = run_remote(transport, payload)
    return results


def test_ablation_network_transports(bench_once):
    results = bench_once(run_all)

    def routing_ns(label, system):
        return results[(label, system)].extra["routing_ns"]

    systems = ("embedded", "shm", "rdma", "unix", "tcp")
    rows = []
    for system in systems:
        row = [system]
        for label in PAYLOADS:
            result = results[(label, system)]
            row.append(f"{result.throughput_ops_s:.0f}")
        rows.append(row)
    print_table("Ablation: GET throughput by transport (txn/s)",
                ["access path"] + list(PAYLOADS), rows)
    print_table("Ablation: routing charge per GET (ns), router - group clock",
                ["transport"] + list(PAYLOADS),
                [[t.name] + [f"{routing_ns(label, t.name) / N_OPS:.0f}"
                             for label in PAYLOADS] for t in TRANSPORTS])

    # The router's share is exactly one route and one fan-out per GET.
    charge = route_charge_ns()
    assert charge > 0
    for label in PAYLOADS:
        for transport in TRANSPORTS:
            assert routing_ns(label, transport.name) == N_OPS * charge

    def tp(label, system):
        return results[(label, system)].throughput_ops_s

    # 120 B: the round trip is everything — TCP/unix lose an order of
    # magnitude (the Fig. 5 story for client/server DBMSs)...
    assert tp("120B", "embedded") > 8 * tp("120B", "tcp")
    assert tp("120B", "embedded") > 8 * tp("120B", "unix")
    # ...while RDMA and shared memory recover most of it.
    assert tp("120B", "rdma") > 3 * tp("120B", "tcp")
    assert tp("120B", "shm") > tp("120B", "rdma")
    assert tp("120B", "shm") > 10 * tp("120B", "tcp")

    # 10 MB: serialization + wire dominate; zero-copy transports stay
    # within a small factor of embedded.
    assert tp("10MB", "shm") > 0.7 * tp("10MB", "embedded")
    assert tp("10MB", "rdma") > 0.5 * tp("10MB", "embedded")
    assert tp("10MB", "tcp") < 0.2 * tp("10MB", "embedded")
