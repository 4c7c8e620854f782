"""The five steady-state workloads and the loops that measure them.

Every workload follows the same steps, driven by ``run.py``:

``__init__``  generate all inputs from ``(seed, scale)`` — op streams of
              ``(kind, key, size, stamp, crc)``, payload bases, arrival
              times — before anything is timed;
``setup``     build the system under test and load the dataset (this is
              what ``setup_s`` times); returns a fresh state each call;
``measure``   replay an op stream against a state, one ``try/except``
              and one pair of stamps per op, verifying every read
              against a shadow map outside the per-op timer;
``counters``  snapshot the public counters the per-layer ratios are
              deltas of;
``finish``    make everything durable, read write/space amplification,
              crash (or kill a primary), recover, and SHA-256-audit
              every acknowledged key on what came back.

Only public APIs of the program are driven.  Record sizes follow a
per-seed histogram: four sizes just below the nominal size (never far
enough to change a record's page count), or for the article corpus one
size per eighth of an octave.  With one fixed size every in-cache
operation costs exactly the same virtual time, so percentiles carry no
information and read the same for every seed.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import math
import random
import struct
import time
from collections import Counter
from types import SimpleNamespace
from zlib import crc32

from repro.bench.adapters import OurStoreAdapter, make_store
from repro.db import BlobDB, EngineConfig
from repro.fuse import FuseMount
from repro.net import TCP_ETHERNET, ReplicatedBlobServer
from repro.replica import ReplicatedShardedBlobDB
from repro.sched import Delay, EventLoop, JobQueue, Take, generate_jobs
from repro.sim.cost import NS_PER_CYCLE
from repro.workloads.wikipedia import WikipediaCorpus
from repro.workloads.ycsb import zipf_sampler

from metrics import RIVALS, quantile

PAGE = 4096
MIB = 1 << 20
WINDOW_NS = 200_000.0       # group-commit window of every Our engine
READ, WRITE, STAT, SCAN = "read", "write", "stat", "scan"


class WorkloadAborted(Exception):
    """More than 1 % of the attempted operations failed."""


class Samples:
    """Raw per-op samples and failure counts of one measured phase."""

    def __init__(self) -> None:
        self.sim: dict[str, list[int]] = {}
        self.host: dict[str, list[int]] = {}
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.errors: Counter = Counter()
        self.written = 0        # user bytes written
        self.moved = 0          # user bytes written or read back
        self.cpu_s = 0.0        # summed over the phases of the run
        self.wall_ns = 0
        self.sim_ns = 0
        self.extra: dict = {}

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def add(self, kind: str, sim_ns: int, host_ns: int) -> None:
        self.sim.setdefault(kind, []).append(sim_ns)
        self.host.setdefault(kind, []).append(host_ns)

    def note_failed(self, kind: str, what: str) -> None:
        if what == "wrong-bytes":
            self.wrong += 1
        else:
            self.raised += 1
        self.errors[f"{kind}:{what}"] += 1
        if self.failed * 100 > max(self.attempted, 1000):
            raise WorkloadAborted(
                f"{self.failed} of {self.attempted} operations failed: "
                f"{dict(self.errors)}")

    def absorb(self, other: "Samples") -> None:
        """Add another phase's totals (not its latency populations)."""
        self.attempted += other.attempted
        self.raised += other.raised
        self.wrong += other.wrong
        self.errors.update(other.errors)
        self.cpu_s += other.cpu_s
        self.wall_ns += other.wall_ns
        self.sim_ns += other.sim_ns


def size_histogram(rng: random.Random, nominal: int, below: int) -> list[int]:
    """Four record sizes within ``below`` bytes under ``nominal``."""
    return [nominal - rng.randrange(below) for _ in range(4)]


def closed_loop(ops, clock, prep, do, verify, samples: Samples,
                tracer=None, first_id: int = 0) -> None:
    """One client: the next op is sent when the previous one returned."""
    now = time.perf_counter_ns
    for op_id, op in enumerate(ops, first_id):
        arg = prep(op)
        samples.attempted += 1
        if tracer is not None:
            tracer.begin_op(op_id)
        error = None
        v0 = clock.now_ns
        h0 = now()
        try:
            out = do(op, arg)
        except Exception as exc:    # failures are counted, never hidden
            error = exc
        h1 = now()
        v1 = clock.now_ns
        if tracer is not None:
            tracer.end_op()
        if error is not None:
            samples.note_failed(op[0], type(error).__name__)
        elif verify(op, out, samples):
            samples.add(op[0], v1 - v0, h1 - h0)
        else:
            samples.note_failed(op[0], "wrong-bytes")


def timed_phase(clock, samples: Samples, tracer, body) -> None:
    """Run ``body()`` as one measured phase on ``clock``."""
    if tracer is not None:
        tracer.begin_phase(clock)
    v0 = clock.now_ns
    w0 = time.perf_counter_ns()
    c0 = time.process_time()
    try:
        body()
    finally:
        samples.cpu_s += time.process_time() - c0
        samples.wall_ns += time.perf_counter_ns() - w0
        samples.sim_ns += clock.now_ns - v0
        if tracer is not None:
            tracer.end_phase()


# -- one BlobDB: counters, durability, digest, audit ------------------------------

def engine_config(device_mib: int, pool_mib: float, wal_pages: int,
                  catalog_pages: int) -> EngineConfig:
    return EngineConfig(device_pages=device_mib * MIB // PAGE,
                        buffer_pool_pages=max(64, int(pool_mib * MIB) // PAGE),
                        wal_pages=wal_pages, catalog_pages=catalog_pages,
                        group_commit_window_ns=WINDOW_NS)


def engine_counters(db: BlobDB) -> dict:
    """Public counters of one engine, flat, summable across engines."""
    model = db.model
    pool, io, wal, alloc = (db.pool.stats, db.pool.io.stats, db.wal.stats,
                            db.allocator.stats)
    out = {
        "engine.clock_ns": model.clock.now_ns,
        "engine.kernel_ns": model.counters.kernel_cycles * NS_PER_CYCLE,
        "engine.memory_ns": model.memory_time_ns,
        "engine.io_ns": model.io_time_ns,
        "engine.wal_flush_ns": model.wal_flush_time_ns,
        "pool.hits": pool.hits, "pool.misses": pool.misses,
        "pool.evictions": pool.evictions, "pool.writebacks": pool.writebacks,
        "io.in": io.requests_in, "io.out": io.requests_out,
        "io.drains": io.drains,
        "wal.bytes": wal.bytes_appended,
        "wal.checkpoints": db.checkpoints_taken,
        "alloc.fresh": alloc.fresh_extents,
        "alloc.reused": alloc.reused_extents,
        "alloc.pages": db.allocator.allocated_pages,
        "alloc.capacity": db.allocator.capacity_pages,
        "ns.range_scans": db.ns.range_scans if db.ns is not None else 0,
        "ns.renumbers": db.ns.renumbers if db.ns is not None else 0,
        "dev.read_reqs": 0, "dev.read_bytes": 0, "dev.write_reqs": 0,
        "dev.written": 0, "dev.written.data": 0, "dev.written.wal": 0,
        "dev.written.meta": 0,
    }
    for dev in db.storage.devices:
        stats = dev.stats
        out["dev.read_reqs"] += stats.read_requests
        out["dev.read_bytes"] += stats.bytes_read
        out["dev.write_reqs"] += stats.write_requests
        out["dev.written"] += stats.bytes_written
        for cat in ("data", "wal", "meta"):
            out[f"dev.written.{cat}"] += \
                stats.bytes_written_by_category.get(cat, 0)
    return out


def sum_counters(parts: list[dict]) -> dict:
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def make_durable(db: BlobDB) -> None:
    db.drain_commit_window()
    db.wal.sync_flush()


def engine_digest(engines: list[tuple[BlobDB, str]]) -> str:
    """SHA-256 over every (key, size, content digest) the engines hold."""
    digest = hashlib.sha256()
    for db, table in engines:
        for key, state in db.scan(table):
            digest.update(key)
            digest.update(struct.pack(">Q", state.size))
            digest.update(state.sha256)
    return digest.hexdigest()


def audit_engine(db: BlobDB, table: str, expected) -> list[str]:
    """Re-read every acknowledged key; its size, its recorded SHA-256 and
    the SHA-256 of what is read back must be those of the payload the
    shadow map says was acknowledged last."""
    bad = []
    for key, payload in expected:
        want = hashlib.sha256(payload).digest()
        try:
            state = db.get_state(table, key)
            data = db.read_blob(table, key)
        except Exception as exc:
            bad.append(f"{key!r}: {type(exc).__name__}: {exc}")
            continue
        if len(data) != len(payload) or state.sha256 != want \
                or hashlib.sha256(data).digest() != want:
            bad.append(f"{key!r}: content differs after recovery")
    return bad


def replace_blob(db: BlobDB, table: str, key: bytes, payload: bytes) -> None:
    with db.transaction() as txn:
        db.delete_blob(txn, table, key)
        db.put_blob(txn, table, key, payload)


class Workload:
    """Defaults for what only some workloads have to say."""

    table = "blobs"

    def e2e_extra(self, samples: Samples) -> dict:
        """End-to-end metrics only this workload has."""
        return {}

    def layer_extra(self, delta: dict, samples: Samples, fin: dict) -> dict:
        """Per-layer counter ratios of layers only this workload enters."""
        return {}

    def report_extra(self, samples: Samples) -> dict:
        """Tables for the report that are not metrics."""
        return {}


class SingleEngine(Workload):
    """What the workloads with one Our engine (``st.db``) share: ops are
    ``(kind, key index, size, stamp, crc)`` and a payload is the stamp
    and key index followed by the seed's base bytes up to ``size``."""

    def payload(self, k: int, size: int, stamp: int) -> bytes:
        return struct.pack(">QI", stamp, k) + self.base[12:size]

    def expected(self, st) -> list[tuple[bytes, bytes]]:
        return [(self.keys[k], self.payload(k, size, stamp))
                for k, (size, _, stamp) in st.shadow.items()]

    def counters(self, st) -> dict:
        return engine_counters(st.db)

    def engines(self, st) -> list[tuple[BlobDB, str]]:
        return [(st.db, self.table)]

    def models(self, st) -> list:
        return [st.db.model]

    def sim_ops_per_s(self, samples: Samples) -> float:
        return samples.attempted * 1e9 / samples.sim_ns

    def prefix(self, ops: list, share: float) -> list:
        return ops[:max(8, int(len(ops) * share))]

    def finish(self, st, before: dict, samples: Samples) -> dict:
        """Durable point, amplification, crash -> recover -> audit."""
        db = st.db
        make_durable(db)
        written = engine_counters(db)["dev.written"] - before["dev.written"]
        expected = self.expected(st)
        live = sum(len(payload) for _, payload in expected)
        space = db.allocator.allocated_pages * PAGE / live
        clock = db.model.clock
        device = db.crash()
        v0 = clock.now_ns
        recovered = BlobDB.recover(device, db.config)
        recovery_ns = clock.now_ns - v0
        return {"write_amp": written / max(samples.written, 1),
                "space_amp": space,
                "sim_recovery_ms": recovery_ns / 1e6,
                "audit_failures": audit_engine(recovered, self.table,
                                               expected),
                "audited": len(expected)}


def replace_ops(do_read, do_replace, payload, shadow):
    """The ``prep`` / ``do`` / ``verify`` of a read-or-replace stream."""
    def prep(op):
        return payload(op[1], op[2], op[3]) if op[0] == WRITE else None

    def do(op, payload):
        if op[0] == READ:
            return do_read(op[1])
        do_replace(op[1], payload)

    def verify(op, out, samples):
        if op[0] == READ:
            size, crc, _ = shadow[op[1]]
            samples.moved += size
            return len(out) == size and crc32(out) == crc
        shadow[op[1]] = (op[2], op[4], op[3])
        samples.written += op[2]
        samples.moved += op[2]
        return True
    return prep, do, verify


# -- ycsb_hot and ycsb_cold ------------------------------------------------------------

class Ycsb(SingleEngine):
    """Closed loop, one client, Zipf 0.99, 50 % read / 50 % replace."""

    def __init__(self, name: str, seed: int, scale: float, *, records: int,
                 nominal: int, jitter: int, pool_mib: float, wal_pages: int,
                 catalog_pages: int, ops: int, in_cache: bool) -> None:
        self.name = name
        self.in_cache = in_cache        # which steady state it claims
        data_scale = min(1.0, scale * 10)
        self.records = max(64, int(records * data_scale))
        self.config = engine_config(1024, pool_mib * data_scale, wal_pages,
                                    catalog_pages)
        rng = random.Random(seed * 1_000_003 + len(name))
        self.base = rng.randbytes(nominal)
        self.sizes = rng.choices(size_histogram(rng, nominal, jitter),
                                 k=self.records)
        self.keys = [b"user%010d" % k for k in range(self.records)]
        self.initial = {k: (size, crc32(self.payload(k, size, 0)), 0)
                        for k, size in enumerate(self.sizes)}
        zipf = zipf_sampler(self.records, 0.99, rng)
        self.ops = []
        for stamp in range(1, max(40, int(ops * scale)) + 1):
            k = zipf()
            if rng.random() < 0.5:
                self.ops.append((READ, k, 0, 0, 0))
            else:
                size = self.sizes[k]
                self.ops.append((WRITE, k, size, stamp,
                                 crc32(self.payload(k, size, stamp))))

    def setup(self) -> SimpleNamespace:
        db = BlobDB(self.config)
        db.create_table(self.table)
        for k, size in enumerate(self.sizes):
            with db.transaction() as txn:
                db.put_blob(txn, self.table, self.keys[k],
                            self.payload(k, size, 0))
        return SimpleNamespace(db=db, shadow=dict(self.initial))

    def measure(self, st, ops, tracer=None) -> Samples:
        db, table, keys = st.db, self.table, self.keys
        prep, do, verify = replace_ops(
            lambda k: db.read_blob(table, keys[k]),
            lambda k, payload: replace_blob(db, table, keys[k], payload),
            self.payload, st.shadow)
        samples = Samples()
        clock = db.model.clock
        timed_phase(clock, samples, tracer, lambda: closed_loop(
            ops, clock, prep, do, verify, samples, tracer))
        return samples

    def self_checks(self, delta: dict, samples: Samples) -> list[tuple]:
        hits, misses = delta["pool.hits"], delta["pool.misses"]
        ratio = hits / max(hits + misses, 1)
        if self.in_cache:
            windows = samples.sim_ns / WINDOW_NS
            return [
                ("evictions = 0", delta["pool.evictions"] == 0,
                 delta["pool.evictions"]),
                ("device read bytes = 0", delta["dev.read_bytes"] == 0,
                 delta["dev.read_bytes"]),
                (">= 100 group-commit windows", windows >= 100,
                 round(windows, 1)),
                (">= 10 checkpoints", delta["wal.checkpoints"] >= 10,
                 delta["wal.checkpoints"]),
            ]
        return [
            ("hit ratio in [0.5, 0.9]", 0.5 <= ratio <= 0.9, round(ratio, 4)),
            ("evictions > 0", delta["pool.evictions"] > 0,
             delta["pool.evictions"]),
            (">= 3 checkpoints", delta["wal.checkpoints"] >= 3,
             delta["wal.checkpoints"]),
            ("extent reuse > 0", delta["alloc.reused"] > 0,
             delta["alloc.reused"]),
        ]


def ycsb_hot(seed: int, scale: float) -> Ycsb:
    # 16 384 one-page records (64 MiB of pages) in a 256 MiB pool: nothing
    # is ever evicted or read from the device, so only the per-op layers
    # (db, index, wal, allocator, cost-model charging) do work.
    return Ycsb("ycsb_hot", seed, scale, records=16_384, nominal=4096,
                jitter=256, pool_mib=256, wal_pages=512, catalog_pages=2048,
                ops=50_000, in_cache=True)


def ycsb_cold(seed: int, scale: float) -> Ycsb:
    # 1 280 x 100 KiB (125 MiB; 25 pages in 5 extents of 31) over a 24 MiB
    # pool: the per-byte layers (eviction, write-back, coalescing, CRC,
    # SHA, memcpy) and recovery dominate.  Not the 32 MiB first planned:
    # there exactly half of the reads find all five extents resident, and
    # the read p50 flips between 21 us and 95 us from seed to seed; at
    # 24 MiB 44 % do.  The 128-page WAL ring makes the engine checkpoint
    # under eviction pressure several times even at this op count.
    return Ycsb("ycsb_cold", seed, scale, records=1280, nominal=100 * 1024,
                jitter=2048, pool_mib=24, wal_pages=128, catalog_pages=256,
                ops=4_200, in_cache=False)


# -- wiki_files: the same engine read as files -------------------------------------------

class WikiFiles(SingleEngine):
    """Wikipedia-shaped articles in 16 directories behind ``FuseMount``."""

    name = "wiki_files"
    table = "wiki"
    dirs = 16

    def __init__(self, seed: int, scale: float) -> None:
        n = max(64, int(4000 * min(1.0, scale * 10)))
        self.config = engine_config(256, 64, 512, 512)
        # The corpus is one fixed dataset, capped at four pages: its
        # lognormal sizes are so heavy-tailed that a corpus per seed
        # moves write amplification by 20 % and the write p99 by 30 %.
        # The seed draws the requests and one size per eighth of an
        # octave (a bin never straddles a power of two, so never 4 KiB or
        # 8 KiB); every article takes the size of its bin.
        corpus = WikipediaCorpus(n_articles=n, max_article_bytes=4 * PAGE)
        rng = random.Random(seed * 1_000_003 + 3)
        bin_size: dict[int, int] = {}
        self.contents = []
        for article in corpus.articles:
            octave8 = min(int(math.log2(article.size) * 8), 14 * 8 - 1)
            if octave8 not in bin_size:
                lo, hi = 2 ** (octave8 / 8), 2 ** ((octave8 + 1) / 8)
                bin_size[octave8] = math.ceil(lo + rng.random() * (hi - lo))
            self.contents.append(corpus.content(
                dataclasses.replace(article, size=bin_size[octave8])))
        self.keys = [b"d%02d/" % (k % self.dirs) + a.title
                     for k, a in enumerate(corpus.articles)]
        self.paths = [f"/{self.table}/{key.decode()}" for key in self.keys]
        self.total_bytes = sum(len(c) for c in self.contents)
        self.initial = {k: (len(c), crc32(c), 0)
                        for k, c in enumerate(self.contents)}
        # Articles are requested in proportion to their views.  Rewrite
        # targets walk that distribution on a golden-ratio sequence from
        # a seed-drawn start instead of independent draws: 2 500 draws
        # from sizes this skewed move write amplification by 4 %.
        views = list(itertools.accumulate(a.views for a in corpus.articles))
        walk = rng.random()
        self.ops = []
        for stamp in range(1, max(40, int(50_000 * scale)) + 1):
            write = rng.random() < 0.05
            if write:
                walk = (walk + 0.6180339887498949) % 1.0
            k = bisect.bisect_right(
                views, (walk if write else rng.random()) * views[-1])
            if stamp % 2000 == 0:
                self.ops.append((SCAN, k, 0, 0, 0))
            elif stamp % 50 == 0:
                self.ops.append((STAT, k, 0, 0, 0))
            elif write:
                size = len(self.contents[k])
                self.ops.append((WRITE, k, size, stamp,
                                 crc32(self.payload(k, size, stamp))))
            else:
                self.ops.append((READ, k, 0, 0, 0))

    def payload(self, k: int, size: int, stamp: int) -> bytes:
        """A rewrite keeps the article's size and stamps its head."""
        content = self.contents[k]
        if stamp == 0:
            return content
        return (struct.pack(">QI", stamp, k) + content[12:])[:size]

    def setup(self) -> SimpleNamespace:
        db = BlobDB(self.config)
        db.create_table(self.table)
        for key, content in zip(self.keys, self.contents):
            with db.transaction() as txn:
                db.put_blob(txn, self.table, key, content)
        mount = FuseMount(db)
        mount.fuse.attach_namespace()
        return SimpleNamespace(db=db, mount=mount, shadow=dict(self.initial))

    def measure(self, st, ops, tracer=None) -> Samples:
        db, mount, shadow = st.db, st.mount, st.shadow
        table, keys, paths = self.table, self.keys, self.paths
        root = f"/{table}"
        n_files, total_bytes = len(keys), self.total_bytes

        def read(k):
            with mount.open(paths[k]) as handle:
                return handle.read(4096), handle.read()

        prep, do_rw, verify_rw = replace_ops(
            read, lambda k, payload: replace_blob(db, table, keys[k], payload),
            self.payload, shadow)

        def do(op, payload):
            if op[0] == STAT:
                return mount.stat(paths[op[1]]).st_size
            if op[0] == SCAN:
                return (mount.fuse.readdir_recursive(root),
                        mount.fuse.subtree_statfs(root))
            return do_rw(op, payload)

        def verify(op, out, samples):
            if op[0] == READ:
                size, crc, _ = shadow[op[1]]
                samples.moved += size
                head, rest = out
                return len(head) + len(rest) == size \
                    and crc32(rest, crc32(head)) == crc
            if op[0] == STAT:
                return out == shadow[op[1]][0]
            if op[0] == SCAN:
                listing, totals = out
                files = sum(1 for _, is_dir, _ in listing if not is_dir)
                return files == totals["files"] == n_files \
                    and totals["bytes"] == total_bytes
            return verify_rw(op, out, samples)

        samples = Samples()
        clock = db.model.clock
        timed_phase(clock, samples, tracer, lambda: closed_loop(
            ops, clock, prep, do, verify, samples, tracer))
        return samples

    def layer_extra(self, delta: dict, samples: Samples, fin: dict) -> dict:
        return {"namespace.range_scans_per_op":
                delta["ns.range_scans"] / samples.attempted,
                "namespace.renumbers": delta["ns.renumbers"]}

    def self_checks(self, delta: dict, samples: Samples) -> list[tuple]:
        return [
            ("evictions = 0", delta["pool.evictions"] == 0,
             delta["pool.evictions"]),
            ("namespace range scans > 0", delta["ns.range_scans"] > 0,
             delta["ns.range_scans"]),
        ]


# -- paper_cross: one op stream on Our and eight rivals -------------------------------------

class PaperCross(SingleEngine):
    """Fig. 6(c) shape: 4 KiB - 1 MiB payloads, 50/50, nine systems."""

    name = "paper_cross"
    table = OurStoreAdapter.TABLE
    lo, hi = 4096, MIB
    #: Our replays the whole stream (its latency percentiles need the
    #: samples); each rival replays the leading quarter of it, and the
    #: cross-system ratio compares both on exactly that prefix.
    rival_share = 4

    def __init__(self, seed: int, scale: float) -> None:
        records = max(16, int(200 * min(1.0, scale * 10)))
        rng = random.Random(seed * 1_000_003 + 5)
        self.base = rng.randbytes(self.hi)
        self.keys = [b"user%010d" % k for k in range(records)]
        self.initial = {}
        for k in range(records):
            size = rng.randint(self.lo, self.hi)
            self.initial[k] = (size, crc32(self.payload(k, size, 0)), 0)
        zipf = zipf_sampler(records, 0.99, rng)
        self.ops = []
        for stamp in range(1, max(24, int(2400 * scale)) + 1):
            k = zipf()
            if rng.random() < 0.5:
                self.ops.append((READ, k, 0, 0, 0))
            else:
                size = rng.randint(self.lo, self.hi)
                self.ops.append((WRITE, k, size, stamp,
                                 crc32(self.payload(k, size, stamp))))

    def setup(self) -> SimpleNamespace:
        stores = {}
        for system in ("our",) + RIVALS:
            extra = {"group_commit_window_ns": WINDOW_NS} \
                if system == "our" else {}
            store = make_store(system, capacity_bytes=1 << 30,
                               buffer_bytes=256 << 20, **extra)
            for k, (size, _, _) in self.initial.items():
                store.put(self.keys[k], self.payload(k, size, 0))
            stores[system] = store
        return SimpleNamespace(stores=stores, db=stores["our"].db,
                               shadow=dict(self.initial))

    def _replay(self, store, ops, shadow, samples, tracer, first_id=0):
        keys = self.keys
        prep, do, verify = replace_ops(
            lambda k: store.get(keys[k]),
            lambda k, payload: store.replace(keys[k], payload),
            self.payload, shadow)
        clock = store.model.clock
        timed_phase(clock, samples, tracer, lambda: closed_loop(
            ops, clock, prep, do, verify, samples, tracer, first_id))

    def measure(self, st, ops, tracer=None) -> Samples:
        n_rival = max(8, len(ops) // self.rival_share)
        samples = Samples()
        our = st.stores["our"]
        self._replay(our, ops[:n_rival], st.shadow, samples, tracer)
        systems = {"our": {"sim_ops_per_s": n_rival * 1e9 / samples.sim_ns}}
        self._replay(our, ops[n_rival:], st.shadow, samples, tracer, n_rival)
        # sim_*, write_amp and space_amp are Our's; host time is everyone's.
        samples.extra = {"systems": systems, "our_ops": len(ops),
                         "our_sim_ns": samples.sim_ns, "rival_ops": n_rival}
        for system in RIVALS:
            side = Samples()
            self._replay(st.stores[system], ops[:n_rival],
                         dict(self.initial), side, tracer)
            systems[system] = {
                "sim_ops_per_s": n_rival * 1e9 / side.sim_ns,
                "host_us_per_op": side.cpu_s * 1e6 / n_rival}
            samples.absorb(side)
        return samples

    def sim_ops_per_s(self, samples: Samples) -> float:
        return samples.extra["our_ops"] * 1e9 / samples.extra["our_sim_ns"]

    def versus_best_rival(self, samples: Samples) -> tuple[float, str]:
        systems = samples.extra["systems"]
        best = max(RIVALS, key=lambda s: systems[s]["sim_ops_per_s"])
        return (systems["our"]["sim_ops_per_s"]
                / systems[best]["sim_ops_per_s"], best)

    def e2e_extra(self, samples: Samples) -> dict:
        return {"sim_vs_best_rival": self.versus_best_rival(samples)[0]}

    def layer_extra(self, delta: dict, samples: Samples, fin: dict) -> dict:
        out = self.e2e_extra(samples)
        for system in RIVALS:
            for metric, value in samples.extra["systems"][system].items():
                out[f"baselines.{metric}.{system}"] = value
        return out

    def report_extra(self, samples: Samples) -> dict:
        return {"systems": samples.extra["systems"]}

    def self_checks(self, delta: dict, samples: Samples) -> list[tuple]:
        ratio, best = self.versus_best_rival(samples)
        return [("sim_vs_best_rival > 1", ratio > 1,
                 f"{ratio:.3f} vs {best}")]


# -- cluster_open: open loop over the composed stack -----------------------------------------

class ClusterOpen(Workload):
    """client -> net -> router -> 4 replica groups (1 + 2) -> engines."""

    name = "cluster_open"
    tenants = 4
    groups = 4
    replicas = 2
    workers = 4
    #: Fixed arrival rates of the five rungs, about 0.3 to 0.95 of the
    #: 4-worker service capacity (61 k ops/s when this was written).
    rates = (18_000, 30_000, 43_000, 52_000, 58_000)
    latency_rung = 2            # rung 3 feeds the latency metrics ...
    #: ... so it gets fourteen times the arrivals of a plain rung: its
    #: p99s are gated, and a p99 over 5 000 queued requests still moves
    #: 13 % from seed to seed.  Rung 5 gets twice: at 0.95 of capacity a
    #: queue needs that long to show the tail the self-check looks for.
    rung_weights = (1, 1, 14, 1, 2)
    slo_p99_ns = 250_000
    rung_gap_ns = 1_000_000

    def __init__(self, seed: int, scale: float) -> None:
        n_keys = max(16, int(512 * min(1.0, scale * 10)))
        per_weight = max(40, int(1100 * scale))
        self.config = engine_config(64, 16, 512, 256)
        rng = random.Random(seed * 1_000_003 + 4)
        sizes = size_histogram(rng, 8192, 512)
        # Keys as repro.sched.arrivals.op_for spells them.
        self.initial = {
            b"t%02d-key%08d" % (t, i): rng.randbytes(rng.choice(sizes))
            for t in range(self.tenants) for i in range(n_keys)}
        #: rungs[r] = [(arrive_ns, kind, key, payload, crc)], by arrival.
        self.ops = []
        for r, rate in enumerate(self.rates):
            jobs = generate_jobs(
                tenants=self.tenants,
                per_tenant=per_weight * self.rung_weights[r] // self.tenants,
                rate_ops_s=rate / self.tenants, seed=seed * 16 + r,
                n_keys=n_keys, payload_bytes=8192, read_ratio=0.5)
            rung = []
            for job in jobs:
                payload = crc = None
                if job.kind == WRITE:
                    payload = job.payload[:len(self.initial[job.key])]
                    crc = crc32(payload)
                rung.append((job.arrive_ns, job.kind, job.key, payload, crc))
            self.ops.append(rung)

    def prefix(self, rungs: list, share: float) -> list:
        """The first ``share`` of all arrivals, rung structure kept."""
        budget = max(8, int(sum(len(r) for r in rungs) * share))
        out = []
        for rung in rungs:
            if budget <= 0:
                break
            out.append(rung[:budget])
            budget -= len(out[-1])
        return out

    def setup(self) -> SimpleNamespace:
        rdb = ReplicatedShardedBlobDB(
            n_groups=self.groups, n_replicas=self.replicas, quorum=2,
            config=self.config, table=self.table, transport=TCP_ETHERNET)
        server = ReplicatedBlobServer(rdb, TCP_ETHERNET)
        for key, payload in self.initial.items():
            server.put(key, payload)
        #: key -> (size, crc, payload): the last acknowledged write.
        shadow = {key: (len(p), crc32(p), p)
                  for key, p in self.initial.items()}
        return SimpleNamespace(rdb=rdb, server=server, shadow=shadow)

    def measure(self, st, rungs, tracer=None) -> Samples:
        server, shadow = st.server, st.shadow
        clock = st.rdb.model.clock          # router clock: the client's view
        loop, queue = EventLoop(), JobQueue()
        samples = Samples()
        now = time.perf_counter_ns
        per_rung: list[dict] = []
        state = {"open": 0, "seq": 0, "lag_ns": 0}

        def worker():
            while True:
                due, kind, key, payload, crc = yield Take(queue)
                start = loop.now_ns
                rung = per_rung[-1]
                samples.attempted += 1
                if tracer is not None:
                    tracer.begin_op(state["seq"], clock)
                state["seq"] += 1
                error = None
                v0 = clock.now_ns
                h0 = now()
                try:
                    out = server.get(key) if kind == READ \
                        else server.put(key, payload)
                except Exception as exc:
                    error = exc
                h1 = now()
                demand = clock.now_ns - v0
                if tracer is not None:
                    tracer.end_op()
                if error is not None:
                    samples.note_failed(kind, type(error).__name__)
                elif kind == READ:
                    size, want, _ = shadow[key]
                    samples.moved += size
                    if len(out) != size or crc32(out) != want:
                        samples.note_failed(kind, "wrong-bytes")
                        error = True
                else:
                    shadow[key] = (len(payload), crc, payload)
                    samples.written += len(payload)
                    samples.moved += len(payload)
                # The request holds this worker for its service demand.
                yield Delay(demand)
                state["open"] -= 1
                rung["demand_ns"] += demand
                rung["wait_ns"] += start - due
                rung["latency_ns"] += loop.now_ns - due
                if error is None:
                    rung[kind].append(loop.now_ns - due)
                    samples.host.setdefault(kind, []).append(h1 - h0)
                else:
                    rung["missed"] += 1

        def arrive(job, due):
            state["lag_ns"] = max(state["lag_ns"], loop.now_ns - due)
            state["open"] += 1
            per_rung[-1]["backlog"].append(state["open"])
            loop.put(queue, (due,) + job[1:])

        def body():
            workers = [worker() for _ in range(self.workers)]
            for coroutine in workers:
                loop.spawn(coroutine)
            for rung in rungs:
                base = loop.now_ns + self.rung_gap_ns
                per_rung.append({READ: [], WRITE: [], "backlog": [],
                                 "demand_ns": 0, "wait_ns": 0,
                                 "latency_ns": 0, "missed": 0,
                                 "start_ns": base})
                for job in rung:
                    loop.call_at(base + job[0],
                                 lambda j=job, d=base + job[0]: arrive(j, d))
                loop.run()
                per_rung[-1]["end_ns"] = loop.now_ns
            loop.drain_workers(workers)

        timed_phase(clock, samples, tracer, body)
        samples.extra = {"rungs": self.rung_summary(per_rung),
                         "events": loop.events_fired,
                         "generator_lag_ns": state["lag_ns"],
                         "demand_ns": sum(r["demand_ns"] for r in per_rung),
                         "virtual": [(r[READ], r[WRITE]) for r in per_rung]}
        if len(per_rung) > self.latency_rung:
            samples.sim = {k: per_rung[self.latency_rung][k]
                           for k in (READ, WRITE)}
        return samples

    def members(self, st) -> list:
        return [m for g in st.rdb.groups for m in g.members
                if m.alive and m.db is not None]

    def counters(self, st) -> dict:
        rdb, server = st.rdb, st.server
        out = sum_counters([engine_counters(m.db) for m in self.members(st)])
        router = rdb.router.stats
        out.update({
            "router.clock_ns": rdb.model.clock.now_ns,
            "net.requests": server.stats.requests,
            "net.bytes": server.stats.bytes_in + server.stats.bytes_out,
            "shard.routed": router.routed_keys,
            "shard.fanouts": router.fanout_batches,
            "replica.shipped": sum(g.stats.records_shipped
                                   for g in rdb.groups),
            "replica.acked": sum(g.stats.acked_writes for g in rdb.groups),
            "replica.retries": sum(g.ship_retries() for g in rdb.groups),
            "replica.stale_reads": sum(g.stats.stale_reads
                                       for g in rdb.groups),
        })
        for shard, routed in enumerate(router.per_shard_keys):
            out[f"shard.keys.{shard}"] = routed
        return out

    def engines(self, st) -> list[tuple[BlobDB, str]]:
        return [(g.primary.db, self.table) for g in st.rdb.groups]

    def models(self, st) -> list:
        return [m.db.model for m in self.members(st)]

    def sim_ops_per_s(self, samples: Samples) -> float:
        """Service capacity: what the workers sustain at the measured
        mean router-clock demand.  (In an open loop below saturation the
        completion rate is just the arrival rate.)"""
        return self.workers * samples.attempted * 1e9 \
            / samples.extra["demand_ns"]

    def finish(self, st, before: dict, samples: Samples) -> dict:
        rdb = st.rdb
        rdb.drain()
        for member in self.members(st):
            make_durable(member.db)
        after = self.counters(st)
        written = after["dev.written"] - before["dev.written"]
        live = sum(size for size, _, _ in st.shadow.values())
        max_lag = max(g.max_lag() for g in rdb.groups)
        # Kill group 0's primary: the group fails over on its own clock,
        # then the deposed member recovers from its device and rejoins.
        clock = rdb.model.clock
        old_primary = rdb.groups[0].primary_id
        v0 = clock.now_ns
        rdb.crash_primary(0)
        rdb.rejoin(0, old_primary)
        recovery_ns = clock.now_ns - v0
        rdb.drain()
        bad = [f"{g.name}.m{m.member_id} is down"
               for g in rdb.groups for m in g.members if not m.alive]
        by_group: dict[int, list] = {}
        for key, (_, _, payload) in st.shadow.items():
            by_group.setdefault(rdb.router.shard_of(key), []).append(
                (key, payload))
        for gid, expected in sorted(by_group.items()):
            for member in rdb.groups[gid].members:
                if member.alive:
                    bad.extend(
                        f"g{gid}.m{member.member_id} {line}" for line in
                        audit_engine(member.db, self.table, expected))
        return {"write_amp": written / max(samples.written, 1),
                "space_amp": after["alloc.pages"] * PAGE / live,
                "sim_recovery_ms": recovery_ns / 1e6,
                "audit_failures": bad,
                "audited": len(st.shadow) * (self.replicas + 1),
                "max_lag_records": max_lag}

    def rung_summary(self, per_rung: list[dict]) -> list[dict]:
        """Per rung: offered rate, p50/p99 over both kinds, backlog."""
        out = []
        for rate, rung in zip(self.rates, per_rung):
            lat = sorted(rung[READ] + rung[WRITE])
            backlog = rung["backlog"]
            quarter = max(1, len(backlog) // 4)
            q2 = sum(backlog[quarter:2 * quarter]) / quarter
            q4 = sum(backlog[-quarter:]) / quarter
            out.append({
                "rate_ops_s": rate, "n": len(lat), "missed": rung["missed"],
                "p50_ns": quantile(lat, 0.5) if lat else 0,
                "p99_ns": quantile(lat, 0.99) if lat else 0,
                "backlog_q2": q2, "backlog_q4": q4,
                # Open requests seen by the last quarter of arrivals
                # against the second quarter: a stable queue holds its
                # level, an overloaded one more than doubles it.
                "growing": q4 > 1.5 * q2 + self.workers,
                "util": rung["demand_ns"] / max(
                    self.workers * (rung["end_ns"] - rung["start_ns"]), 1),
                "wait_share": rung["wait_ns"] / max(rung["latency_ns"], 1),
            })
        return out

    def e2e_extra(self, samples: Samples) -> dict:
        """``slo_rate_ops_s``: the highest rung that, like every rung
        below it, keeps its overall p99 within the limit with no request
        missed and no backlog growing at its last arrivals."""
        rate = 0
        for rung in samples.extra["rungs"]:     # ascending
            if rung["p99_ns"] > self.slo_p99_ns or rung["growing"] \
                    or rung["missed"]:
                break
            rate = rung["rate_ops_s"]
        return {"slo_rate_ops_s": rate}

    def layer_extra(self, delta: dict, samples: Samples, fin: dict) -> dict:
        ops, extra, rungs = samples.attempted, samples.extra, \
            samples.extra["rungs"]
        routed = [delta[key] for key in delta if key.startswith("shard.keys.")]
        out = {
            "net.roundtrips_per_op": delta["net.requests"] / ops,
            "net.wire_bytes_per_user_byte": delta["net.bytes"] / samples.moved,
            "shard.fanout_mean": delta["shard.routed"] / delta["shard.fanouts"],
            "shard.imbalance": max(routed) * len(routed) / sum(routed),
            "replica.records_shipped_per_write":
                delta["replica.shipped"] / max(delta["replica.acked"], 1),
            "replica.ship_retries": delta["replica.retries"],
            "replica.max_lag_records": fin["max_lag_records"],
            "replica.stale_reads": delta["replica.stale_reads"],
            "sched.events_per_op": extra["events"] / ops,
            "sched.generator_lag_us": extra["generator_lag_ns"] / 1e3,
            **self.e2e_extra(samples),
        }
        if len(rungs) > self.latency_rung:
            out["sched.worker_util"] = rungs[self.latency_rung]["util"]
            out["sched.wait_share"] = rungs[self.latency_rung]["wait_share"]
        for i, rung in enumerate(rungs, 1):
            out[f"sched.rung{i}.p50_us"] = rung["p50_ns"] / 1e3
            out[f"sched.rung{i}.p99_us"] = rung["p99_ns"] / 1e3
        return out

    def report_extra(self, samples: Samples) -> dict:
        return {"rungs": samples.extra["rungs"]}

    def self_checks(self, delta: dict, samples: Samples) -> list[tuple]:
        rungs = samples.extra["rungs"]
        first, last = rungs[0], rungs[-1]
        return [
            ("generator lag = 0", samples.extra["generator_lag_ns"] == 0,
             samples.extra["generator_lag_ns"]),
            ("rung 1 has no backlog",
             not first["growing"] and first["backlog_q4"] <= self.workers,
             round(first["backlog_q4"], 2)),
            ("rung 5 p99 >= 2 x rung 1",
             last["p99_ns"] >= 2 * first["p99_ns"],
             f"{last['p99_ns']} vs {first['p99_ns']}"),
        ]


BUILDERS = {
    "ycsb_hot": ycsb_hot,
    "ycsb_cold": ycsb_cold,
    "wiki_files": WikiFiles,
    "cluster_open": ClusterOpen,
    "paper_cross": PaperCross,
}
