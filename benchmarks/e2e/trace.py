"""Spans recorded from outside the program, around the calls into each layer.

Nothing under ``src/`` knows this file exists.  For the traced run,
:func:`install` replaces the public methods named in :data:`BOUNDARIES`
(layer -> class or module -> method names) by wrappers that record one
span per call, and restores the originals afterwards.  Layers are this
repo's packages; a method belongs to the layer of the package that
defines it.

A span is ``(layer/name, op id, parent span, clock, host start/end ns,
virtual start/end ns)``, eight integers in one in-memory ``array``.
Spans are folded only after the run into *self* time: a span's duration
minus the part its child spans cover.  The virtual stamps are read from
the clock of the object that owns the call (``self.model.clock``) where
the table says so and from the enclosing span's clock otherwise; on a
single-clock workload every span therefore shares the root's clock and
the layers' virtual self times sum to the elapsed virtual time exactly.
Where several clocks are involved (``cluster_open``: one per router,
group and member) a child on another clock is not subtracted from its
parent, so per-layer virtual times overlap; :meth:`Tracer.fold` reports
whether that happened.

Generator methods (``scan``, ``iter_subtree``, ``walk``) cannot be
wrapped without changing when their body runs; :func:`install` refuses
them, and their time counts as their consumer's.
"""

from __future__ import annotations

import inspect
import time
from array import array

import repro.core.recovery as recovery_mod
import repro.wal.writer as wal_writer_mod
from repro.art import ArtTree
from repro.baselines.dbms import DbmsBlobStoreBase
from repro.baselines.filesystem import SimulatedFilesystem
from repro.bench.adapters import (DbmsStoreAdapter, FsStoreAdapter,
                                  OurStoreAdapter)
from repro.btree import BTree
from repro.buffer import (AliasingManager, BlobView, BufferPoolBase,
                          HashTablePool, VmcachePool)
from repro.core.allocator import ExtentAllocator
from repro.core.blob_manager import BlobManager
from repro.core.log_policy import (AsyncBlobLogging, LogPolicyBase,
                                   PhysicalLogging)
from repro.db import BlobDB
from repro.db.transaction import LockTable
from repro.fuse import BlobFuse, DbFile, FuseMount
from repro.io import IoScheduler
from repro.lindex import LearnedIndex
from repro.namespace import NamespaceIndex
from repro.net import ReplicatedBlobServer, TransportProfile
from repro.replica import ReplicaGroup, ReplicaMember, ReplicatedShardedBlobDB
from repro.sched import EventLoop, Resource
from repro.sha import FastSha256, Sha256
from repro.shard import ShardRouter
from repro.sim.clock import VirtualClock
from repro.storage import SimulatedNVMe
from repro.storage.faults import RetryPolicy
from repro.wal.writer import WalWriter

_INDEX = "lookup insert delete first stats"

#: layer -> [(class or module, public method names, clock)].  ``clock``
#: is "model" (stamp from ``self.model.clock``), "self" (the object has
#: ``now_ns`` itself) or ``None`` (inherit the enclosing span's clock).
BOUNDARIES: dict[str, list[tuple]] = {
    "db": [
        (BlobDB, "begin commit abort put get exists put_blob read_blob "
                 "read_blob_view read_blob_range append_blob "
                 "update_blob_range delete_blob delete get_state "
                 "create_table list_tables drain_commit_window checkpoint "
                 "crash recover stats_report", None),
        (LockTable, "acquire release_all", None),
        (OurStoreAdapter, "put get replace delete stat", None),
    ],
    "index": [(BTree, _INDEX, None), (ArtTree, _INDEX, None),
              (LearnedIndex, _INDEX, None)],
    "core": [
        (BlobManager, "create read read_bytes read_range grow "
                      "update_range delete validate", None),
        (ExtentAllocator, "allocate_extent allocate_tail allocate_plan "
                          "free_extents free_tail snapshot restore", None),
        (LogPolicyBase, "drain_commit_window log_deltas on_abort", None),
        (AsyncBlobLogging, "log_blob_content on_commit", None),
        (PhysicalLogging, "log_blob_content on_commit", None),
        (recovery_mod, "recover_state", None),
    ],
    "sha": [(FastSha256, "update digest state resume copy", None),
            (Sha256, "update digest state resume copy", None)],
    "wal": [
        (WalWriter, "append group_commit_flush sync_flush checkpoint "
                    "reset durable_records", None),
        (wal_writer_mod, "scan_region", None),
        (recovery_mod, "scan_region", None),
    ],
    "buffer": [
        (BufferPoolBase, "allocate_frame fetch_extents unpin write_back "
                         "flush_batch flush_all_dirty drop get_frame "
                         "drop_all_volatile", None),
        (VmcachePool, "read_blob", None),
        (HashTablePool, "read_blob", None),
        (AliasingManager, "acquire release", None),
        (BlobView, "contiguous copy_to_client release", None),
    ],
    "io": [(IoScheduler, "submit_read submit_write drain", None)],
    "storage": [
        (SimulatedNVMe, "submit read write write_bytes verify_range", None),
        (RetryPolicy, "run", None),
    ],
    "fuse": [
        (FuseMount, "open read_bytes listdir stat exists", None),
        (DbFile, "read seek close", None),
        (BlobFuse, "getattr readdir readdir_recursive subtree_statfs open "
                   "read flush release attach_namespace", None),
    ],
    "namespace": [(NamespaceIndex, "build apply_events note_put note_delete "
                                   "resolve subtree subtree_stats", None)],
    "net": [
        (ReplicatedBlobServer, "put get read_any delete multiput multiget",
         None),
        (TransportProfile, "charge_exchange", None),
    ],
    "shard": [(ShardRouter, "shard_of partition charge_fanout", None)],
    "replica": [
        (ReplicatedShardedBlobDB, "drain crash_primary rejoin", None),
        (ReplicaGroup, "put delete get read_any catch_up drain "
                       "crash_primary failover rejoin", "model"),
        (ReplicaMember, "apply", "model"),
    ],
    "sched": [
        (EventLoop, "run put call_at spawn drain_workers", "self"),
        (Resource, "admit", None),
    ],
    "baselines": [
        (FsStoreAdapter, "put get replace delete", None),
        (DbmsStoreAdapter, "put get delete", None),
        (SimulatedFilesystem, "write_file read_file unlink stat pwrite "
                              "pread ftruncate writeback", None),
        (DbmsBlobStoreBase, "put get delete flush", None),
    ],
}

#: ``sim`` is count-only: every charge ends in one of these two calls.
_CHARGE_POINTS = (VirtualClock, "advance advance_to")

_SLOTS = 8          # code, op, parent, clock, h0, h1, v0, v1
_H0, _H1, _V0, _V1 = 4, 5, 6, 7
_PHASE, _OP = 0, 1  # codes of the two spans the driver opens itself


class Tracer:
    """In-memory span store plus the few counts taken at the boundaries."""

    def __init__(self) -> None:
        self.spans = array("q")
        self.codes: list[tuple[str, str]] = [("driver", "phase"),
                                             ("driver", "op")]
        #: Open spans: (offset into ``spans``, clock object, clock id).
        self.stack: list[tuple] = []
        self.clocks: list = []
        self.op = -1
        self.charges = 0
        self.sha_bytes = 0
        #: Index objects seen at the boundary (for ``index.height``).
        self.indexes: dict[int, object] = {}

    def code(self, layer: str, name: str) -> int:
        self.codes.append((layer, name))
        return len(self.codes) - 1

    def clock_id(self, clock) -> int:
        for cid, known in enumerate(self.clocks):
            if known is clock:
                return cid
        self.clocks.append(clock)
        return len(self.clocks) - 1

    # -- spans the driver opens itself ---------------------------------------

    def _open(self, code: int, clock, cid: int) -> None:
        parent = self.stack[-1][0] if self.stack else -1
        base = len(self.spans)
        self.spans.extend((code, self.op, parent, cid,
                           time.perf_counter_ns(), 0, clock.now_ns, 0))
        self.stack.append((base, clock, cid))

    def _close(self) -> None:
        base, clock, _ = self.stack.pop()
        self.spans[base + _V1] = clock.now_ns
        self.spans[base + _H1] = time.perf_counter_ns()

    def begin_phase(self, clock) -> None:
        """Root span of one measured phase, on the clock the client sees."""
        if self.stack:
            raise RuntimeError("a traced phase is already open")
        self._open(_PHASE, clock, self.clock_id(clock))

    def end_phase(self) -> None:
        if len(self.stack) != 1:
            raise RuntimeError(f"{len(self.stack)} spans open at phase end")
        self._close()

    def begin_op(self, op_id: int, clock=None) -> None:
        """One request: every span below carries ``op_id``.  ``clock``
        defaults to the enclosing span's."""
        self.op = op_id
        if clock is None:
            _, clock, cid = self.stack[-1]
        else:
            cid = self.clock_id(clock)
        self._open(_OP, clock, cid)

    def end_op(self) -> None:
        self._close()
        self.op = -1

    # -- folding ---------------------------------------------------------------

    def fold(self) -> dict:
        """Self time per call name and per layer: a span's duration minus
        what its child spans cover (children on another clock keep their
        virtual time to themselves; ``overlapping`` says it happened)."""
        spans = self.spans
        n = len(spans) // _SLOTS
        host_self = [0] * n
        sim_self = [0] * n
        overlapping = False
        for i in range(n):
            b = i * _SLOTS
            host = spans[b + _H1] - spans[b + _H0]
            sim = spans[b + _V1] - spans[b + _V0]
            host_self[i] += host
            sim_self[i] += sim
            parent = spans[b + 2]
            if parent < 0:
                continue
            host_self[parent // _SLOTS] -= host
            if spans[parent + 3] == spans[b + 3]:
                sim_self[parent // _SLOTS] -= sim
            else:
                overlapping = True
        names: dict[str, dict[str, int]] = {}
        layers: dict[str, dict[str, int]] = {}
        for i in range(n):
            layer, name = self.codes[spans[i * _SLOTS]]
            for table, key in ((names, f"{layer}.{name}"), (layers, layer)):
                agg = table.setdefault(key, {"calls": 0, "host_ns": 0,
                                             "sim_ns": 0})
                agg["calls"] += 1
                agg["host_ns"] += host_self[i]
                agg["sim_ns"] += sim_self[i]
        return {"layers": layers, "names": names, "spans": n,
                "overlapping": overlapping}


def _wrapper(tracer: Tracer, code: int, fn, clock_kind, hook):
    spans = tracer.spans
    stack = tracer.stack
    now = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        if not stack:               # outside a traced phase: untouched
            return fn(*args, **kwargs)
        parent, clock, cid = stack[-1]
        if clock_kind is not None:
            clock = args[0] if clock_kind == "self" else args[0].model.clock
            cid = tracer.clock_id(clock)
        if hook is not None:
            hook(tracer, args)
        base = len(spans)
        spans.extend((code, tracer.op, parent, cid, now(), 0,
                      clock.now_ns, 0))
        stack.append((base, clock, cid))
        try:
            return fn(*args, **kwargs)
        finally:
            spans[base + _V1] = clock.now_ns
            spans[base + _H1] = now()
            stack.pop()
    return wrapper


def _count_sha_bytes(tracer: Tracer, args) -> None:
    tracer.sha_bytes += len(args[1])


def _note_index(tracer: Tracer, args) -> None:
    tracer.indexes[id(args[0])] = args[0]


_HOOKS = {(FastSha256, "update"): _count_sha_bytes,
          (Sha256, "update"): _count_sha_bytes,
          (BTree, "lookup"): _note_index,
          (ArtTree, "lookup"): _note_index,
          (LearnedIndex, "lookup"): _note_index}


def _definers(owner, name: str):
    """``owner`` and every loaded subclass that defines ``name`` itself."""
    if inspect.ismodule(owner):
        return [owner] if name in vars(owner) else []
    found, todo, seen = [], [owner], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if name in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every boundary method; returns what :func:`uninstall` needs."""
    saved: list[tuple] = []

    def replace(owner, name, make) -> None:
        if any(o is owner and n == name for o, n, _ in saved):
            raise ValueError(f"boundary table wraps {owner.__name__}.{name} "
                             f"twice")
        raw = vars(owner)[name]
        fn = raw.__func__ if isinstance(raw, (classmethod,
                                               staticmethod)) else raw
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{owner.__name__}.{name} is a generator; "
                            f"it cannot be span-wrapped")
        new = make(fn)
        if isinstance(raw, classmethod):
            new = classmethod(new)
        elif isinstance(raw, staticmethod):
            new = staticmethod(new)
        saved.append((owner, name, raw))
        setattr(owner, name, new)

    for layer, entries in BOUNDARIES.items():
        for owner, names, clock_kind in entries:
            for name in names.split():
                definers = _definers(owner, name)
                if not definers:
                    raise AttributeError(
                        f"boundary table names {owner.__name__}.{name}, "
                        f"which the program no longer defines")
                for definer in definers:
                    code = tracer.code(layer, name)
                    hook = _HOOKS.get((owner, name))
                    replace(definer, name,
                            lambda fn, c=code, h=hook, k=clock_kind:
                            _wrapper(tracer, c, fn, k, h))

    def counting(fn):
        def charge(*args):
            if tracer.stack:
                tracer.charges += 1
            return fn(*args)
        return charge

    owner, names = _CHARGE_POINTS
    for name in names.split():
        replace(owner, name, counting)
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, name, raw in reversed(saved):
        setattr(owner, name, raw)
