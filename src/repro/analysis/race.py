"""Happens-before race detection for the discrete-event engine.

PR 7 replaced the analytic worker model with real coroutine workers on
an :class:`~repro.sched.loop.EventLoop`, which means the reproduction
now has genuine interleavings — and the latch/WAL sanitizer
(:mod:`repro.analysis.sanitizer`), which checks *per-page* invariants,
cannot see cross-coroutine ordering bugs.  This module is the third leg
of the verification stack: a vector-clock happens-before detector in
the FastTrack tradition, attached through the same nullable-hook
pattern as ``model.obs`` / ``model.san``.

**Tasks.**  Every atomic execution block belongs to a task: each worker
coroutine is one task, the pre-run setup context is ``main``, and all
``call`` events (arrival callbacks, deferred dispatches) run as the
single ``dispatcher`` task — the discrete-event analogue of "loop
callbacks run on the loop thread, serialized".

**Happens-before edges** (the catalogue, also in
``docs/static-analysis.md``):

1. *Program order* — blocks of one task are totally ordered.
2. *Event dispatch* — scheduling an event (``call_at``, ``spawn``, a
   resume pushed by :class:`~repro.sched.loop.Delay`/``Io``/``Take``
   handling) snapshots the scheduler's clock; the fired event joins it.
3. *Queue hand-off* — ``put`` → ``Take`` of the same item, whether
   handed to a parked worker or buffered.
4. *Lock transfer* — ``Release`` → next ``Acquire`` of the same
   :class:`~repro.sched.loop.Resource` (FIFO waiters).
5. *FIFO service* — an ``Io`` completion observes every earlier
   submitter's state *at its submit point* (service periods on one
   resource never overlap).  Note this does **not** order the blocks
   that run after two completions — that is what locks are for.
6. *Quiescence* — a fully drained loop happens-before whatever the
   caller does next (post-run digests, report formatting).

**Locations** are small tuples, e.g. ``("shard0", "frame", 17)``,
``("shard1", "wal", "append")``, ``("admission", "bucket", 3)``.  The
instrumented layers — buffer frames, the WAL writer's append position,
admission token buckets, plus anything a test reports explicitly —
call :meth:`RaceDetector.on_read` / :meth:`on_write` through a
:class:`RaceScope` bound to ``model.race``.  A write/write or
read/write pair on one location with no happens-before path between
them is reported as a :class:`RaceReport`.

Usage::

    det = attach_race_detector(loop)            # mode="collect"
    store.model.race = det.scope("shard0")      # engine-state accesses
    ... run the workload ...
    print(det.format_summary())

``mode="raise"`` throws :class:`RaceViolation` on the first race
(tests); ``mode="collect"`` records them all (the explorer and CI).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field


class RaceViolation(Exception):
    """An unsynchronized conflicting access pair was detected."""


def clock_leq(a: dict, b: dict) -> bool:
    """Component-wise ``a <= b`` — i.e. ``a`` happens-before-or-equals
    ``b``."""
    return all(v <= b.get(k, 0) for k, v in a.items())


def _join(into: dict, other: dict) -> None:
    for k, v in other.items():
        if v > into.get(k, 0):
            into[k] = v


class _Task:
    """One logical thread of execution with its vector clock."""

    __slots__ = ("name", "clock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.clock: dict = {name: 1}

    def tick(self) -> None:
        self.clock[self.name] += 1


@dataclass(frozen=True)
class RaceReport:
    """One conflicting access pair with no happens-before path."""

    location: tuple
    kind: str          # "write/write", "read/write", or "write/read"
    earlier_task: str
    later_task: str
    at_ns: int | None

    @property
    def location_str(self) -> str:
        return ".".join(str(part) for part in self.location)

    def format(self) -> str:
        when = "" if self.at_ns is None else f" at {self.at_ns} ns"
        return (f"{self.kind} race on {self.location_str}: "
                f"{self.earlier_task} and {self.later_task} are "
                f"unordered{when}")

    def to_dict(self) -> dict:
        return {
            "location": self.location_str,
            "kind": self.kind,
            "earlier_task": self.earlier_task,
            "later_task": self.later_task,
            "at_ns": self.at_ns,
        }


@dataclass
class RaceStats:
    """Hook-fire counters — nonzero counts prove instrumentation ran."""

    reads: int = 0
    writes: int = 0
    lock_acquires: int = 0
    lock_releases: int = 0
    queue_handoffs: int = 0
    resource_admits: int = 0
    events: int = 0
    races: int = 0

    def to_dict(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "lock_acquires": self.lock_acquires,
            "lock_releases": self.lock_releases,
            "queue_handoffs": self.queue_handoffs,
            "resource_admits": self.resource_admits,
            "events": self.events,
            "races": self.races,
        }


class _Location:
    """Per-location access history: last write plus per-task read clocks."""

    __slots__ = ("write_task", "write_clock", "reads")

    def __init__(self) -> None:
        self.write_task: str | None = None
        self.write_clock: dict | None = None
        self.reads: dict[str, dict] = {}


class RaceScope:
    """A prefix-binding proxy installed as ``model.race``.

    Several engines (one per shard) share one detector; each reports
    its accesses under its own prefix so ``("frame", 17)`` on shard 0
    and shard 1 are distinct locations.
    """

    __slots__ = ("detector", "prefix")

    def __init__(self, detector: "RaceDetector", prefix: str) -> None:
        self.detector = detector
        self.prefix = prefix

    def on_read(self, location: tuple) -> None:
        self.detector.on_read((self.prefix, *location))

    def on_write(self, location: tuple) -> None:
        self.detector.on_write((self.prefix, *location))


class RaceDetector:
    """Vector-clock happens-before checker over event-loop executions.

    ``mode="raise"`` throws on the first race; ``mode="collect"``
    records every race in :attr:`races` (what the explorer and the CI
    gate use).  All state is keyed by deterministic task names, so the
    report stream is itself replayable.
    """

    def __init__(self, mode: str = "collect") -> None:
        if mode not in ("raise", "collect"):
            raise ValueError(f"unknown race detector mode {mode!r}")
        self.mode = mode
        self.stats = RaceStats()
        self.races: list[RaceReport] = []
        #: Virtual-time source for report timestamps (set by
        #: :func:`attach_race_detector` to the loop's clock).
        self.now_fn = None
        self._main = _Task("main")
        self._dispatcher = _Task("dispatcher")
        self._current = self._main
        #: id(worker) -> task; names assigned in first-fire order (the
        #: loop is deterministic, so names are too) unless registered.
        self._worker_tasks: dict[int, _Task] = {}
        self._registered: dict[int, str] = {}
        self._locations: dict[tuple, _Location] = {}

    # ------------------------------------------------------------------
    # task plumbing (called by the event loop)

    def register(self, worker, name: str) -> None:
        """Give ``worker``'s task a stable human-readable name."""
        self._registered[id(worker)] = name

    def _task_for(self, worker) -> _Task:
        task = self._worker_tasks.get(id(worker))
        if task is None:
            name = self._registered.get(
                id(worker), f"task{len(self._worker_tasks)}")
            task = _Task(name)
            self._worker_tasks[id(worker)] = task
        return task

    def snapshot(self) -> dict:
        """The current block's clock, to ride along a scheduled event."""
        return dict(self._current.clock)

    def on_fire(self, hb: dict | None, kind: str, payload) -> None:
        """An event fires: switch context and join the dispatch edge."""
        self.stats.events += 1
        if kind == "call":
            task = self._dispatcher
        else:
            task = self._task_for(payload[0])
        if hb is not None:
            _join(task.clock, hb)
        task.tick()
        self._current = task

    def on_quiesce(self) -> None:
        """Drained loop: join every task into ``main`` and resume there."""
        for task in self._worker_tasks.values():
            _join(self._main.clock, task.clock)
        _join(self._main.clock, self._dispatcher.clock)
        self._main.tick()
        self._current = self._main

    # ------------------------------------------------------------------
    # synchronization edges

    def on_lock_acquire(self, resource, worker=None) -> None:
        self.stats.lock_acquires += 1
        task = self._current if worker is None else self._task_for(worker)
        if resource.hb_clock is not None:
            _join(task.clock, resource.hb_clock)

    def on_lock_release(self, resource) -> None:
        self.stats.lock_releases += 1
        resource.hb_clock = dict(self._current.clock)

    def on_resource_admit(self, resource) -> None:
        self.stats.resource_admits += 1
        if resource.hb_clock is None:
            resource.hb_clock = {}
        _join(self._current.clock, resource.hb_clock)
        _join(resource.hb_clock, self._current.clock)

    def on_queue_take(self, hb: dict) -> None:
        self.stats.queue_handoffs += 1
        _join(self._current.clock, hb)

    # ------------------------------------------------------------------
    # memory accesses

    def _now(self) -> int | None:
        return None if self.now_fn is None else int(self.now_fn())

    def _report(self, location: tuple, kind: str, earlier: str) -> None:
        self.stats.races += 1
        report = RaceReport(location=location, kind=kind,
                            earlier_task=earlier,
                            later_task=self._current.name,
                            at_ns=self._now())
        if self.mode == "raise":
            raise RaceViolation(report.format())
        self.races.append(report)

    def on_write(self, location: tuple) -> None:
        self.stats.writes += 1
        loc = self._locations.setdefault(location, _Location())
        task = self._current
        clock = task.clock
        if (loc.write_task is not None and loc.write_task != task.name
                and not clock_leq(loc.write_clock, clock)):
            self._report(location, "write/write", loc.write_task)
        for reader, read_clock in loc.reads.items():
            if reader != task.name and not clock_leq(read_clock, clock):
                self._report(location, "read/write", reader)
        loc.write_task = task.name
        loc.write_clock = dict(clock)
        loc.reads.clear()

    def on_read(self, location: tuple) -> None:
        self.stats.reads += 1
        loc = self._locations.setdefault(location, _Location())
        task = self._current
        if (loc.write_task is not None and loc.write_task != task.name
                and not clock_leq(loc.write_clock, task.clock)):
            self._report(location, "write/read", loc.write_task)
        loc.reads[task.name] = dict(task.clock)

    # ------------------------------------------------------------------
    # scoping and reporting

    def scope(self, prefix: str) -> RaceScope:
        """A proxy that prefixes every location with ``prefix`` — bind
        one per shard engine as ``model.race``."""
        return RaceScope(self, prefix)

    @property
    def current_task_name(self) -> str:
        return self._current.name

    def format_summary(self) -> str:
        stats = self.stats
        lines = [
            "race detector summary",
            f"  accesses         {stats.reads} reads, {stats.writes} "
            f"writes over {len(self._locations)} locations",
            f"  sync edges       {stats.lock_acquires} lock acquires, "
            f"{stats.lock_releases} releases, {stats.queue_handoffs} "
            f"queue hand-offs, {stats.resource_admits} admits",
            f"  events observed  {stats.events}",
            f"  races            {stats.races}",
        ]
        for report in self.races:
            lines.append(f"    {report.format()}")
        return "\n".join(lines)


def attach_race_detector(loop, mode: str = "collect") -> RaceDetector:
    """Create a :class:`RaceDetector` and attach it to ``loop.race``.

    Attach before scheduling any events: entries pushed earlier carry no
    happens-before snapshot and fall back to no-edge (conservative —
    they may produce false races, never missed ones).
    """
    detector = RaceDetector(mode=mode)
    # The loop owns the detector (``loop.race``); the clock hook holds
    # the loop weakly and is read only when a race is reported.
    loop_ref = weakref.ref(loop)
    detector.now_fn = lambda: loop_ref().now_ns
    loop.race = detector
    return detector
