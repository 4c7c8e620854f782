"""The traffic simulator: open-loop arrivals over the real engine.

:class:`TrafficSim` is the seam the ROADMAP names: instead of scaling
one worker's trace by ``n_workers / n_shards``
(:class:`~repro.sim.workers.WorkerSim`), it runs a pool of
:data:`~repro.sched.loop.SimWorker` coroutines on a discrete
:class:`~repro.sched.loop.EventLoop`.  Every operation is executed *for
real* against a :class:`~repro.db.BlobDB` shard — real bytes, real WAL,
real buffer pool, priced by the shard's own
:class:`~repro.sim.cost.CostModel` — and the measured demand is then
*scheduled*: the I/O-bound portion joins the shard device's FIFO
submission queue (an :class:`~repro.sched.loop.Io` command, the
event-loop analogue of an :class:`~repro.io.IoScheduler` ticket), while
the CPU/memory remainder overlaps freely across workers
(:class:`~repro.sched.loop.Delay`).

Two drive modes:

* :meth:`run` — **open loop**: a pre-generated arrival schedule
  (:func:`repro.sched.arrivals.generate_jobs`) fires on the loop
  timeline regardless of backend progress, optionally through an
  :class:`~repro.sched.admission.AdmissionController`.  This is the
  mode that can show saturation knees, queue growth, and shed counts.
* :meth:`run_closed` — **closed loop**: each worker issues its next op
  the moment the previous completes.  At one worker this degenerates to
  the engine's own serial timeline, which is the cross-check anchor
  against ``WorkerSim`` (see ``tests/test_sched_traffic.py``).

Latency, wait, and service times land in ``repro.obs`` histograms
(``sched.latency_ns``/``sched.wait_ns``/``sched.service_ns``, p999
included), with exact ``sched.offered``/``admitted``/``shed``/
``completed`` counters per tenant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.sched.admission import ADMIT, QUEUE, AdmissionController
from repro.sched.arrivals import Job, op_for
from repro.sched.loop import (Acquire, Delay, EventLoop, Io, JobQueue,
                              Release, Resource, Take, TieBreak)
from repro.shard.router import shard_index


@dataclass
class TrafficConfig:
    """Shape of the simulated serving fleet and its keyspace."""

    n_workers: int = 4
    n_shards: int = 1
    n_keys: int = 48          # per tenant
    payload_bytes: int = 4096
    read_ratio: float = 0.5
    seed: int = 0
    device_bytes: int = 1 << 30
    buffer_bytes: int = 64 << 20

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("need at least one worker")
        if self.n_shards < 1:
            raise ValueError("need at least one shard")
        if self.n_keys < 1:
            raise ValueError("need at least one key per tenant")


@dataclass
class TrafficResult:
    """Everything one traffic run is judged by — all virtual-time exact."""

    offered: int
    admitted: int
    shed: int
    completed: int
    elapsed_ns: int
    throughput_ops_s: float
    latency: dict[str, float]
    wait: dict[str, float]
    service: dict[str, float]
    shed_by_tenant: dict[int, int]
    queued_ops: int
    max_dispatch_depth: int
    payload_bytes: int
    bytes_written: int
    metrics: MetricsRegistry = field(repr=False, default=None)

    @property
    def write_amplification(self) -> float:
        if not self.payload_bytes:
            return 0.0
        return self.bytes_written / self.payload_bytes

    def as_dict(self) -> dict:
        """Canonical plain-data form (JSON-ready, stable key order)."""
        return {
            "ops": self.completed,
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "elapsed_virtual_ms": round(self.elapsed_ns / 1e6, 3),
            "throughput_ops_s": round(self.throughput_ops_s, 1),
            "latency_us": {
                "mean": round(self.latency["mean"] / 1000, 2),
                "p50": round(self.latency["p50"] / 1000, 2),
                "p95": round(self.latency["p95"] / 1000, 2),
                "p99": round(self.latency["p99"] / 1000, 2),
                "p999": round(self.latency["p999"] / 1000, 2),
                "max": round(self.latency["max"] / 1000, 2),
            },
            "wait_us": {
                "mean": round(self.wait["mean"] / 1000, 2),
                "p99": round(self.wait["p99"] / 1000, 2),
                "p999": round(self.wait["p999"] / 1000, 2),
            },
            "service_us": {
                "mean": round(self.service["mean"] / 1000, 2),
                "p99": round(self.service["p99"] / 1000, 2),
            },
            "shed_by_tenant": {str(k): v for k, v in
                               sorted(self.shed_by_tenant.items())},
            "queued_ops": self.queued_ops,
            "max_dispatch_depth": self.max_dispatch_depth,
            "payload_bytes": self.payload_bytes,
            "write_amplification": round(self.write_amplification, 4),
        }


class TrafficSim:
    """Drives real engine ops under a discrete-event worker pool."""

    def __init__(self, config: TrafficConfig | None = None,
                 admission: AdmissionController | None = None,
                 tiebreak: TieBreak | None = None) -> None:
        from repro.bench.adapters import make_store

        self.config = config or TrafficConfig()
        self.admission = admission
        self.loop = EventLoop(tiebreak=tiebreak)
        self.metrics = MetricsRegistry()
        self._stores = [
            make_store("our", capacity_bytes=self.config.device_bytes,
                       buffer_bytes=self.config.buffer_bytes)
            for _ in range(self.config.n_shards)]
        self._shard_res = [Resource(f"shard{i}.device")
                           for i in range(self.config.n_shards)]
        #: One mutex per shard engine: a worker holds it across its
        #: synchronous engine call (`_execute`), because BlobDB mutates
        #: shared frames/WAL state non-reentrantly.  Acquire/Release
        #: cost zero virtual time, so an uncontended lock (or a
        #: single-worker run) is byte-identical to the unlocked engine.
        self._shard_lock = [Resource(f"shard{i}.engine")
                            for i in range(self.config.n_shards)]
        self._dispatch = JobQueue()
        self._preloaded: set[int] = set()
        self._written_base = 0
        self._completed: list[tuple[Job, int, int, int]] = []
        self._first_arrival_ns: int | None = None
        self.max_dispatch_depth = 0
        self.payload_bytes = 0

    # -- instrumentation -----------------------------------------------------

    def attach_race(self, mode: str = "collect"):
        """Attach a happens-before detector to every shared surface.

        Binds one :class:`~repro.analysis.race.RaceDetector` to the
        loop, a per-shard :class:`~repro.analysis.race.RaceScope` to
        each engine's cost model (frames + WAL append), and an
        ``admission`` scope to the token buckets.  Returns the detector.
        """
        from repro.analysis.race import attach_race_detector

        detector = attach_race_detector(self.loop, mode=mode)
        for i, store in enumerate(self._stores):
            store.model.race = detector.scope(f"shard{i}")
        if self.admission is not None:
            self.admission.race = detector.scope("admission")
        return detector

    # -- keyspace ------------------------------------------------------------

    def shard_of(self, key: bytes) -> int:
        """Pure function of the key bytes (the router's scheme, unpriced)."""
        return shard_index(key, self.config.n_shards)

    def preload(self, tenants: int) -> None:
        """Populate every tenant's keyspace once, off the traffic clock."""
        import random

        cfg = self.config
        for tenant in range(tenants):
            if tenant in self._preloaded:
                continue
            self._preloaded.add(tenant)
            for idx in range(cfg.n_keys):
                key = b"t%02d-key%08d" % (tenant, idx)
                data = random.Random(
                    cfg.seed * 31 + tenant * cfg.n_keys + idx).randbytes(
                        cfg.payload_bytes)
                self._stores[self.shard_of(key)].put(key, data)
        # Preload writes are setup, not traffic: write amplification is
        # measured over the bytes the op stream itself pushed.
        self._written_base = sum(store.device.stats.bytes_written
                                 for store in self._stores)

    # -- execution -----------------------------------------------------------

    def _execute(self, job: Job) -> tuple[int, int]:
        """Run ``job`` on its shard's engine; return (demand, io) ns.

        The shard's virtual clock advances by the op's full isolated
        cost; the *traffic* timeline replays that demand through the
        event loop, serializing only the I/O-bound portion on the shard
        device.
        """
        store = self._stores[self.shard_of(job.key)]
        model = store.model
        start_ns = model.clock.now_ns
        io_start = model.io_time_ns
        if job.kind == "read":
            data = store.get(job.key)
            if len(data) == 0:
                raise AssertionError(f"empty read for {job.key!r}")
        else:
            store.replace(job.key, job.payload)
            self.payload_bytes += len(job.payload)
        demand_ns = model.clock.now_ns - start_ns
        io_ns = min(int(model.io_time_ns - io_start), demand_ns)
        return demand_ns, io_ns

    def _worker(self, wid: int):
        """One pool worker: take a job, execute, schedule its demand."""
        while True:
            job = yield Take(self._dispatch)
            start_ns = self.loop.now_ns
            shard = self.shard_of(job.key)
            yield Acquire(self._shard_lock[shard])
            demand_ns, io_ns = self._execute(job)
            yield Release(self._shard_lock[shard])
            if io_ns > 0:
                yield Io(self._shard_res[shard], io_ns)
            rest_ns = demand_ns - io_ns
            if rest_ns > 0:
                yield Delay(rest_ns)
            self._record(job, start_ns, demand_ns)

    def _record(self, job: Job, start_ns: int, demand_ns: int) -> None:
        done_ns = self.loop.now_ns
        latency_ns = done_ns - job.arrive_ns
        wait_ns = start_ns - job.arrive_ns
        self._completed.append((job, start_ns, done_ns, demand_ns))
        self.metrics.histogram("sched.latency_ns").observe(latency_ns)
        self.metrics.histogram("sched.wait_ns").observe(wait_ns)
        self.metrics.histogram("sched.service_ns").observe(demand_ns)
        self.metrics.counter("sched.completed").add(
            1, tenant=str(job.tenant))

    # -- open loop -----------------------------------------------------------

    def _arrive(self, job: Job) -> None:
        counters = self.metrics
        counters.counter("sched.offered").add(1, tenant=str(job.tenant))
        depth = len(self._dispatch)
        self.max_dispatch_depth = max(self.max_dispatch_depth, depth)
        counters.histogram("sched.queue_depth").observe(depth)
        if self.admission is None:
            self.loop.put(self._dispatch, job)
            return
        decision, dispatch_ns = self.admission.decide(
            job.tenant, self.loop.now_ns)
        if decision == ADMIT:
            self.loop.put(self._dispatch, job)
        elif decision == QUEUE:
            self.loop.call_at(
                dispatch_ns, lambda j=job: self.loop.put(self._dispatch, j))
        else:
            counters.counter("sched.shed").add(1, tenant=str(job.tenant))

    def run(self, jobs: list[Job]) -> TrafficResult:
        """Open loop: fire ``jobs`` at their arrival times and drain."""
        self.preload(max((job.tenant for job in jobs), default=-1) + 1)
        if jobs:
            self._first_arrival_ns = min(j.arrive_ns for j in jobs)
        workers = [self._worker(i) for i in range(self.config.n_workers)]
        for i, worker in enumerate(workers):
            if self.loop.race is not None:
                self.loop.race.register(worker, f"worker{i}")
            self.loop.spawn(worker)
        for job in jobs:
            self.loop.call_at(job.arrive_ns,
                              lambda j=job: self._arrive(j))
        self.loop.run()
        self.loop.drain_workers(workers)
        return self._result(len(jobs))

    # -- closed loop ---------------------------------------------------------

    def _closed_worker(self, pending: list[Job]):
        """Pull-driven worker: next op starts when the previous ends."""
        while pending:
            job = pending.pop(0)
            arrive_ns = self.loop.now_ns
            job = Job(tenant=job.tenant, index=job.index,
                      arrive_ns=arrive_ns, kind=job.kind, key=job.key,
                      payload=job.payload)
            self.metrics.counter("sched.offered").add(
                1, tenant=str(job.tenant))
            shard = self.shard_of(job.key)
            yield Acquire(self._shard_lock[shard])
            demand_ns, io_ns = self._execute(job)
            yield Release(self._shard_lock[shard])
            if io_ns > 0:
                yield Io(self._shard_res[shard], io_ns)
            rest_ns = demand_ns - io_ns
            if rest_ns > 0:
                yield Delay(rest_ns)
            self._record(job, arrive_ns, demand_ns)

    def run_closed(self, n_ops: int, tenants: int = 1) -> TrafficResult:
        """Closed loop: ``n_ops`` total ops, issued as workers free up.

        This is the mode comparable to ``WorkerSim``: offered load
        equals capacity by construction, so its throughput *is* the
        fleet's service capacity — the calibration point the open-loop
        sweeps express their arrival rates against.
        """
        cfg = self.config
        self.preload(tenants)
        pending = []
        for i in range(n_ops):
            tenant = i % tenants
            kind, key, payload = op_for(
                tenant, i, seed=cfg.seed, n_keys=cfg.n_keys,
                payload_bytes=cfg.payload_bytes,
                read_ratio=cfg.read_ratio)
            pending.append(Job(tenant=tenant, index=i, arrive_ns=0,
                               kind=kind, key=key, payload=payload))
        self._first_arrival_ns = 0
        workers = [self._closed_worker(pending)
                   for _ in range(cfg.n_workers)]
        for i, worker in enumerate(workers):
            if self.loop.race is not None:
                self.loop.race.register(worker, f"worker{i}")
            self.loop.spawn(worker)
        self.loop.run()
        self.loop.drain_workers(workers)
        return self._result(n_ops)

    # -- results -------------------------------------------------------------

    def _result(self, offered: int) -> TrafficResult:
        shed_counter = self.metrics.counters.get("sched.shed")
        shed_by_tenant = {}
        shed = 0
        if shed_counter is not None:
            for key, value in sorted(shed_counter.values.items()):
                tenant = int(dict(key)["tenant"])
                shed_by_tenant[tenant] = value
                shed += value
        completed = len(self._completed)
        start_ns = self._first_arrival_ns or 0
        elapsed_ns = max(0, self.loop.now_ns - start_ns)
        bytes_written = sum(store.device.stats.bytes_written
                            for store in self._stores) - self._written_base
        latency = self.metrics.histogram("sched.latency_ns").summary()
        wait = self.metrics.histogram("sched.wait_ns").summary()
        service = self.metrics.histogram("sched.service_ns").summary()
        queued = 0
        if self.admission is not None:
            queued = self.admission.stats.total(
                self.admission.stats.queued)
        return TrafficResult(
            offered=offered,
            admitted=offered - shed,
            shed=shed,
            completed=completed,
            elapsed_ns=elapsed_ns,
            throughput_ops_s=completed * 1e9 / elapsed_ns
            if elapsed_ns else 0.0,
            latency=latency,
            wait=wait,
            service=service,
            shed_by_tenant=shed_by_tenant,
            queued_ops=queued,
            max_dispatch_depth=self.max_dispatch_depth,
            payload_bytes=self.payload_bytes,
            bytes_written=bytes_written,
            metrics=self.metrics,
        )
