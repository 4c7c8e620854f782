"""Discrete-event scheduling: event loop, open-loop traffic, admission.

The package that replaces analytic concurrency stretch
(:class:`~repro.sim.workers.WorkerSim`) with an honest discrete-event
model:

* :mod:`repro.sched.loop` — the deterministic event loop and the
  :data:`SimWorker` coroutine protocol (``Delay``/``Io``/``Take``/
  ``Acquire``/``Release``) with pluggable seeded tie-breaking;
* :mod:`repro.sched.arrivals` — seeded open-loop arrival generators
  (Poisson, diurnal-curve thinning) and pure-indexed op content;
* :mod:`repro.sched.admission` — per-tenant token buckets with
  shed/queue policies;
* :mod:`repro.sched.traffic` — :class:`TrafficSim`, wiring real engine
  ops through the loop, with p999-tracked latency histograms.

See ``docs/scheduling.md`` for the model and
``tests/test_sched_traffic.py`` for the knee and admission claims.
"""

from repro.sched.admission import (
    ADMIT,
    QUEUE,
    SHED,
    AdmissionController,
    AdmissionStats,
    TokenBucket,
)
from repro.sched.arrivals import (
    DiurnalCurve,
    Job,
    diurnal_arrivals,
    generate_jobs,
    op_for,
    poisson_arrivals,
)
from repro.sched.loop import (
    Acquire,
    Delay,
    EventLoop,
    Io,
    JobQueue,
    Release,
    Resource,
    SeededTieBreak,
    SimWorker,
    Take,
    TieBreak,
)
from repro.sched.traffic import TrafficConfig, TrafficResult, TrafficSim

__all__ = [
    "ADMIT",
    "QUEUE",
    "SHED",
    "Acquire",
    "AdmissionController",
    "AdmissionStats",
    "Delay",
    "DiurnalCurve",
    "EventLoop",
    "Io",
    "Job",
    "JobQueue",
    "Release",
    "Resource",
    "SeededTieBreak",
    "SimWorker",
    "Take",
    "TieBreak",
    "TokenBucket",
    "TrafficConfig",
    "TrafficResult",
    "TrafficSim",
    "diurnal_arrivals",
    "generate_jobs",
    "op_for",
    "poisson_arrivals",
]
