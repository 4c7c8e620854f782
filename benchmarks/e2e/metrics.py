"""The one place every benchmark metric is defined.

``BENCHMARK.json`` lists the same names, units, directions and bounds;
``test_smoke.py`` asserts the two agree.  Every number names its clock:

* ``sim``  — read from a :class:`~repro.sim.clock.VirtualClock` (or the
  event-loop timeline); a pure function of (code, seed) and must repeat
  bit for bit;
* ``host`` — CPU seconds (``time.process_time``) of the single-threaded
  child, or ``perf_counter_ns`` around one call for per-op latencies;
* ``count`` — a ratio of exact counters, equally reproducible as ``sim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: CPU seconds the measured phase of every workload is sized to at
#: ``--scale 1`` on the reference box; ``--seconds S`` means scale S / 5.
RUN_SECONDS = 5

WORKLOADS = ("ycsb_hot", "ycsb_cold", "wiki_files", "cluster_open",
             "paper_cross")

#: The repo's packages, in request order, plus the harness itself.
LAYERS = ("db", "index", "core", "sha", "wal", "buffer", "io", "storage",
          "fuse", "namespace", "net", "shard", "replica", "sched",
          "baselines", "driver")

#: Non-Our systems `paper_cross` replays the op stream on.
RIVALS = ("ext4.ordered", "ext4.journal", "xfs", "btrfs", "f2fs",
          "sqlite", "postgresql", "mysql")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str            # "sim" | "host" | "count"
    better: str           # "higher" | "lower"
    #: Share of the parent's median by which the metric may get worse.
    #: ``None`` for per-layer metrics, which explain and do not gate.
    bound: float | None = None


#: End-to-end metrics of the untraced run.  The bounds are the contract's:
#: they are judged on medians over ten *different* seeds, so each is at
#: least three times the widest seed-to-seed spread any workload showed
#: for the metric when the benchmark was defined (README.md lists them),
#: not the 1 % (simulated) / 10 % (host) a same-seed comparison needs.
#: Same-seed runs are asserted bit-identical by ``--check-repeat``.
END_TO_END = (
    Metric("sim_ops_per_s", "1/s", "sim", "higher", 0.10),
    Metric("sim_read_p50_us", "us", "sim", "lower", 0.15),
    Metric("sim_read_p99_us", "us", "sim", "lower", 0.25),
    Metric("sim_write_p50_us", "us", "sim", "lower", 0.10),
    Metric("sim_write_p99_us", "us", "sim", "lower", 0.25),
    Metric("write_amp", "x", "count", "lower", 0.10),
    Metric("space_amp", "x", "count", "lower", 0.05),
    Metric("sim_recovery_ms", "ms", "sim", "lower", 0.10),
    Metric("host_ops_per_s", "1/s", "host", "higher", 0.15),
    Metric("host_read_us_p50", "us", "host", "lower", 0.25),
    Metric("host_write_us_p50", "us", "host", "lower", 0.15),
    Metric("setup_s", "s", "host", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "host", "lower", 0.10),
)

#: End-to-end metrics of a single workload, and the failure share whose
#: healthy value is 0.  The contract wants every end-to-end metric from
#: every workload and never 0, so ``BENCHMARK.json`` cannot carry these
#: three as bounded rows: the first two are exported with the traced
#: run, ``fail_share`` as the contract's ``failed`` / ``attempted``; the
#: harness itself gates all three (self-checks and ``--check-repeat``).
WORKLOAD_E2E = (
    Metric("slo_rate_ops_s", "1/s", "sim", "higher", 0.0),    # cluster_open
    Metric("sim_vs_best_rival", "x", "sim", "higher", 0.05),  # paper_cross
    Metric("fail_share", "ratio", "count", "lower", 0.0),
)


def _per_layer() -> tuple[Metric, ...]:
    out = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.calls_per_op", "count", "count", "lower"))
        out.append(Metric(f"{layer}.host_self_us_per_op", "us", "host",
                          "lower"))
        out.append(Metric(f"{layer}.sim_self_ns_per_op", "ns", "sim",
                          "lower"))

    def m(name, unit, clock, better="lower"):
        out.append(Metric(name, unit, clock, better))

    m("sim.charges_per_op", "count", "count")
    for share in ("kernel", "memory", "io", "wal_flush"):
        m(f"sim.{share}_share", "ratio", "sim")
    m("buffer.hit_ratio", "ratio", "count", "higher")
    m("buffer.evictions_per_op", "count", "count")
    m("buffer.writebacks_per_op", "count", "count")
    m("index.height", "count", "count")
    m("wal.bytes_per_user_byte", "x", "count")
    m("wal.commits_per_drain", "count", "count", "higher")
    m("wal.checkpoints", "count", "count")
    m("io.coalesce_ratio", "ratio", "count", "higher")
    m("io.drains_per_op", "count", "count")
    m("io.requests_out_per_op", "count", "count")
    m("storage.read_reqs_per_op", "count", "count")
    m("storage.write_reqs_per_op", "count", "count")
    m("storage.read_bytes_per_op", "B", "count")
    m("storage.bytes_per_write_req", "B", "count", "higher")
    for cat in ("data", "wal", "meta"):
        m(f"storage.written_per_user_byte.{cat}", "x", "count")
    m("core.extents_per_blob", "count", "count")
    m("core.reuse_ratio", "ratio", "count", "higher")
    m("core.alloc_utilization", "ratio", "count")
    m("sha.bytes_per_user_byte", "x", "count")
    m("namespace.range_scans_per_op", "count", "count")
    m("namespace.renumbers", "count", "count")
    m("net.roundtrips_per_op", "count", "count")
    m("net.wire_bytes_per_user_byte", "x", "count")
    m("shard.fanout_mean", "count", "count")
    m("shard.imbalance", "x", "count")
    m("replica.records_shipped_per_write", "count", "count")
    m("replica.ship_retries", "count", "count")
    m("replica.max_lag_records", "count", "count")
    m("replica.stale_reads", "count", "count")
    m("sched.worker_util", "ratio", "sim")
    m("sched.wait_share", "ratio", "sim")
    m("sched.events_per_op", "count", "count")
    m("sched.host_us_per_event", "us", "host")
    m("sched.generator_lag_us", "us", "sim")
    for rung in range(1, 6):
        m(f"sched.rung{rung}.p50_us", "us", "sim")
        m(f"sched.rung{rung}.p99_us", "us", "sim")
    for system in RIVALS:
        m(f"baselines.sim_ops_per_s.{system}", "1/s", "sim", "higher")
        m(f"baselines.host_us_per_op.{system}", "us", "host")
    m("trace.overhead_ratio", "x", "host")
    m("trace.spans_per_op", "count", "count")
    m("slo_rate_ops_s", "1/s", "sim", "higher")
    m("sim_vs_best_rival", "x", "sim", "higher")
    return tuple(out)


PER_LAYER = _per_layer()


def quantile(sorted_samples: list[int], q: float) -> int:
    """Exact nearest-rank quantile of raw, already sorted samples."""
    if not sorted_samples:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``."""
    return n - max(1, math.ceil(q * n))
