#!/usr/bin/env python3
"""The benchmark of record: five workloads, two clocks, layers from outside.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--scale F]
                                  [--no-trace] [--json OUT] [--check-repeat]

runs the workloads one at a time, each in a fresh single-threaded child
process, prints every metric by name with its unit and clock, verifies
the outputs, and exits non-zero on any failed check.  After the untraced
run (end-to-end metrics) the child repeats the first quarter of the same
op stream twice on fresh systems — once plain, once with spans recorded
by ``trace.py`` — for the per-layer metrics and the observer checks.

The benchmark contract's driver calls the same file as

    run.py --workload W --seed N --seconds S --trace 0|1

which runs one workload in this process (``--seconds`` S means scale
S / 5) and prints one JSON object as the last line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

See README.md in this directory for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: the program under test is missing ({SRC}/repro)")
sys.path[:0] = [str(HERE), str(SRC)]

import repro.obs                                            # noqa: E402
from metrics import (END_TO_END, LAYERS, PER_LAYER,          # noqa: E402
                     RUN_SECONDS, WORKLOAD_E2E, WORKLOADS, quantile,
                     samples_beyond)
from trace import Tracer, install, uninstall                # noqa: E402
from workloads import (BUILDERS, READ, WRITE, Samples,      # noqa: E402
                       engine_digest)

#: ``setup_s`` is the median of this many set-ups.  The first one in a
#: process also pays the first touch of every heap page (seconds of
#: system time for the 2 GiB of ``paper_cross``, and several-fold noisy
#: from run to run); the median is one of the later ones.
SETUP_REPEATS = 3
PREFIX_SHARE = 0.25


# -- one workload, in this process ---------------------------------------------

def run_workload(name: str, seed: int, scale: float, trace: bool) -> dict:
    wl = BUILDERS[name](seed, scale)             # inputs, before any timer
    setup_s = []
    for _ in range(SETUP_REPEATS):
        state = None                             # free the previous system
        c0 = time.process_time()
        state = wl.setup()
        setup_s.append(time.process_time() - c0)
    before = wl.counters(state)
    samples = wl.measure(state, wl.ops)
    after = wl.counters(state)
    delta = {key: after[key] - before[key] for key in after}
    fin = wl.finish(state, before, samples)
    del state

    e2e = end_to_end(wl, samples, fin, statistics.median(setup_s))
    enforced = scale >= 1       # smaller scales shrink the datasets too
    checks = [check(label, ok, detail, enforced)
              for label, ok, detail in wl.self_checks(delta, samples)]
    for kind in (READ, WRITE):
        n = len(samples.sim.get(kind, ()))
        checks.append(check(f">= 10 {kind} samples beyond p99",
                            samples_beyond(n, 0.99) >= 10 if n else False,
                            f"{n} samples", enforced))
    checks.append(check("no read returned wrong bytes", samples.wrong == 0,
                        samples.wrong))
    checks.append(check(
        f"every acknowledged key audited after recovery ({fin['audited']})",
        not fin["audit_failures"], fin["audit_failures"][:3]))
    result = {
        "workload": name, "seed": seed, "scale": scale,
        "attempted": samples.attempted, "failed": samples.failed,
        "errors": dict(samples.errors),
        "samples": {kind: len(v) for kind, v in sorted(samples.sim.items())},
        "e2e": e2e, "checks": checks, "per_layer": None,
        "measured_cpu_s": samples.cpu_s, "setup_runs_s": setup_s,
    }
    result.update(wl.report_extra(samples))
    if trace:
        spans, trace_checks, result["trace"] = trace_pair(wl)
        checks.extend(trace_checks)
        result["per_layer"] = {
            **counter_metrics(wl, delta, after, samples, fin), **spans}
    result["correct"] = all(c["ok"] or not c["enforced"] for c in checks)
    return result


def check(label: str, ok: bool, detail, enforced: bool = True) -> dict:
    return {"name": label, "ok": bool(ok), "detail": detail,
            "enforced": enforced}


def end_to_end(wl, samples: Samples, fin: dict, setup_s: float) -> dict:
    out = {"sim_ops_per_s": wl.sim_ops_per_s(samples)}
    for kind in (READ, WRITE):
        sim = sorted(samples.sim.get(kind, ()))
        host = sorted(samples.host.get(kind, ()))
        if sim:
            out[f"sim_{kind}_p50_us"] = quantile(sim, 0.50) / 1e3
            out[f"sim_{kind}_p99_us"] = quantile(sim, 0.99) / 1e3
            out[f"host_{kind}_us_p50"] = quantile(host, 0.50) / 1e3
    out.update({
        "write_amp": fin["write_amp"],
        "space_amp": fin["space_amp"],
        "sim_recovery_ms": fin["sim_recovery_ms"],
        "host_ops_per_s": samples.attempted / samples.cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_share": samples.failed / samples.attempted,
        **wl.e2e_extra(samples),
    })
    return out


def ratio(num, den):
    return num / den if den else None


def counter_metrics(wl, delta: dict, after: dict, samples: Samples,
                    fin: dict) -> dict:
    """Per-layer ratios of public counters over the measured phase."""
    ops = samples.extra.get("our_ops", samples.attempted)   # engine ops
    written = samples.written
    elapsed = delta["engine.clock_ns"]
    lookups = delta["pool.hits"] + delta["pool.misses"]
    allocated = delta["alloc.fresh"] + delta["alloc.reused"]
    m = {
        "sim.kernel_share": ratio(delta["engine.kernel_ns"], elapsed),
        "sim.memory_share": ratio(delta["engine.memory_ns"], elapsed),
        "sim.io_share": ratio(delta["engine.io_ns"], elapsed),
        "sim.wal_flush_share": ratio(delta["engine.wal_flush_ns"], elapsed),
        "buffer.hit_ratio": ratio(delta["pool.hits"], lookups),
        "buffer.evictions_per_op": delta["pool.evictions"] / ops,
        "buffer.writebacks_per_op": delta["pool.writebacks"] / ops,
        "wal.bytes_per_user_byte": ratio(delta["wal.bytes"], written),
        "wal.checkpoints": delta["wal.checkpoints"],
        "io.coalesce_ratio": ratio(delta["io.in"] - delta["io.out"],
                                   delta["io.in"]),
        "io.drains_per_op": delta["io.drains"] / ops,
        "io.requests_out_per_op": delta["io.out"] / ops,
        "storage.read_reqs_per_op": delta["dev.read_reqs"] / ops,
        "storage.write_reqs_per_op": delta["dev.write_reqs"] / ops,
        "storage.read_bytes_per_op": delta["dev.read_bytes"] / ops,
        "storage.bytes_per_write_req": ratio(delta["dev.written"],
                                             delta["dev.write_reqs"]),
        "core.reuse_ratio": ratio(delta["alloc.reused"], allocated),
        "core.alloc_utilization": after["alloc.pages"]
        / after["alloc.capacity"],
    }
    for cat in ("data", "wal", "meta"):
        m[f"storage.written_per_user_byte.{cat}"] = ratio(
            delta[f"dev.written.{cat}"], written)
    m.update(wl.layer_extra(delta, samples, fin))
    return {key: value for key, value in m.items() if value is not None}


# -- the traced run ---------------------------------------------------------------

def observed(wl, state, samples: Samples) -> dict:
    """Everything virtual a run leaves behind; a traced run and a plain
    run of the same inputs must agree on all of it."""
    view = {"counters": wl.counters(state), "sim_ns": samples.sim_ns,
            "latencies": samples.sim, "rungs": samples.extra.get("virtual"),
            "failed": (samples.raised, samples.wrong)}
    view["digest"] = engine_digest(wl.engines(state))   # charges the clock
    return view


def trace_pair(wl) -> tuple[dict, list[dict], dict]:
    """First quarter of the op stream on two fresh systems: plain, then
    with spans recorded.  Returns (span metrics, checks, info)."""
    prefix = wl.prefix(wl.ops, PREFIX_SHARE)
    state = wl.setup()
    plain = wl.measure(state, prefix)
    plain_view = observed(wl, state, plain)

    state = wl.setup()
    registries = [repro.obs.attach(model, capture=False).metrics
                  for model in wl.models(state)]
    tracer = Tracer()
    saved = install(tracer)
    try:
        traced = wl.measure(state, prefix, tracer)
    finally:
        uninstall(saved)
    traced_view = observed(wl, state, traced)
    del state
    fold = tracer.fold()

    ops = traced.attempted
    m = {}
    for layer in LAYERS:
        agg = fold["layers"].get(layer, {"calls": 0, "host_ns": 0,
                                         "sim_ns": 0})
        m[f"{layer}.calls_per_op"] = agg["calls"] / ops
        m[f"{layer}.host_self_us_per_op"] = agg["host_ns"] / 1e3 / ops
        m[f"{layer}.sim_self_ns_per_op"] = agg["sim_ns"] / ops
    m["trace.spans_per_op"] = fold["spans"] / ops
    m["trace.overhead_ratio"] = traced.cpu_s / plain.cpu_s
    m["sim.charges_per_op"] = tracer.charges / ops
    if traced.written:
        m["sha.bytes_per_user_byte"] = tracer.sha_bytes / traced.written
    height = max((getattr(index.stats(), "height", 0)
                  for index in tracer.indexes.values()), default=0)
    if height:
        m["index.height"] = height
    creates = fold["names"].get("core.create", {"calls": 0})["calls"]
    if creates:
        m["core.extents_per_blob"] = \
            fold["names"]["core.allocate_extent"]["calls"] / creates
    drains = sum(r.counter("wal.window_drains").total() for r in registries)
    if drains:
        m["wal.commits_per_drain"] = sum(
            r.counter("wal.window_commits").total()
            for r in registries) / drains
    if "events" in traced.extra:
        m["sched.host_us_per_event"] = \
            fold["layers"]["sched"]["host_ns"] / 1e3 / traced.extra["events"]

    sim_self = sum(agg["sim_ns"] for agg in fold["layers"].values())
    host_self = sum(agg["host_ns"] for agg in fold["layers"].values())
    differing = sorted(key for key in plain_view
                       if plain_view[key] != traced_view[key])
    checks = [
        check("zero observer effect: traced and plain prefix agree on "
              "virtual time, every counter, every latency and the store "
              "digest", not differing, differing),
        check("host self times sum to the traced wall time within 2 %",
              abs(host_self - traced.wall_ns) <= 0.02 * traced.wall_ns,
              f"{host_self} vs {traced.wall_ns} ns"),
    ]
    if fold["overlapping"]:
        note = "several clocks: per-layer virtual times overlap"
    else:
        note = "single clock"
        checks.append(check(
            "virtual self times of all layers sum to the elapsed virtual "
            "time exactly", sim_self == traced.sim_ns,
            f"{sim_self} vs {traced.sim_ns} ns"))
    info = {"prefix_ops": ops, "spans": fold["spans"], "clocks": note,
            "plain_cpu_s": plain.cpu_s, "traced_cpu_s": traced.cpu_s,
            "by_call": {name: agg for name, agg in sorted(
                fold["names"].items(), key=lambda kv: -kv[1]["host_ns"])[:12]}}
    return m, checks, info


# -- reporting ----------------------------------------------------------------------

def print_report(result: dict) -> None:
    name = result["workload"]
    print(f"\n== {name}  seed {result['seed']}  scale {result['scale']:g}  "
          f"attempted {result['attempted']}  failed {result['failed']} "
          f"{result['errors'] or ''}")
    counts = ", ".join(f"{k} {n}" for k, n in result["samples"].items())
    print(f"  end to end (untraced run; latency samples: {counts})")
    for metric in END_TO_END + WORKLOAD_E2E:
        if metric.name in result["e2e"]:
            print(f"    {metric.name:<20} {result['e2e'][metric.name]:>16.6f}"
                  f" {metric.unit:<6} {metric.clock:<5} {metric.better:<6}"
                  f" bound {metric.bound:.0%}")
    for rung in result.get("rungs", ()):
        print(f"    rung {rung['rate_ops_s']:>6} ops/s: n {rung['n']}"
              f"  p50 {rung['p50_ns'] / 1e3:.3f} us"
              f"  p99 {rung['p99_ns'] / 1e3:.3f} us"
              f"  util {rung['util']:.3f}  backlog {rung['backlog_q2']:.1f}"
              f" -> {rung['backlog_q4']:.1f}"
              f"{'  GROWING' if rung['growing'] else ''}")
    per_layer = result["per_layer"]
    if per_layer is not None:
        info = result["trace"]
        print(f"  per layer (spans: traced prefix of {info['prefix_ops']} "
              f"ops, {info['spans']} spans, {info['clocks']}; counters: "
              f"whole measured phase)")
        print(f"    {'layer':<10} {'calls/op':>10} {'host self us/op':>16} "
              f"{'sim self ns/op':>16}")
        for layer in LAYERS:
            if per_layer[f"{layer}.calls_per_op"]:
                print(f"    {layer:<10}"
                      f" {per_layer[f'{layer}.calls_per_op']:>10.3f}"
                      f" {per_layer[f'{layer}.host_self_us_per_op']:>16.3f}"
                      f" {per_layer[f'{layer}.sim_self_ns_per_op']:>16.1f}")
        for metric in PER_LAYER[3 * len(LAYERS):]:
            if metric.name in per_layer:
                print(f"    {metric.name:<40} {per_layer[metric.name]:>16.6f}"
                      f" {metric.unit:<6} {metric.clock}")
    print("  checks")
    for c in result["checks"]:
        mark = "ok  " if c["ok"] else ("FAIL" if c["enforced"] else "skip")
        print(f"    {mark} {c['name']}: {c['detail']}")


def contract_line(result: dict, trace: bool) -> str:
    """The one JSON object the benchmark contract's driver reads."""
    if trace:
        values = {m.name: (m, result["per_layer"].get(m.name, 0))
                  for m in PER_LAYER}
    else:
        values = {m.name: (m, result["e2e"][m.name]) for m in END_TO_END}
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": m.unit}
                    for name, (m, value) in values.items()}})


# -- parent: one child per workload -----------------------------------------------------

def run_child(name: str, seed: int, scale: float, trace: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", name, "--seed", str(seed), "--scale", repr(scale)]
    if not trace:
        cmd.append("--no-trace")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{name}: child exited with {done.returncode} "
                         f"and no result") from None


def run_suite(names, seed: int, scale: float, trace: bool) -> dict:
    results = {}
    for name in names:
        results[name] = run_child(name, seed, scale, trace)
        print_report(results[name])
    return results


def check_repeat(names, seed: int, scale: float) -> bool:
    """Two untraced suites of the same code must agree; a second seed
    must pass the same checks."""
    first = run_suite(names, seed, scale, False)
    second = run_suite(names, seed, scale, False)
    ok = all(r["correct"] for r in (*first.values(), *second.values()))
    print("\n== repeat: |a - b| / min(a, b) per metric "
          "(sim and count metrics must be identical)")
    for name in names:
        for metric in END_TO_END + WORKLOAD_E2E:
            a = first[name]["e2e"].get(metric.name)
            b = second[name]["e2e"].get(metric.name)
            if a is None:
                continue
            spread = abs(a - b) / min(a, b) if min(a, b) else float(a != b)
            limit = metric.bound if metric.clock == "host" else 0.0
            fine = spread <= limit
            ok &= fine
            print(f"  {'ok  ' if fine else 'FAIL'} {name:<13}"
                  f" {metric.name:<20} {a:>16.6f} {b:>16.6f}"
                  f"  spread {spread:.4%} (allowed {limit:.0%})")
    other = run_suite(names, seed + 1, scale, False)
    return ok and all(r["correct"] for r in other.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float,
                        help="multiplies every op count (default 1)")
    parser.add_argument("--seconds", type=float,
                        help=f"same as --scale SECONDS/{RUN_SECONDS}")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract mode: print one JSON result line")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    scale = args.scale if args.scale is not None else \
        args.seconds / RUN_SECONDS if args.seconds is not None else 1.0
    if scale <= 0:
        parser.error("scale must be positive")

    if args.child or args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        trace = bool(args.trace) if args.trace is not None \
            else not args.no_trace
        result = run_workload(args.workload, args.seed, scale, trace)
        if args.child:
            print(json.dumps(result))
        else:
            print_report(result)
            print(contract_line(result, trace))
        return 0 if result["correct"] else 1

    names = (args.workload,) if args.workload else WORKLOADS
    if args.check_repeat:
        ok = check_repeat(names, args.seed, scale)
        print(f"\ncheck-repeat: {'ok' if ok else 'FAILED'}")
        return 0 if ok else 1
    results = run_suite(names, args.seed, scale, not args.no_trace)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"claim": None, "seed": args.seed, "scale": scale,
             "workloads": results}, indent=1) + "\n")
    failed = [name for name, r in results.items() if not r["correct"]]
    if failed:
        print(f"\nFAILED: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
