"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``demo``     — a two-minute cross-system comparison (throughput and
  write amplification for a chosen payload size) on the simulated
  testbed;
* ``survey``   — the measured Table I design survey;
* ``figures``  — run the full paper-reproduction benchmark suite
  (delegates to pytest; needs the repository checkout);
* ``faultsweep`` — seeded fault-injection sweep: hundreds of
  crash/recover schedules under torn writes, bit flips, and transient
  I/O errors, with a reproducibility digest;
* ``trace``    — run a pinned-seed workload with the tracer attached
  and emit a Chrome ``trace_event`` JSON (open in about:tracing or
  Perfetto); byte-identical across runs of the same seed;
* ``lint``     — AST determinism/invariant lint (``RPRxxx`` rules) over
  the source tree; exits 1 on findings, ``--json`` for a CI report;
* ``sanitize`` — run a pinned-seed workload with the runtime
  latch/WAL-ordering sanitizer attached; exits 1 on violations;
* ``race``     — seeded schedule-space exploration: re-run one traffic
  workload under N tie-break perturbations with the happens-before
  race detector, latch/WAL sanitizer, and replication invariants
  checked on every schedule; exits 1 on any race, violation, or
  digest divergence;
* ``info``     — version and default-configuration summary.

``demo``, ``survey``, and ``faultsweep`` accept ``--json`` for
machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.bench.adapters import ALL_SYSTEMS, make_store
    from repro.bench.harness import human_throughput, print_table, run_ycsb
    from repro.workloads.ycsb import YcsbConfig

    payload = args.payload_kb * 1024
    config = YcsbConfig(n_records=max(4, args.records), payload=payload,
                        read_ratio=0.5)
    systems = ALL_SYSTEMS if args.all else (
        "our", "our.physlog", "ext4.ordered", "ext4.journal", "sqlite",
        "postgresql")
    rows = []
    records = []
    for name in systems:
        store = make_store(name, capacity_bytes=1 << 30,
                           buffer_bytes=256 << 20)
        result = run_ycsb(store, config, n_ops=args.ops)
        written = store.device.stats.bytes_written
        amplification = written / (config.n_records + args.ops / 2) / payload
        rows.append([name, human_throughput(result.throughput_ops_s),
                     f"{result.per_op_us:.1f}", f"{amplification:.2f}x"])
        records.append({
            "system": name,
            "throughput_ops_s": round(result.throughput_ops_s, 1),
            "per_op_us": round(result.per_op_us, 2),
            "bytes_written_per_payload": round(amplification, 3),
        })
    if args.json:
        _emit_json({"payload_kb": args.payload_kb, "ops": args.ops,
                    "systems": records})
        return 0
    print_table(
        f"Demo: YCSB {args.payload_kb} KB payload, 50% reads "
        f"({args.ops} ops, simulated time)",
        ["system", "txn/s", "us/op", "~bytes written/payload"], rows)
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    from repro.bench.adapters import make_store
    from repro.bench.harness import print_table

    payload = 256 * 1024
    copies_per_byte = {}
    for name in ("our", "ext4.ordered", "ext4.journal", "postgresql",
                 "sqlite", "mysql"):
        store = make_store(name, capacity_bytes=1 << 30)
        before = store.device.stats.snapshot()
        store.put(b"probe", b"\x6b" * payload)
        if hasattr(store, "db"):
            store.db.checkpoint()
        elif hasattr(store, "fs"):
            store.fs.writeback()
        elif hasattr(store, "store"):
            store.store.flush()
        delta = store.device.stats.delta_since(before)
        copies_per_byte[name] = sum(
            delta.bytes_written_by_category.get(c, 0)
            for c in ("data", "wal", "journal", "dwb", "index")) / payload
    if args.json:
        _emit_json({"payload_bytes": payload,
                    "copies_per_byte": {name: round(copies, 4)
                                        for name, copies
                                        in copies_per_byte.items()}})
        return 0
    print_table("Design survey: content copies per BLOB byte (measured)",
                ["system", "copies/byte"],
                [[name, f"{copies:.2f}x"]
                 for name, copies in copies_per_byte.items()])
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    import pathlib
    import subprocess  # repro: allow[RPR005] CLI delegates to pytest on the host

    bench_dir = pathlib.Path.cwd() / "benchmarks"
    if not bench_dir.is_dir():
        print("benchmarks/ not found — run from the repository checkout",
              file=sys.stderr)
        return 2
    return subprocess.call(  # repro: allow[RPR005] CLI delegates to pytest on the host
        [sys.executable, "-m", "pytest",
         str(bench_dir), "--benchmark-only", "-s"])


def _cmd_faultsweep(args: argparse.Namespace) -> int:
    from repro.bench.faultsweep import run_sweep

    report = run_sweep(n_schedules=args.schedules, seed=args.seed)
    if args.json:
        _emit_json({
            "n_schedules": report.n_schedules,
            "seed": args.seed,
            "clean": report.clean,
            "reported": report.reported,
            "silent": report.silent,
            "faults": report.faults,
            "io_retries": report.io_retries,
            "wal_records_truncated": report.wal_records_truncated,
            "keys_quarantined": report.keys_quarantined,
            "digest": report.digest,
        })
    else:
        print(f"Fault sweep: {args.schedules} seeded schedules "
              f"(base seed {args.seed})")
        print(report.format())
    if report.silent:
        print("FAILED: silent corruption detected", file=sys.stderr)
        return 1
    return 0


#: Workloads the ``trace`` subcommand can drive (pinned-seed, engine
#: ``our``): 4 KB YCSB rows, 100 KB YCSB BLOBs, the Wikipedia corpus.
TRACE_WORKLOADS = ("ycsb", "ycsb-blob", "wikipedia")


def _drive_traced_workload(store, workload: str, seed: int,
                           n_ops: int) -> int:
    """Run one pinned-seed workload against ``store``; returns op count."""
    if workload == "wikipedia":
        from repro.workloads.wikipedia import WikipediaCorpus

        corpus = WikipediaCorpus(n_articles=40, seed=seed)
        for article in corpus.articles:
            store.put(article.title, corpus.content(article))
        sample = corpus.view_sampler(seed=seed + 1)
        for i in range(n_ops):
            article = sample()
            if i % 10 == 9:
                store.replace(article.title, corpus.content(article))
            else:
                store.get(article.title)
        return n_ops
    from repro.workloads.ycsb import YcsbConfig, YcsbWorkload

    payload = 100 * 1024 if workload == "ycsb-blob" else 4096
    generator = YcsbWorkload(YcsbConfig(
        n_records=16, payload=payload, read_ratio=0.5, seed=seed))
    for key, data in generator.load_phase():
        store.put(key, data)
    for op, key, data in generator.operations(n_ops):
        if op == "read":
            store.get(key)
        else:
            store.replace(key, data)
    return n_ops


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.bench.adapters import make_store

    store = make_store("our", capacity_bytes=1 << 30,
                       buffer_bytes=256 << 20)
    tracer = obs.attach(store.model, max_events=args.max_events)
    _drive_traced_workload(store, args.workload, args.seed, args.ops)
    trace_json = obs.to_chrome_trace(
        tracer, label=f"{args.workload}-seed{args.seed}")
    if args.out == "-":
        print(trace_json)
    else:
        # Finished trace artifacts are host files by design.
        with open(args.out, "w", encoding="utf-8") as fh:  # repro: allow[RPR004] host trace artifact
            fh.write(trace_json)
            fh.write("\n")
        print(f"wrote {args.out} ({len(tracer.events)} events, "
              f"{tracer.dropped_events} dropped)", file=sys.stderr)
    if args.flamegraph:
        with open(args.flamegraph, "w", encoding="utf-8") as fh:  # repro: allow[RPR004] host flamegraph artifact
            fh.write(obs.to_collapsed_stacks(tracer))
        print(f"wrote {args.flamegraph}", file=sys.stderr)
    if args.summary:
        print(obs.format_span_summary(tracer), file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint as linter

    paths = args.paths or ["src/repro"]
    files = linter.iter_python_files(paths)
    findings = linter.lint_paths(paths)
    if args.json_out:
        report = linter.render_json(findings, files_scanned=len(files))
        with open(args.json_out, "w", encoding="utf-8") as fh:  # repro: allow[RPR004] host report artifact
            fh.write(report)
        print(f"wrote {args.json_out}", file=sys.stderr)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"FAILED: {len(findings)} lint finding(s) across "
              f"{len(files)} files scanned", file=sys.stderr)
        return 1
    if not files:
        # An empty scan is almost always a CI misconfiguration (wrong
        # path, wrong checkout); say so instead of a silent exit 0.
        print("lint OK: 0 files scanned, 0 findings — no Python files "
              "under the given paths")
        return 0
    print(f"lint OK: {len(files)} files scanned, 0 findings")
    return 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.analysis import attach_sanitizer
    from repro.bench.adapters import make_store

    store = make_store(args.system, capacity_bytes=1 << 30,
                       buffer_bytes=256 << 20,
                       group_commit_window_ns=args.window_ns)
    san = attach_sanitizer(store.model, mode="collect")
    _drive_traced_workload(store, args.workload, args.seed, args.ops)
    if args.checkpoint and hasattr(store, "db"):
        store.db.checkpoint()
    print(san.format_summary())
    if san.stats.violations:
        print(f"FAILED: {san.stats.violations} invariant violation(s)",
              file=sys.stderr)
        return 1
    print("sanitizer OK: no latch or WAL-ordering violations")
    return 0


def _cmd_race(args: argparse.Namespace) -> int:
    from repro.analysis.explorer import ScheduleExplorer

    explorer = ScheduleExplorer(schedules=args.schedules, seed=args.seed)
    result = explorer.explore()
    print("race detector self-check OK: planted race detected, "
          "guarded control clean")
    print(result.format_summary())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:  # repro: allow[RPR004] host report artifact
            fh.write(json.dumps(result.to_dict(), indent=2,
                                sort_keys=True))
            fh.write("\n")
        print(f"wrote {args.json_out}", file=sys.stderr)
    if not result.ok:
        print(f"FAILED: {result.races} race(s), "
              f"{result.sanitizer_violations} sanitizer violation(s), "
              f"{len(result.invariant_failures)} invariant failure(s)",
              file=sys.stderr)
        return 1
    print(f"race exploration OK: {result.schedules} schedules, "
          f"store digest invariant, zero races")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.db.config import EngineConfig

    config = EngineConfig()
    print(f"repro {repro.__version__} — reproduction of "
          f"'Why Files If You Have a DBMS?' (ICDE 2024)")
    print(f"default engine: pool={config.pool}, "
          f"log_policy={config.log_policy}, "
          f"concurrency={config.concurrency}, "
          f"index={config.index_structure}")
    print(f"device {config.device_pages * config.page_size >> 20} MiB, "
          f"buffer pool {config.buffer_pool_pages * config.page_size >> 20} "
          f"MiB, WAL {config.wal_pages * config.page_size >> 20} MiB")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Single-flush BLOB storage engine (paper reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="quick cross-system comparison")
    demo.add_argument("--payload-kb", type=int, default=100)
    demo.add_argument("--ops", type=int, default=200)
    demo.add_argument("--records", type=int, default=24)
    demo.add_argument("--all", action="store_true",
                      help="include every system (slower)")
    demo.add_argument("--json", action="store_true",
                      help="machine-readable output")
    demo.set_defaults(func=_cmd_demo)

    survey = sub.add_parser("survey", help="measured Table I design survey")
    survey.add_argument("--json", action="store_true",
                        help="machine-readable output")
    survey.set_defaults(func=_cmd_survey)

    figures = sub.add_parser("figures",
                             help="regenerate every paper figure/table")
    figures.set_defaults(func=_cmd_figures)

    sweep = sub.add_parser("faultsweep",
                           help="seeded fault-injection sweep")
    sweep.add_argument("--schedules", type=int, default=200)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--json", action="store_true",
                       help="machine-readable output")
    sweep.set_defaults(func=_cmd_faultsweep)

    trace = sub.add_parser(
        "trace", help="record a deterministic Chrome trace of a workload")
    trace.add_argument("workload", choices=TRACE_WORKLOADS)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--ops", type=int, default=120)
    trace.add_argument("--out", default="-",
                       help="Chrome trace JSON path ('-' for stdout)")
    trace.add_argument("--flamegraph", metavar="PATH",
                       help="also write collapsed-stack flamegraph text")
    trace.add_argument("--summary", action="store_true",
                       help="print a span-time summary to stderr")
    trace.add_argument("--max-events", type=int, default=500_000)
    trace.set_defaults(func=_cmd_trace)

    lint = sub.add_parser(
        "lint", help="AST determinism/invariant lint over the source tree")
    lint.add_argument("paths", nargs="*",
                      help="files or directories (default: src/repro)")
    lint.add_argument("--json", dest="json_out", metavar="PATH",
                      help="also write a machine-readable JSON report")
    lint.set_defaults(func=_cmd_lint)

    sanitize = sub.add_parser(
        "sanitize",
        help="run a workload with the latch/WAL-order sanitizer attached")
    sanitize.add_argument("workload", choices=TRACE_WORKLOADS)
    sanitize.add_argument("--system", choices=("our", "our.physlog"),
                          default="our")
    sanitize.add_argument("--seed", type=int, default=0)
    sanitize.add_argument("--ops", type=int, default=120)
    sanitize.add_argument("--checkpoint", action="store_true",
                          help="force a checkpoint at the end (exercises "
                               "the write-back path)")
    sanitize.add_argument("--window-ns", type=float, default=200_000.0,
                          help="group-commit window in simulated ns "
                               "(0 disables; default 200us so the async "
                               "cross-worker commit path is sanitized)")
    sanitize.set_defaults(func=_cmd_sanitize)

    race = sub.add_parser(
        "race",
        help="happens-before race detection over explored schedules")
    race.add_argument("--schedules", type=int, default=100,
                      help="tie-break seeds to explore (default 100)")
    race.add_argument("--seed", type=int, default=0,
                      help="base seed; schedule i uses a derived seed")
    race.add_argument("--json", dest="json_out", metavar="PATH",
                      help="also write the exploration digest report")
    race.set_defaults(func=_cmd_race)

    info = sub.add_parser("info", help="version and configuration")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
