"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1`` — print the simulated-machine configuration.
* ``run`` — run one workload under one scheme/lifeguard and print the
  result summary, time breakdown and any violations.
* ``figure6`` / ``figure7`` / ``figure8`` — regenerate a paper figure.
* ``diff`` — the cross-scheme differential sweep (``--jobs N`` fans
  cells over worker processes; ``--checkpoint``/``--resume`` make an
  interrupted sweep restartable).
* ``archive`` — record once: run a seeded racy program under live
  parallel monitoring and persist its captured order as a ``.plog``
  trace archive (plus a ``.manifest.json`` sidecar).
* ``replay`` — replay many: re-monitor a trace archive under any (or
  all) lifeguards straight from disk, no CMP re-simulation
  (``--jobs N`` fans lifeguards over worker processes;
  ``--verify-live`` re-captures the run the archive names, asserts the
  file is byte-identical to it and runs the differential check with
  its replay leg).
* ``headline`` — the abstract's three claims.
* ``swaptions`` — the Section 7 swaptions analysis.
* ``serve`` — the long-lived monitoring service: submit runs over REST,
  stream verdicts + trace events live via Server-Sent Events (forwards
  to ``python -m repro.serve``; see its ``--help``).
* ``list`` — available workloads and lifeguards.

Commands parsed here exit 2 on a bad flag, including an output path whose
directory does not exist (checked before any work starts).

``run`` exit codes: 0 success, 3 diagnosed deadlock/livelock
(:class:`~repro.common.errors.DeadlockError`; pass ``--crash-report`` to
dump the wait-for-graph diagnostics as JSON), 4 cycle budget exceeded
(:class:`~repro.common.errors.SimulationTimeout`).
"""

from __future__ import annotations

import argparse
import sys

from repro.common.argtypes import non_negative_int, output_path, \
    positive_float, positive_int
from repro.common.config import CaptureMode, MemoryModel, ScalePreset, \
    SimulationConfig
from repro.common.errors import ConfigurationError, SimulationError, \
    SimulationTimeout
from repro.cpu.engine import Watchdog
from repro.faults import (
    EXIT_ABNORMAL,
    EXIT_BUDGET_EXCEEDED,
    FaultPlan,
    parse_fault_spec,
)
from repro.eval import (
    figure6,
    figure7,
    figure8,
    format_table,
    headline_summary,
    swaptions_analysis,
    table1_setup,
)
from repro.eval.reporting import (
    render_figure6,
    render_figure7,
    render_figure8,
    render_mapping,
)
from repro.lifeguards import LIFEGUARDS
from repro.platform import (
    AcceleratorConfig,
    run_no_monitoring,
    run_parallel_monitoring,
    run_timesliced_monitoring,
    write_crash_report,
)
from repro.trace import (
    CATEGORIES,
    DEFAULT_RING_EVENTS,
    TraceWriter,
    parse_trace_filter,
)
from repro.workloads import PAPER_BENCHMARKS, WORKLOADS, build_workload


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=positive_int, default=2,
                        help="application threads (default 2)")
    parser.add_argument("--scale", choices=[s.value for s in ScalePreset],
                        default="tiny", help="workload scale preset")
    parser.add_argument("--seed", type=int, default=1)


def _add_sweep(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lifeguard", choices=sorted(LIFEGUARDS),
                        default="taintcheck")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="benchmark subset (default: the Table 1 suite)")
    parser.add_argument("--max-threads", type=positive_int, default=4)
    parser.add_argument("--scale", choices=[s.value for s in ScalePreset],
                        default="tiny")
    parser.add_argument("--seed", type=int, default=1)


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                        help="worker processes for independent sweep cells "
                             "(default 1: serial, bit-identical output)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ParaLog (ASPLOS 2010) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table 1 configuration") \
        .add_argument("--threads", type=positive_int, default=8)

    run_parser = sub.add_parser("run", help="run one monitored workload")
    run_parser.add_argument("workload", choices=sorted(WORKLOADS))
    _add_common(run_parser)
    run_parser.add_argument("--lifeguard", choices=sorted(LIFEGUARDS),
                            default="taintcheck")
    run_parser.add_argument("--scheme",
                            choices=["parallel", "timesliced", "none"],
                            default="parallel")
    run_parser.add_argument("--memory-model",
                            choices=[m.value for m in MemoryModel],
                            default="sc")
    run_parser.add_argument("--capture",
                            choices=[c.value for c in CaptureMode],
                            default="per_block")
    run_parser.add_argument("--no-accel", action="store_true",
                            help="disable IT/IF/M-TLB")
    run_parser.add_argument("--max-cycles", type=int, default=None,
                            help="abort with exit code 4 past this "
                                 "simulated cycle budget")
    run_parser.add_argument("--watchdog", type=non_negative_int,
                            default=None,
                            metavar="WINDOW",
                            help="enable the livelock watchdog with this "
                                 "cycle window")
    run_parser.add_argument("--inject", action="append", default=[],
                            metavar="SITE:ACTION[:MOD...]",
                            help="inject a fault (repeatable), e.g. "
                                 "ca_mark:drop:t1 or lifeguard:kill:t0")
    run_parser.add_argument("--fault-seed", type=int, default=0,
                            help="seed for probabilistic fault decisions")
    run_parser.add_argument("--crash-report", metavar="PATH", default=None,
                            type=output_path,
                            help="on deadlock/livelock/timeout, write the "
                                 "JSON diagnostics here (includes the "
                                 "last-N flight-recorder events)")
    run_parser.add_argument("--trace", metavar="PATH", default=None,
                            type=output_path,
                            help="stream flight-recorder events to PATH "
                                 "as JSONL ('-' for stdout); safe to "
                                 "tail -f while the run is live")
    run_parser.add_argument("--trace-filter", metavar="CATS", default="all",
                            help="comma-separated event categories "
                                 f"({','.join(CATEGORIES)}; default all)")
    run_parser.add_argument("--trace-ring", type=int, metavar="N",
                            default=DEFAULT_RING_EVENTS,
                            help="events kept for the crash-report ring "
                                 f"buffer (default {DEFAULT_RING_EVENTS})")

    for name in ("figure6", "figure7"):
        _add_sweep(sub.add_parser(name, help=f"regenerate {name}"))
        sub.choices[name].add_argument(
            "--thread-counts", type=int, nargs="*", default=None)
        _add_jobs(sub.choices[name])

    fig8 = sub.add_parser("figure8", help="regenerate figure 8")
    _add_sweep(fig8)
    _add_jobs(fig8)

    diff = sub.add_parser(
        "diff", help="cross-scheme differential sweep over seeded racy "
                     "programs (repro.trace.diff)")
    diff.add_argument("--seeds", type=non_negative_int, default=25,
                      metavar="N",
                      help="run seeds 0..N-1 (default 25)")
    diff.add_argument("--lifeguards", nargs="*", default=None,
                      choices=sorted(LIFEGUARDS),
                      help="lifeguard subset (default: all)")
    diff.add_argument("--threads", type=positive_int, default=2)
    diff.add_argument("--length", type=non_negative_int, default=18,
                      help="random ops per thread script (default 18)")
    diff.add_argument("--output", metavar="PATH", default=None,
                      type=output_path,
                      help="write the merged report payloads as JSON")
    _add_jobs(diff)
    diff.add_argument("--checkpoint", metavar="PATH", default=None,
                      help="JSONL checkpoint for interrupted-sweep resume")
    diff.add_argument("--resume", action="store_true",
                      help="skip cells already in --checkpoint")
    diff.add_argument("--timeout", type=positive_float, default=None,
                      metavar="SEC",
                      help="per-cell wall-clock timeout (runs the cells "
                           "in worker processes)")
    diff.add_argument("--retries", type=non_negative_int, default=1,
                      help="extra attempts per failing cell (default 1)")
    diff.add_argument("--inject-worker", action="append", default=[],
                      metavar="SITE:ACTION[:MOD...]",
                      help="chaos-inject a worker-level fault (repeatable), "
                           "e.g. worker:kill:after=2 or "
                           "worker:hang:after=1:count=1:param=60; runs the "
                           "cells in worker processes")
    diff.add_argument("--fault-seed", type=int, default=0,
                      help="seed for the worker fault plans")
    diff.add_argument("--trace", metavar="PATH", default=None,
                      type=output_path,
                      help="stream sweep flight-recorder events to PATH "
                           "as JSONL ('-' for stdout); safe to tail -f "
                           "while the sweep is live")
    diff.add_argument("--trace-filter", metavar="CATS", default="jobs",
                      help="comma-separated event categories (default "
                           "jobs: the sweep's own events — "
                           "simulator events stay in the workers)")

    archive = sub.add_parser(
        "archive", help="record once: archive a live monitored run's "
                        "captured order to a .plog file (repro.replay)")
    archive.add_argument("output", metavar="ARCHIVE", type=output_path,
                         help="archive path to write (manifest sidecar "
                              "lands at ARCHIVE.manifest.json)")
    archive.add_argument("--seed", type=int, default=1)
    archive.add_argument("--lifeguard", choices=sorted(LIFEGUARDS),
                         default="taintcheck",
                         help="lifeguard monitoring the capture run "
                              "(default taintcheck; the archive itself "
                              "replays under any lifeguard)")
    archive.add_argument("--threads", type=positive_int, default=2)
    archive.add_argument("--length", type=non_negative_int, default=18,
                         help="random ops per thread script (default 18)")

    rep = sub.add_parser(
        "replay", help="replay many: re-monitor a trace archive from "
                       "disk under one or all lifeguards (repro.replay)")
    rep.add_argument("archive", metavar="ARCHIVE",
                     help="a .plog file written by `repro archive`")
    rep.add_argument("--lifeguards", nargs="*", default=None,
                     metavar="NAME",
                     help="lifeguard subset, or 'all' (default: all)")
    rep.add_argument("--verify-live", action="store_true",
                     help="re-run the live capture (from the archive's "
                          "meta block), assert the archive is "
                          "byte-identical to it, and run the "
                          "differential check with its replay leg")
    rep.add_argument("--output", metavar="PATH", default=None,
                     type=output_path,
                     help="write the per-lifeguard replay payloads as "
                          "JSON (canonical form)")
    _add_jobs(rep)

    headline = sub.add_parser("headline", help="the abstract's claims")
    _add_sweep(headline)

    swaptions = sub.add_parser("swaptions",
                               help="the Section 7 swaptions analysis")
    swaptions.add_argument("--threads", type=positive_int, default=4)
    swaptions.add_argument("--scale",
                           choices=[s.value for s in ScalePreset],
                           default="tiny")
    swaptions.add_argument("--seed", type=int, default=1)

    serve = sub.add_parser(
        "serve", help="monitoring-as-a-service job server: REST run "
                      "submission + live SSE verdict/trace streaming "
                      "(repro.serve)",
        add_help=False)
    serve.add_argument("serve_args", nargs=argparse.REMAINDER,
                       help="arguments forwarded to repro.serve")

    sub.add_parser("list", help="available workloads and lifeguards")
    return parser


def _cmd_run(args) -> int:
    config = SimulationConfig.for_threads(
        args.threads,
        memory_model=MemoryModel(args.memory_model),
        capture_mode=CaptureMode(args.capture),
    )
    scale = ScalePreset(args.scale)
    workload = build_workload(args.workload, args.threads, scale, args.seed)
    lifeguard = LIFEGUARDS[args.lifeguard]
    fault_plan = None
    if args.inject:
        try:
            fault_plan = FaultPlan(
                faults=tuple(parse_fault_spec(spec) for spec in args.inject),
                seed=args.fault_seed)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    watchdog = Watchdog(args.watchdog) if args.watchdog else None
    tracer = None
    if args.trace or args.crash_report:
        # --crash-report alone arms a silent ring buffer so a failing
        # run's report still carries its last-N flight-recorder events.
        try:
            categories = parse_trace_filter(args.trace_filter)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ring = args.trace_ring if args.crash_report else 0
        if args.trace == "-":
            tracer = TraceWriter(stream=sys.stdout, categories=categories,
                                 ring=ring)
        elif args.trace:
            tracer = TraceWriter.to_path(args.trace, categories=categories,
                                         ring=ring)
        else:
            tracer = TraceWriter(categories=categories, ring=ring)
    try:
        if args.scheme == "none":
            if fault_plan is not None:
                print("note: --inject has no effect with --scheme none "
                      "(no monitoring pipeline to fault)", file=sys.stderr)
            result = run_no_monitoring(workload, config, watchdog=watchdog,
                                       max_cycles=args.max_cycles,
                                       tracer=tracer)
        elif args.scheme == "timesliced":
            result = run_timesliced_monitoring(
                workload, lifeguard, config, fault_plan=fault_plan,
                watchdog=watchdog, max_cycles=args.max_cycles,
                tracer=tracer)
        else:
            accel = (AcceleratorConfig.all_off() if args.no_accel
                     else AcceleratorConfig.all_on())
            result = run_parallel_monitoring(
                workload, lifeguard, config, accel=accel,
                fault_plan=fault_plan, watchdog=watchdog,
                max_cycles=args.max_cycles, tracer=tracer)
    except SimulationError as exc:
        # DeadlockError and SimulationTimeout both derive from
        # SimulationError; so do the integrity checks (lost CA
        # broadcast, un-drained log) that fault injection can trip.
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        if args.crash_report:
            path = write_crash_report(exc, args.crash_report, tracer=tracer)
            print(f"crash report written to {path}", file=sys.stderr)
        return (EXIT_BUDGET_EXCEEDED if isinstance(exc, SimulationTimeout)
                else EXIT_ABNORMAL)
    finally:
        if tracer is not None:
            tracer.close()
    print(result.summary())
    breakdown = result.lifeguard_breakdown()
    if breakdown:
        rows = [(bucket, f"{100 * share:.1f}%")
                for bucket, share in sorted(breakdown.items())]
        print(format_table(["lifeguard time", "share"], rows))
    if result.violations:
        print("\nviolations:")
        for violation in result.violations:
            print(f"  [{violation.kind}] t{violation.tid}#{violation.rid} "
                  f"{violation.detail}")
    interesting = ("arcs_recorded", "arcs_reduced", "ca_broadcasts",
                   "events_delivered", "events_filtered", "it_absorbed",
                   "dependence_stalls", "ca_stalls")
    rows = [(key, result.stats[key]) for key in interesting
            if key in result.stats]
    if rows:
        print()
        print(format_table(["stat", "value"], rows))
    return 0


def _cmd_diff(args) -> int:
    """The differential sweep as a first-class subcommand.

    Exit codes: 0 all cells ok, 1 verdict/oracle divergence or a sweep
    cell failing terminally in a worker, 3 interrupted (the checkpoint
    is synced before exiting, so ``--resume`` picks up cleanly).
    """
    import json

    from repro.faults import WORKER_FAULT_SITES
    from repro.trace.diff import differential_sweep, report_payload

    try:
        worker_faults = tuple(parse_fault_spec(spec)
                              for spec in args.inject_worker)
        for fault in worker_faults:
            if fault.site not in WORKER_FAULT_SITES:
                raise ConfigurationError(
                    f"--inject-worker only accepts the worker sites "
                    f"{WORKER_FAULT_SITES}, not {fault.site!r}")
            if fault.tid is not None:
                raise ConfigurationError(
                    "--inject-worker faults cannot target a tid (pool "
                    "workers have no stable ids); scope them with "
                    "after=/count=")
        if args.trace == "-":
            tracer = TraceWriter(
                stream=sys.stdout,
                categories=parse_trace_filter(args.trace_filter))
        elif args.trace:
            tracer = TraceWriter.to_path(
                args.trace, categories=parse_trace_filter(args.trace_filter))
        else:
            tracer = None
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        reports = differential_sweep(
            range(args.seeds), lifeguards=args.lifeguards or None,
            nthreads=args.threads, length=args.length, jobs=args.jobs,
            checkpoint_path=args.checkpoint, resume=args.resume,
            timeout=args.timeout, retries=args.retries,
            worker_faults=worker_faults, fault_seed=args.fault_seed,
            tracer=tracer)
    except KeyboardInterrupt:
        # The runner already synced the checkpoint; exit with the
        # documented abnormal code so scripts can distinguish an
        # interrupted (resumable) sweep from a failed one.
        print("interrupted: checkpoint synced; re-run with --resume",
              file=sys.stderr)
        return EXIT_ABNORMAL
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.trace and args.trace != "-":
            tracer.close()
    if args.output:
        with open(args.output, "w") as handle:
            json.dump([report_payload(report) for report in reports],
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
    bad = [report for report in reports if not report.ok]
    for report in bad:
        print(report.summary())
    print(f"differential sweep: {len(reports)} cells, {len(bad)} failed")
    return 1 if bad else 0


def _cmd_archive(args) -> int:
    """Record once: capture a live run into a persistent trace archive."""
    from repro.replay import capture_archive, write_manifest_json

    result, manifest = capture_archive(
        args.output, args.seed, lifeguard=args.lifeguard,
        nthreads=args.threads, length=args.length)
    manifest_path = write_manifest_json(manifest,
                                        args.output + ".manifest.json")
    totals = manifest["totals"]
    print(f"archived seed {args.seed} ({args.lifeguard}, "
          f"t{args.threads}): {totals['records']} records, "
          f"{totals['stream_bytes']} bytes "
          f"-> {args.output}")
    print(f"  arcs: {totals['arc_bytes']} bytes reduced "
          f"(naive full-arc: {totals['naive_arc_bytes']} bytes)")
    print(f"  bytes/instruction: "
          f"{totals['stream_bytes'] / result.instructions:.2f}")
    print(f"  manifest: {manifest_path}")
    if result.violations:
        print(f"  live violations: {len(result.violations)}")
    return 0


def _cmd_replay(args) -> int:
    """Replay many: fan an archive out to lifeguards, optionally
    verifying byte-identity against a fresh live run.

    Exit codes: 0 replay (and any --verify-live differential) clean,
    1 divergence or worker failure, 2 bad archive / bad arguments.
    """
    import json

    from repro.common.errors import TraceFormatError
    from repro.replay import TraceReader, replay_all

    names = args.lifeguards or None
    if names and "all" in names:
        names = None
    try:
        reader = TraceReader(args.archive)
        payloads = replay_all(args.archive, lifeguards=names,
                              jobs=args.jobs)
    except (TraceFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta = reader.meta
    print(f"replayed {args.archive} "
          f"(seed {meta.get('seed')}, captured under "
          f"{meta.get('lifeguard')}) under {len(payloads)} lifeguards:")
    for name in sorted(payloads):
        payload = payloads[name]
        print(f"  {name}: {payload['records']} records, "
              f"{len(payload['violations'])} violations, "
              f"verdicts={payload['verdicts']}")
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payloads, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.verify_live:
        return _verify_live(args.archive, reader)
    return 0


def _verify_live(path: str, reader) -> int:
    """``replay --verify-live``: the archive must be byte-identical to a
    live re-capture of the run its meta block names, and that run must
    pass the differential check with its replay leg.

    Exit codes: 0 verified, 1 divergence, 2 the archive cannot be
    re-captured (no `repro archive` meta block, or a machine config
    other than the default one for its thread count).
    """
    import os
    import tempfile

    from repro.replay import capture_archive, config_digest
    from repro.trace.diff import differential_check

    meta = reader.meta
    seed, lifeguard, nthreads, length = (
        meta.get(key) for key in ("seed", "lifeguard", "nthreads", "length"))
    if not (isinstance(seed, int) and lifeguard in sorted(LIFEGUARDS)
            and isinstance(nthreads, int) and nthreads >= 1
            and isinstance(length, int) and length >= 0):
        print(f"error: --verify-live needs a `repro archive` meta block "
              f"(seed, lifeguard, nthreads, length), not {meta!r}",
              file=sys.stderr)
        return 2
    config = SimulationConfig.for_threads(nthreads)
    if reader.manifest.get("config_digest") != config_digest(config):
        print(f"error: --verify-live re-captures under the default "
              f"{nthreads}-thread machine config, but {path} was captured "
              f"under another (config_digest differs)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        recaptured = os.path.join(tmp, "live.plog")
        capture_archive(recaptured, seed, lifeguard=lifeguard,
                        nthreads=nthreads, length=length, config=config)
        with open(recaptured, "rb") as handle:
            live_bytes = handle.read()
    with open(path, "rb") as handle:
        if handle.read() != live_bytes:
            print(f"FAIL: {path} is not byte-identical to a live "
                  f"re-capture of seed {seed} ({lifeguard}, "
                  f"t{nthreads}, length {length})")
            return 1
    report = differential_check(seed, lifeguard, nthreads, length, config,
                                replay=True)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_figure(args, benches, scale) -> int:
    """Regenerate one paper figure; exit 1 if a cell fails."""
    try:
        if args.command == "figure8":
            print(render_figure8(figure8(args.lifeguard, benches,
                                         args.max_threads, scale, args.seed,
                                         jobs=args.jobs)))
            return 0
        counts = tuple(args.thread_counts
                       or [t for t in (1, 2, 4, 8) if t <= args.max_threads])
        figure, render = ((figure6, render_figure6)
                          if args.command == "figure6"
                          else (figure7, render_figure7))
        print(render(figure(args.lifeguard, benches, counts, scale,
                            args.seed, jobs=args.jobs)))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code.

    Ctrl-C anywhere exits with :data:`~repro.faults.EXIT_ABNORMAL` (3);
    sweeps with a ``--checkpoint`` have already synced it by then, so an
    interrupted invocation is always safe to ``--resume``.
    """
    try:
        return _dispatch(sys.argv[1:] if argv is None else argv)
    except KeyboardInterrupt:
        return EXIT_ABNORMAL


def _dispatch(argv) -> int:
    """Parse ``argv`` and run the selected subcommand."""
    # `serve` owns its argument vocabulary (argparse REMAINDER rejects
    # unknown leading options, so dispatch before the main parse) and
    # its own clean Ctrl-C shutdown path, which must return 0, not
    # EXIT_ABNORMAL.
    if argv and argv[0] == "serve":
        from repro.serve import main as serve_main
        return serve_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "diff" and args.resume and not args.checkpoint:
        parser.error("diff: --resume requires --checkpoint")

    if args.command == "table1":
        print(render_mapping("Table 1: simulated machine",
                             dict(table1_setup(args.threads))))
        return 0

    if args.command == "list":
        print(format_table(
            ["workload", "paper suite"],
            [(name, "yes" if name in PAPER_BENCHMARKS else "")
             for name in sorted(WORKLOADS)]))
        print()
        print(format_table(["lifeguard", "class"],
                           [(name, cls.__name__)
                            for name, cls in sorted(LIFEGUARDS.items())]))
        return 0

    if args.command == "run":
        return _cmd_run(args)

    if args.command == "diff":
        return _cmd_diff(args)

    if args.command == "archive":
        return _cmd_archive(args)

    if args.command == "replay":
        return _cmd_replay(args)

    if args.command == "swaptions":
        print(render_mapping(
            "Section 7 swaptions analysis",
            swaptions_analysis(args.threads, ScalePreset(args.scale),
                               args.seed)))
        return 0

    scale = ScalePreset(args.scale)
    benches = tuple(args.benchmarks or PAPER_BENCHMARKS)

    if args.command in ("figure6", "figure7", "figure8"):
        return _cmd_figure(args, benches, scale)
    if args.command == "headline":
        summary = headline_summary(benches, args.max_threads, scale,
                                   args.seed)
        rows = []
        for key, value in summary.items():
            if isinstance(value, dict):
                rows.extend((f"{key}.{inner}", inner_value)
                            for inner, inner_value in value.items())
            else:
                rows.append((key, value))
        print(format_table(["metric", "value"], rows))
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
