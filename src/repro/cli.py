"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1`` — print the simulated-machine configuration.
* ``run`` — run one workload under one scheme/lifeguard and print the
  result summary, time breakdown and any violations.
* ``figure6`` / ``figure7`` / ``figure8`` — regenerate a paper figure.
* ``diff`` — the cross-scheme differential sweep (``--jobs N`` fans
  cells over worker processes; every cell is deterministic, so an
  interrupted sweep is simply run again).
* ``archive`` — record once: run a seeded racy program under live
  parallel monitoring and persist its captured order as a ``.plog``
  trace archive (plus a ``.manifest.json`` sidecar).
* ``replay`` — replay many: re-monitor a trace archive under any (or
  all) lifeguards straight from disk, no CMP re-simulation, decoding
  it once (``--verify-live`` re-captures the run the archive names,
  asserts the file is byte-identical to it and runs the differential
  check with its replay leg).
* ``headline`` — the abstract's three claims.
* ``swaptions`` — the Section 7 swaptions analysis.
* ``serve`` — the long-lived monitoring service: submit runs over REST,
  stream verdicts + trace events live via Server-Sent Events
  (:func:`repro.serve.main` parses its flags; see ``serve --help``).
* ``list`` — available workloads and lifeguards.

Commands parsed here exit 2 on a bad flag, including an output path whose
directory does not exist (checked before any work starts), and 3 when
interrupted (Ctrl-C) or when stdout closes early (``| head -1``): the
output is incomplete, so run the command again.

``run`` builds the :class:`~repro.platform.spec.RunSpec` that ``POST
/runs`` builds. Its exit codes: 0 success, 3 diagnosed deadlock/livelock
(:class:`~repro.common.errors.DeadlockError`; pass ``--crash-report`` to
dump the wait-for-graph diagnostics as JSON), 4 cycle budget exceeded
(:class:`~repro.common.errors.SimulationTimeout`).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.common.argtypes import non_negative_int, output_path, \
    positive_float, positive_int
from repro.common.config import CaptureMode, MemoryModel, ScalePreset, \
    SimulationConfig
from repro.common.errors import ConfigurationError
from repro.faults import EXIT_ABNORMAL, FaultPlan, parse_fault_spec
from repro.eval import (
    figure6,
    figure7,
    figure8,
    format_table,
    headline_summary,
    swaptions_analysis,
    table1_setup,
)
from repro.eval.experiments import DEFAULT_THREADS
from repro.eval.reporting import (
    render_figure6,
    render_figure7,
    render_figure8,
    render_headline,
    render_mapping,
)
from repro.lifeguards import LIFEGUARDS
from repro.platform import MONITORED_SCHEMES, SCHEMES, write_crash_report
from repro.platform.spec import SIM_FIELDS, UNREAD_FIELDS, RunSpec
from repro.trace import CATEGORIES, DEFAULT_RING_EVENTS, open_trace
from repro.workloads import PAPER_BENCHMARKS, WORKLOADS


def _add_figure(parser: argparse.ArgumentParser) -> None:
    """A figure's sweep flags: the sweep's and ``--lifeguard``, which
    ``headline`` does not take (it measures TaintCheck and AddrCheck)."""
    parser.add_argument("--lifeguard", choices=sorted(LIFEGUARDS),
                        default="taintcheck")
    _add_sweep(parser)


def _add_sweep(parser: argparse.ArgumentParser) -> None:
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
    run_parser.add_argument("--threads", type=positive_int, default=2,
                            help="application threads (default 2)")
    run_parser.add_argument("--scale",
                            choices=[s.value for s in ScalePreset],
                            default="tiny", help="workload scale preset")
    run_parser.add_argument("--seed", type=non_negative_int, default=1)
    run_parser.add_argument("--lifeguard", choices=sorted(LIFEGUARDS),
                            default="taintcheck")
    run_parser.add_argument("--scheme",
                            choices=SCHEMES,
                            default="parallel")
    run_parser.add_argument("--memory-model",
                            choices=[m.value for m in MemoryModel],
                            default="sc")
    run_parser.add_argument("--capture",
                            choices=[c.value for c in CaptureMode],
                            default="per_block")
    run_parser.add_argument("--no-accel", action="store_true",
                            help="disable IT/IF/M-TLB")
    run_parser.add_argument("--max-cycles", type=positive_int, default=None,
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

    for name in ("figure6", "figure7"):
        _add_figure(sub.add_parser(name, help=f"regenerate {name}"))
        sub.choices[name].add_argument(
            "--thread-counts", type=positive_int, nargs="*", default=None)
        _add_jobs(sub.choices[name])

    fig8 = sub.add_parser("figure8", help="regenerate figure 8")
    _add_figure(fig8)
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
    diff.add_argument("--timeout", type=positive_float, default=None,
                      metavar="SEC",
                      help="per-cell wall-clock timeout (runs the cells "
                           "in worker processes)")
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


def run_spec(args) -> RunSpec:
    """The :class:`RunSpec` a ``repro run`` namespace names, before its
    unread fields are reset."""
    values = {name: getattr(args, name) for name in SIM_FIELDS}
    values["watchdog"] = args.watchdog or None  # --watchdog 0: off
    return RunSpec(**values)


def _cmd_run(args) -> int:
    try:
        fault_plan = FaultPlan(
            faults=tuple(parse_fault_spec(spec) for spec in args.inject),
            seed=args.fault_seed) if args.inject else None
        spec = run_spec(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ignored = spec.ignored()
    if fault_plan is not None and spec.scheme not in MONITORED_SCHEMES:
        ignored = ("inject",) + ignored
    for name in ignored:
        print(f"note: --{name.replace('_', '-')} has no effect with "
              f"--scheme {spec.scheme} ({UNREAD_FIELDS[spec.scheme][0]})",
              file=sys.stderr)
    # --crash-report alone arms a silent ring buffer so a failing run's
    # report still carries its last-N flight-recorder events.
    ring = DEFAULT_RING_EVENTS if args.crash_report else 0
    tracer = open_trace(args.trace, spec.trace_filter, ring=ring)
    try:
        result, exc, exit_code = spec.normalized().execute(
            tracer=tracer, fault_plan=fault_plan)
        if exc is not None:
            # DeadlockError and SimulationTimeout both derive from
            # SimulationError; so do the integrity checks (lost CA
            # broadcast, un-drained log) that fault injection can trip.
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            if args.crash_report:
                path = write_crash_report(exc, args.crash_report,
                                          tracer=tracer)
                print(f"crash report written to {path}", file=sys.stderr)
            return exit_code
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
    cell failing terminally in a worker, 3 interrupted (Ctrl-C, through
    :func:`main`; re-run the sweep).
    """
    import json

    from repro.trace.diff import differential_sweep, report_payload

    try:
        tracer = (open_trace(args.trace, args.trace_filter) if args.trace
                  else None)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        reports = differential_sweep(
            range(args.seeds), lifeguards=args.lifeguards or None,
            nthreads=args.threads, length=args.length, jobs=args.jobs,
            timeout=args.timeout, tracer=tracer)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
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
    1 divergence, 2 bad archive / bad arguments.
    """
    import json

    from repro.common.errors import TraceFormatError
    from repro.replay import TraceReader, replay_all

    names = args.lifeguards or None
    if names and "all" in names:
        names = None
    try:
        reader = TraceReader(args.archive)
        payloads = replay_all(reader, lifeguards=names)
    except (TraceFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    """Regenerate one paper figure or the headline claims; exit 1 if a
    cell fails."""
    try:
        if args.command == "headline":
            print(render_headline(headline_summary(
                benches, args.max_threads, scale, args.seed)))
            return 0
        if args.command == "figure8":
            print(render_figure8(figure8(args.lifeguard, benches,
                                         args.max_threads, scale, args.seed,
                                         jobs=args.jobs)))
            return 0
        counts = tuple(args.thread_counts
                       or [t for t in DEFAULT_THREADS
                           if t <= args.max_threads])
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
    a sweep's worker processes are already gone by then, and the
    interrupted command is simply run again. So does a stdout closed
    early (``repro run swaptions | head -1``): the output is incomplete.
    """
    try:
        code = _dispatch(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # where a short output meets a closed pipe
        return code
    except KeyboardInterrupt:
        return EXIT_ABNORMAL
    except BrokenPipeError:
        # Point stdout at devnull so the exit-time flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
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

    if args.command in ("figure6", "figure7", "figure8", "headline"):
        return _cmd_figure(args, benches, scale)
    return 1


if __name__ == "__main__":
    sys.exit(main())
