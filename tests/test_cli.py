"""Tests for the command-line interface."""

import contextlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

from repro.cli import build_parser, main
from repro.lifeguards import LIFEGUARDS
from repro.platform import SCHEMES
from repro.workloads import WORKLOADS
from repro.replay import write_archive
from tests.test_replay_format import (
    MALFORMED_MANIFESTS,
    rewrite_manifest,
    synthetic_trace,
)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "lu"])
        assert args.workload == "lu"
        assert args.threads == 2
        assert args.scheme == "parallel"
        assert args.lifeguard == "taintcheck"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])


class TestBadIntegerFlags:
    """Out-of-range integers exit 2 with a usage error, not a traceback."""

    @pytest.mark.parametrize("argv,message", [
        (["run", "lu", "--threads", "0"], "--threads: must be >= 1"),
        (["run", "lu", "--threads", "-2"], "--threads: must be >= 1"),
        (["run", "lu", "--watchdog", "-5"], "--watchdog: must be >= 0"),
        (["diff", "--seeds", "1", "--threads", "0"],
         "--threads: must be >= 1"),
        (["diff", "--seeds", "-1"], "--seeds: must be >= 0"),
        (["archive", "out.plog", "--threads", "0"],
         "--threads: must be >= 1"),
        (["table1", "--threads", "0"], "--threads: must be >= 1"),
        (["swaptions", "--threads", "0"], "--threads: must be >= 1"),
        (["figure6", "--max-threads", "0"], "--max-threads: must be >= 1"),
        (["run", "lu", "--threads", "two"], "invalid int value: 'two'"),
        (["diff", "--jobs", "0"], "--jobs: must be >= 1"),
        (["figure8", "--jobs", "0"], "--jobs: must be >= 1"),
        (["figure7", "--jobs", "-1"], "--jobs: must be >= 1"),
        (["figure6", "--jobs", "0"], "--jobs: must be >= 1"),
        (["diff", "--timeout", "-3", "--jobs", "2"],
         "--timeout: must be a finite number > 0"),
        (["diff", "--timeout", "0"], "--timeout: must be a finite number > 0"),
        (["diff", "--timeout", "nan"],
         "--timeout: must be a finite number > 0"),
        (["diff", "--timeout", "soon"], "invalid float value: 'soon'"),
        (["diff", "--seeds", "1", "--length", "-3"],
         "--length: must be >= 0"),
        (["archive", "out.plog", "--length", "-3"],
         "--length: must be >= 0"),
        (["diff", "--timeout", "inf"],
         "--timeout: must be a finite number > 0"),
        (["headline", "--max-threads", "0"], "--max-threads: must be >= 1"),
        (["figure6", "--thread-counts", "0"],
         "--thread-counts: must be >= 1"),
        (["figure7", "--thread-counts", "-2"],
         "--thread-counts: must be >= 1"),
        (["run", "lu", "--max-cycles", "-5"], "--max-cycles: must be >= 1"),
        (["run", "lu", "--max-cycles", "0"], "--max-cycles: must be >= 1"),
        (["run", "lu", "--seed", "-1"], "--seed: must be >= 0"),
    ])
    def test_rejected_by_argparse(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["run", "swaptions", "--inject", "lifeguard:stall:param=abc"],
         "modifier 'param' needs an integer, got 'abc'"),
        (["run", "swaptions", "--inject", "arc:drop:p=x"],
         "modifier 'p' needs a number, got 'x'"),
        (["run", "swaptions", "--inject", "arc:drop:after=x"],
         "modifier 'after' needs an integer, got 'x'"),
    ], ids=["run-param", "run-p", "run-after"])
    def test_non_numeric_fault_modifier_exits_2(self, argv, message, capsys):
        # Used to exit 1 with a ValueError traceback.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: fault spec" in err and message in err

    def test_zero_watchdog_and_seeds_accepted(self):
        parse = build_parser().parse_args
        assert parse(["run", "lu", "--watchdog", "0"]).watchdog == 0
        assert parse(["diff", "--seeds", "0"]).seeds == 0


class TestRemovedBackendFlag:
    @pytest.mark.parametrize("argv", [
        ["run", "lu", "--backend", "event"],
        ["diff", "--seeds", "1", "--backend", "event"],
        ["archive", "out.plog", "--backend", "event"],
        ["replay", "out.plog", "--backend", "event"],
    ])
    def test_backend_flag_is_unrecognized(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend event" in \
            capsys.readouterr().err


class TestRemovedExecutorFlags:
    """The sweep backend is picked from the inputs, every cell runs
    once and an interrupted sweep is run again, so the backend, backoff,
    retry, worker-chaos and checkpoint/resume knobs are gone."""

    @pytest.mark.parametrize("argv,flag", [
        (["diff", "--seeds", "1", "--executor", "pool"], "--executor pool"),
        (["replay", "out.plog", "--executor", "pool"], "--executor pool"),
        (["figure6", "--executor", "socket"], "--executor socket"),
        (["figure7", "--executor", "inline"], "--executor inline"),
        (["figure8", "--executor", "auto"], "--executor auto"),
        (["diff", "--seeds", "1", "--heartbeat", "0.5"], "--heartbeat 0.5"),
        (["diff", "--seeds", "1", "--shards", "out"], "--shards out"),
        (["diff", "--seeds", "1", "--backoff", "0.1"], "--backoff 0.1"),
        (["replay", "out.plog", "--jobs", "2"], "--jobs 2"),
        (["diff", "--seeds", "1", "--retries", "1"], "--retries 1"),
        (["diff", "--seeds", "1", "--inject-worker", "worker:kill"],
         "--inject-worker worker:kill"),
        (["diff", "--seeds", "1", "--fault-seed", "3"], "--fault-seed 3"),
        (["diff", "--seeds", "1", "--checkpoint", "cp.jsonl"],
         "--checkpoint cp.jsonl"),
        (["diff", "--seeds", "1", "--resume"], "--resume"),
        # --crash-report keeps a fixed ring; --trace PATH keeps it all.
        (["run", "lu", "--trace-ring", "8"], "--trace-ring 8"),
        # headline always measures TaintCheck and AddrCheck.
        (["headline", "--lifeguard", "lockset"], "--lifeguard lockset"),
    ])
    def test_flag_is_unrecognized(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_perf_command_is_gone(self, capsys):
        # Speed is judged by benchmarks/e2e; there is no perf subcommand.
        with pytest.raises(SystemExit) as exc:
            main(["perf", "--gate"])
        assert exc.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,message", [
        ("worker_heartbeat:drop", "unknown fault site 'worker_heartbeat'"),
        ("worker_connect:refuse", "unknown fault site 'worker_connect'"),
        ("worker:kill:t0:after=1", "unknown fault site 'worker'"),
        ("worker:kill", "unknown fault site 'worker'"),
    ])
    def test_removed_worker_fault_specs_exit_2(self, spec, message, capsys):
        # `run` used to accept a `worker` fault spec and ignore it.
        assert main(["run", "swaptions", "--threads", "2",
                     "--inject", spec]) == 2
        assert message in capsys.readouterr().err


class TestSweepRuleAtOneJob:
    """``--timeout`` takes effect at the default ``--jobs 1`` (the
    cells then run in one worker process)."""

    def test_timeout_enforced(self, capsys):
        assert main(["diff", "--seeds", "1", "--lifeguards", "taintcheck",
                     "--timeout", "0.001"]) == 1
        assert "(timeout, exit 4)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["figure6", "figure7", "figure8",
                                         "headline"])
    def test_failing_figure_cell_exits_1(self, capsys, command):
        # `headline` used to raise the cell's RuntimeError (a traceback).
        assert main([command, "--benchmarks", "nosuch",
                     "--max-threads", "2"]) == 1
        err = capsys.readouterr().err
        assert "unknown workload 'nosuch'" in err
        assert "Traceback" not in err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "swaptions" in out and "taintcheck" in out

    def test_table1(self, capsys):
        assert main(["table1", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "8 (=4 app + 4 lifeguard)" in out

    def test_scheme_choices_are_the_platform_schemes(self, capsys):
        from repro.platform import SCHEMES

        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert "--scheme {" + ",".join(SCHEMES) + "}" \
            in capsys.readouterr().out

    def test_run_parallel(self, capsys):
        assert main(["run", "racy_counters", "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert "parallel/racy_counters/taintcheck" in out
        assert "arcs_recorded" in out

    def test_run_reports_violations(self, capsys):
        assert main(["run", "tainted_jump", "--lifeguard", "taintcheck"]) == 0
        assert "tainted-critical-use" in capsys.readouterr().out

    def test_run_no_monitoring(self, capsys):
        assert main(["run", "lu", "--scheme", "none"]) == 0
        assert "no_monitoring/lu" in capsys.readouterr().out

    def test_run_timesliced(self, capsys):
        assert main(["run", "lu", "--scheme", "timesliced"]) == 0
        assert "timesliced/lu" in capsys.readouterr().out

    def test_no_accel_reaches_the_timesliced_scheme(self, capsys):
        # --no-accel used to be dropped here: the run printed the
        # accelerated cycle count, 21355.
        from repro.platform import run_timesliced_monitoring
        from repro.workloads import build_workload

        assert main(["run", "swaptions", "--scheme", "timesliced",
                     "--no-accel"]) == 0
        unaccelerated = run_timesliced_monitoring(
            build_workload("swaptions", 2), LIFEGUARDS["taintcheck"],
            accel=False)
        assert unaccelerated.total_cycles == 35079
        assert "cycles=35079 " in capsys.readouterr().out

    def test_no_accel_notes_it_does_nothing_unmonitored(self, capsys):
        assert main(["run", "lu", "--scheme", "none", "--no-accel"]) == 0
        captured = capsys.readouterr()
        assert "note: --no-accel has no effect with --scheme none" \
            in captured.err
        assert "no_monitoring/lu" in captured.out

    @pytest.mark.parametrize("scheme,flags", [
        ("timesliced", ["--memory-model", "tso"]),
        ("timesliced", ["--capture", "per_core"]),
        ("none", ["--capture", "per_core"]),
    ])
    def test_flags_the_scheme_does_not_read_get_a_note(self, capsys,
                                                        scheme, flags):
        assert main(["run", "swaptions", "--scheme", scheme] + flags) == 0
        assert (f"note: {flags[0]} has no effect with --scheme {scheme}"
                in capsys.readouterr().err)

    def test_flags_the_scheme_reads_get_no_note(self, capsys):
        assert main(["run", "swaptions", "--scheme", "none",
                     "--memory-model", "tso"]) == 0
        assert main(["run", "swaptions", "--scheme", "parallel",
                     "--capture", "per_core"]) == 0
        assert "note:" not in capsys.readouterr().err

    def test_run_tso_without_accel(self, capsys):
        assert main(["run", "dekker", "--memory-model", "tso",
                     "--no-accel"]) == 0
        assert "parallel/dekker" in capsys.readouterr().out

    def test_diff_trace_streams_jobs_events(self, tmp_path, capsys):
        import json
        trace = tmp_path / "sweep.jsonl"
        assert main(["diff", "--seeds", "2", "--lifeguards", "addrcheck",
                     "--jobs", "2", "--trace", str(trace)]) == 0
        events = [json.loads(line)["event"]
                  for line in trace.read_text().splitlines()]
        assert "start" in events and "done" in events
        assert events[-1] == "sweep_done"
        assert "2 cells, 0 failed" in capsys.readouterr().out

    def test_diff_bad_trace_filter_rejected(self, capsys):
        assert main(["diff", "--seeds", "1", "--trace", "-",
                     "--trace-filter", "bogus"]) == 2
        assert "unknown trace categories" in capsys.readouterr().err

    def test_diff_filter_without_trace_is_not_read(self, capsys):
        # `diff` has no spec: as before, the filter only shapes a
        # written trace.
        assert main(["diff", "--seeds", "1", "--lifeguards", "addrcheck",
                     "--trace-filter", "bogus"]) == 0
        assert "1 cells, 0 failed" in capsys.readouterr().out

    def test_run_typo_next_to_all_trace_filter_rejected(self, capsys):
        assert main(["run", "swaptions", "--threads", "2", "--trace", "-",
                     "--trace-filter", "all,bogus"]) == 2
        assert "unknown trace categories ['bogus']" in \
            capsys.readouterr().err

    def test_run_bad_trace_filter_without_trace_rejected(self, capsys):
        # The filter used to be read only with --trace or --crash-report,
        # so a typo ran the simulation and exited 0.
        assert main(["run", "tainted_jump", "--trace-filter", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: unknown trace categories ['bogus']; valid: engine, arc, "
            "ca, advert, accel, meta, jobs (or 'all')"]

    def test_unmonitored_run_notes_an_ignored_lifeguard(self, capsys):
        assert main(["run", "lu", "--scheme", "none",
                     "--lifeguard", "lockset"]) == 0
        assert ("note: --lifeguard has no effect with --scheme none"
                in capsys.readouterr().err)

    def test_figure6_subset(self, capsys):
        assert main(["figure6", "--benchmarks", "lu",
                     "--thread-counts", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "lu" in out

    def test_figure7_subset(self, capsys):
        assert main(["figure7", "--benchmarks", "swaptions",
                     "--thread-counts", "2",
                     "--lifeguard", "addrcheck"]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_figure8_subset(self, capsys):
        assert main(["figure8", "--benchmarks", "lu",
                     "--max-threads", "2"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_headline_subset(self, capsys):
        assert main(["headline", "--benchmarks", "lu",
                     "--max-threads", "2"]) == 0
        assert "timesliced_speedup_max" in capsys.readouterr().out

    def test_swaptions_analysis(self, capsys):
        assert main(["swaptions", "--threads", "2"]) == 0
        assert "alloc_free_pairs" in capsys.readouterr().out


@pytest.fixture(scope="module")
def small_archive(tmp_path_factory):
    from repro.replay import capture_archive

    path = tmp_path_factory.mktemp("archive") / "run.plog"
    capture_archive(path, 1, nthreads=2, length=6)
    return str(path)


class TestUnwritableOutputPaths:
    """An output path in a missing directory is a usage error: exit 2 at
    parse time, before the run or sweep does any work."""

    @pytest.mark.parametrize("argv", [
        ["run", "swaptions", "--trace", "{missing}/t.jsonl"],
        ["run", "swaptions", "--inject", "ca_mark:drop:t1",
         "--crash-report", "{missing}/crash.json"],
        ["diff", "--seeds", "1", "--lifeguards", "addrcheck",
         "--output", "{missing}/diff.json"],
        ["diff", "--seeds", "1", "--lifeguards", "addrcheck",
         "--trace", "{missing}/sweep.jsonl"],
        ["archive", "{missing}/run.plog"],
        ["replay", "{archive}", "--lifeguards", "addrcheck",
         "--output", "{missing}/replay.json"],
    ], ids=["run-trace", "run-crash-report", "diff-output", "diff-trace",
            "archive", "replay-output"])
    def test_missing_directory_exits_2(self, argv, tmp_path, small_archive,
                                       capsys):
        missing = tmp_path / "missing"
        argv = [arg.format(missing=missing, archive=small_archive)
                for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"no such directory: '{missing}'" in captured.err
        assert captured.out == ""
        assert not missing.exists()

    @pytest.mark.parametrize("argv", [
        ["archive", ""],
        ["run", "swaptions", "--trace", ""],
        ["run", "swaptions", "--crash-report", ""],
        ["diff", "--seeds", "1", "--output", ""],
        ["replay", "run.plog", "--output", ""],
    ], ids=["archive", "run-trace", "run-crash-report", "diff-output",
            "replay-output"])
    def test_empty_path_exits_2(self, argv, capsys):
        # `repro archive ""` used to exit 1 with a FileNotFoundError
        # traceback; `--trace ""` and `--crash-report ""` were ignored.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "empty path" in capsys.readouterr().err

    def test_existing_directory_is_not_a_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diff", "--seeds", "1", "--output", str(tmp_path)])
        assert exc.value.code == 2
        assert "is a directory" in capsys.readouterr().err

    def test_stdout_dash_still_works(self, capsys):
        assert main(["diff", "--seeds", "1", "--lifeguards", "addrcheck",
                     "--trace", "-"]) == 0
        assert '"event":"sweep_done"' in capsys.readouterr().out


class TestArchiveReplay:
    def test_archive_then_replay_all(self, tmp_path, capsys):
        archive = tmp_path / "run.plog"
        assert main(["archive", str(archive), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "archived seed 3" in out
        assert "bytes/instruction" in out
        assert archive.exists()
        assert (tmp_path / "run.plog.manifest.json").exists()

        assert main(["replay", str(archive), "--lifeguards", "all"]) == 0
        out = capsys.readouterr().out
        for lifeguard in ("addrcheck", "lockset", "memcheck", "taintcheck"):
            assert lifeguard in out

    def test_replay_verify_live(self, tmp_path, capsys):
        archive = tmp_path / "run.plog"
        assert main(["archive", str(archive), "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["replay", str(archive), "--verify-live"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_replay_verify_live_rejects_a_tso_archive(self, tmp_path,
                                                      capsys):
        """--verify-live re-captures under the default config only, so
        an archive captured under TSO cannot be verified: exit 2."""
        from repro.common.config import MemoryModel, SimulationConfig
        from repro.replay import capture_archive

        archive = tmp_path / "tso.plog"
        capture_archive(archive, 0, config=SimulationConfig.for_threads(
            2, memory_model=MemoryModel.TSO))
        assert main(["replay", str(archive), "--verify-live"]) == 2
        assert "config_digest differs" in capsys.readouterr().err

    def test_replay_verify_live_rejects_a_swapped_meta_seed(self, tmp_path,
                                                            capsys):
        """Seed 5's captured order under seed 3's meta block replays
        fine, but is not what a live run of seed 3 captures: exit 1."""
        from repro.common.config import SimulationConfig
        from repro.replay import capture_archive, write_archive

        archive = tmp_path / "swapped.plog"
        live, manifest = capture_archive(archive, 5)
        write_archive(archive, live.trace, nthreads=2,
                      config=SimulationConfig.for_threads(2),
                      meta=dict(manifest["meta"], seed=3))
        assert main(["replay", str(archive), "--verify-live"]) == 1
        out = capsys.readouterr().out
        assert "not byte-identical to a live re-capture of seed 3" in out

    def test_replay_verify_live_rejects_a_foreign_meta_block(self, tmp_path,
                                                             capsys):
        from repro.replay import capture_archive, write_archive

        archive = tmp_path / "foreign.plog"
        live, manifest = capture_archive(archive, 5)
        write_archive(archive, live.trace, nthreads=2,
                      meta=dict(manifest["meta"], nthreads="two"))
        assert main(["replay", str(archive), "--verify-live"]) == 2
        assert "needs a `repro archive` meta block" in capsys.readouterr().err

    def test_replay_writes_payload_json(self, tmp_path, capsys):
        import json

        archive = tmp_path / "run.plog"
        assert main(["archive", str(archive)]) == 0
        payload_path = tmp_path / "payloads.json"
        assert main(["replay", str(archive), "--lifeguards", "taintcheck",
                     "--output", str(payload_path)]) == 0
        payloads = json.loads(payload_path.read_text())
        assert set(payloads) == {"taintcheck"}
        assert payloads["taintcheck"]["records"] > 0

    def test_replay_missing_archive_exits_2(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "nope.plog")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("keys, value, detail", MALFORMED_MANIFESTS)
    def test_replay_malformed_manifest_exits_2(self, tmp_path, capsys, keys,
                                               value, detail):
        archive = tmp_path / "t.plog"
        write_archive(archive, synthetic_trace(), nthreads=2)
        rewrite_manifest(archive, keys, value)
        assert main(["replay", str(archive)]) == 2
        assert f"error: archive manifest {detail}" in capsys.readouterr().err

    def test_replay_directory_exits_2(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path)]) == 2
        assert "error: " in capsys.readouterr().err

    def test_replay_corrupt_archive_exits_2(self, tmp_path, capsys):
        archive = tmp_path / "run.plog"
        assert main(["archive", str(archive)]) == 0
        data = bytearray(archive.read_bytes())
        data[-1] ^= 0x01
        archive.write_bytes(data)
        assert main(["replay", str(archive)]) == 2
        assert "sha256" in capsys.readouterr().err


class TestBrokenPipe:
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [["list"], ["table1"]])
    def test_closed_stdout_exits_3_without_a_traceback(self, argv,
                                                       unbuffered):
        # Used to exit 1 with a BrokenPipeError traceback, e.g. under
        # `repro run swaptions | head -1`. Buffered, output smaller than
        # the buffer first reaches the pipe in the final flush.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=120, env=env)
        finally:
            os.close(write_end)
        assert completed.returncode == 3
        assert "Traceback" not in completed.stderr
        assert "BrokenPipeError" not in completed.stderr


_NOT_POSITIVE = ["0", "-1", "", "x", "1.5"]
_NEGATIVE = ["-1", "", "x"]
_NOT_INT = ["", "x", "1.5"]
_UNKNOWN_NAME = ["bogus", ""]
_NOT_SECONDS = ["0", "-1", "nan", "inf", "", "x"]
#: Output paths no command may write: in a missing directory, empty,
#: and an existing directory.
_UNWRITABLE = [os.path.join(os.path.dirname(__file__), "no-such-dir", "out"),
               "", os.path.dirname(__file__)]
_SWEEP_FLAGS = {
    "--benchmarks": (_UNKNOWN_NAME, []),
    "--max-threads": (_NOT_POSITIVE, ["1"]),
    "--scale": (_UNKNOWN_NAME, ["tiny"]),
    "--seed": (_NOT_INT, ["-1"]),
}
_FIGURE_FLAGS = dict(_SWEEP_FLAGS, **{
    "--lifeguard": (_UNKNOWN_NAME, sorted(LIFEGUARDS)),
    "--jobs": (_NOT_POSITIVE, ["1"]),
})

#: command -> (each positional argument's (malformed values, legal
#: values), flag -> (malformed values, boundary values)). Each
#: malformed value fails before any simulation starts; boundary values
#: are legal but keep a run short. Flags that take a list
#: (``--benchmarks``) have no boundary value, since naming none selects
#: the full suite.
ARGV_GRAMMAR = {
    "table1": ([], {"--threads": (_NOT_POSITIVE, ["1"])}),
    "list": ([], {}),
    "run": ([(_UNKNOWN_NAME, sorted(WORKLOADS))], {
        "--threads": (_NOT_POSITIVE, ["1"]),
        "--scale": (_UNKNOWN_NAME, ["tiny"]),
        "--seed": (_NEGATIVE, ["0"]),
        "--lifeguard": (_UNKNOWN_NAME, sorted(LIFEGUARDS)),
        "--scheme": (_UNKNOWN_NAME, list(SCHEMES)),
        "--memory-model": (_UNKNOWN_NAME, ["tso"]),
        "--capture": (_UNKNOWN_NAME, ["per_core"]),
        "--max-cycles": (_NOT_POSITIVE, ["1"]),
        "--watchdog": (_NEGATIVE, ["0"]),
        "--inject": (["", "bogus", "arc:explode", "nosite:drop",
                      "arc:drop:p=x", "arc:drop:when=1"], ["arc:drop:t0"]),
        "--fault-seed": (_NOT_INT, ["-1"]),
        "--crash-report": (_UNWRITABLE, []),
        "--trace": (_UNWRITABLE, ["-"]),
        "--trace-filter": (["bogus", "all,bogus"], ["all", ","]),
    }),
    "figure6": ([], dict(_FIGURE_FLAGS,
                         **{"--thread-counts": (_NOT_POSITIVE, [])})),
    "figure7": ([], dict(_FIGURE_FLAGS,
                         **{"--thread-counts": (_NOT_POSITIVE, [])})),
    "figure8": ([], _FIGURE_FLAGS),
    "headline": ([], _SWEEP_FLAGS),
    "swaptions": ([], {"--threads": (_NOT_POSITIVE, ["1"]),
                       "--scale": (_UNKNOWN_NAME, ["tiny"]),
                       "--seed": (_NOT_INT, ["-1"])}),
    "diff": ([], {
        "--seeds": (_NEGATIVE, ["0"]),
        "--lifeguards": (_UNKNOWN_NAME, []),
        "--threads": (_NOT_POSITIVE, ["1"]),
        "--length": (_NEGATIVE, ["0"]),
        "--output": (_UNWRITABLE, []),
        "--jobs": (_NOT_POSITIVE, ["1"]),
        "--timeout": (_NOT_SECONDS, []),
        "--trace": (_UNWRITABLE, ["-"]),
        # read only with --trace, so never the one malformed flag
        "--trace-filter": ([], ["jobs"]),
    }),
    "archive": ([(_UNWRITABLE, [])], {
        "--seed": (_NOT_INT, ["-1"]),
        "--lifeguard": (_UNKNOWN_NAME, sorted(LIFEGUARDS)),
        "--threads": (_NOT_POSITIVE, ["1"]),
        "--length": (_NEGATIVE, ["0"]),
    }),
    "replay": ([(_UNWRITABLE, [])], {
        "--lifeguards": (_UNKNOWN_NAME, ["all"]),
        "--output": (_UNWRITABLE, []),
    }),
    "serve": ([], {"--port": (_NOT_INT, []),
                   "--runners": (_NOT_POSITIVE, [])}),
}

#: Exit codes the CLI documents: 0 success, 1 a failed check or cell,
#: 2 a bad flag, 3 interrupted or deadlocked, 4 over the cycle budget.
DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4}


@st.composite
def bad_argv(draw):
    """A ``repro`` argv with at least one malformed flag or argument."""
    command = draw(st.sampled_from(sorted(ARGV_GRAMMAR)))
    positionals, flags = ARGV_GRAMMAR[command]
    argv = [command]
    for bad, good in positionals:
        argv.append(draw(st.sampled_from(bad + good)))
    well_formed = all(value in good
                      for value, (_, good) in zip(argv[1:], positionals))
    malformed = [["--bogus"]] + [[flag, value]
                                 for flag, (values, _) in flags.items()
                                 for value in values]
    legal = [[flag, value] for flag, (_, values) in flags.items()
             for value in values]
    options = draw(st.lists(st.sampled_from(malformed + legal), max_size=3))
    if well_formed:
        options.append(draw(st.sampled_from(malformed)))
    argv += [token for option in draw(st.permutations(options))
             for token in option]
    single = sorted(flag for flag in flags
                    if flag not in ("--benchmarks", "--lifeguards",
                                    "--thread-counts"))
    if single and draw(st.booleans()):
        argv.append(draw(st.sampled_from(single)))  # its value is missing
    return argv


class TestMalformedArgv:
    """Any ``repro`` argv built from a command's real flags with a
    malformed or boundary value exits with a documented code, and
    never with a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(bad_argv())
    def test_exits_cleanly(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in DOCUMENTED_EXIT_CODES, (argv, code)
        assert "Traceback" not in stderr.getvalue(), argv
