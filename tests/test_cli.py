"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
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
        (["replay", "out.plog", "--jobs", "-1"], "--jobs: must be >= 1"),
        (["diff", "--retries", "-1", "--jobs", "2"],
         "--retries: must be >= 0"),
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
        (["diff", "--seeds", "1", "--resume"],
         "--resume requires --checkpoint"),
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
        (["diff", "--seeds", "1", "--inject-worker", "worker:kill:after=x"],
         "modifier 'after' needs an integer, got 'x'"),
    ], ids=["run-param", "run-p", "diff-after"])
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
    """The sweep backend is picked from the inputs and the retry backoff
    is a constant, so their knobs are gone."""

    @pytest.mark.parametrize("argv,flag", [
        (["diff", "--seeds", "1", "--executor", "pool"], "--executor pool"),
        (["replay", "out.plog", "--executor", "pool"], "--executor pool"),
        (["figure6", "--executor", "socket"], "--executor socket"),
        (["figure7", "--executor", "inline"], "--executor inline"),
        (["figure8", "--executor", "auto"], "--executor auto"),
        (["diff", "--seeds", "1", "--heartbeat", "0.5"], "--heartbeat 0.5"),
        (["diff", "--seeds", "1", "--shards", "out"], "--shards out"),
        (["diff", "--seeds", "1", "--backoff", "0.1"], "--backoff 0.1"),
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
        ("worker:kill:t0:after=1", "cannot target a tid"),
    ])
    def test_removed_worker_fault_specs_exit_2(self, spec, message, capsys):
        assert main(["diff", "--seeds", "1", "--inject-worker", spec]) == 2
        assert message in capsys.readouterr().err


class TestSweepRuleAtOneJob:
    """``--timeout`` and ``--inject-worker`` take effect at the default
    ``--jobs 1`` (the cells then run in one worker process)."""

    def test_timeout_enforced(self, capsys):
        assert main(["diff", "--seeds", "1", "--lifeguards", "taintcheck",
                     "--timeout", "0.001", "--retries", "0"]) == 1
        assert "(timeout, exit 4)" in capsys.readouterr().err

    def test_worker_fault_armed(self, capsys):
        assert main(["diff", "--seeds", "1", "--lifeguards", "addrcheck",
                     "--inject-worker", "worker:corrupt_result",
                     "--retries", "0"]) == 1
        assert "integrity digest mismatch" in capsys.readouterr().err

    def test_failing_figure_cell_exits_1(self, capsys):
        assert main(["figure8", "--benchmarks", "nosuch",
                     "--max-threads", "2"]) == 1
        assert "unknown workload 'nosuch'" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "swaptions" in out and "taintcheck" in out

    def test_table1(self, capsys):
        assert main(["table1", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "8 (=4 app + 4 lifeguard)" in out

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

    def test_run_typo_next_to_all_trace_filter_rejected(self, capsys):
        assert main(["run", "swaptions", "--threads", "2", "--trace", "-",
                     "--trace-filter", "all,bogus"]) == 2
        assert "unknown trace categories ['bogus']" in \
            capsys.readouterr().err

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

    def test_existing_directory_is_not_a_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diff", "--seeds", "1", "--output", str(tmp_path)])
        assert exc.value.code == 2
        assert "is a directory" in capsys.readouterr().err

    def test_stdout_dash_and_a_new_checkpoint_directory_still_work(
            self, tmp_path, capsys):
        checkpoint = tmp_path / "new" / "cp.jsonl"
        assert main(["diff", "--seeds", "1", "--lifeguards", "addrcheck",
                     "--trace", "-", "--checkpoint", str(checkpoint)]) == 0
        assert '"event":"sweep_done"' in capsys.readouterr().out
        assert checkpoint.exists()


class TestArchiveReplay:
    def test_archive_then_replay_all(self, tmp_path, capsys):
        archive = tmp_path / "run.plog"
        assert main(["archive", str(archive), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "archived seed 3" in out
        assert "bytes/instruction" in out
        assert archive.exists()
        assert (tmp_path / "run.plog.manifest.json").exists()

        assert main(["replay", str(archive), "--lifeguards", "all",
                     "--jobs", "2"]) == 0
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
