"""One run spec for both front ends: ``repro run`` and ``POST /runs``
build the same :class:`RunSpec`, so they agree on every default, rule,
reset and digest."""

import itertools
from dataclasses import asdict

import pytest

from repro.cli import build_parser, main, run_spec
from repro.common.errors import ConfigurationError, DeadlockError, \
    SimulationTimeout
from repro.faults import EXIT_ABNORMAL, EXIT_BUDGET_EXCEEDED
from repro.platform import SCHEMES
from repro.platform.spec import SIM_FIELDS, UNREAD_FIELDS, RunOutcome, \
    RunSpec

CELLS = list(itertools.product(SCHEMES, ("sc", "tso"),
                               ("per_block", "per_core"), (False, True),
                               (None, "lockset")))


def _cell_id(cell):
    scheme, memory_model, capture, no_accel, lifeguard = cell
    return (f"{scheme}-{memory_model}-{capture}"
            f"{'-no_accel' if no_accel else ''}-{lifeguard or 'default'}")


def _cli_and_payload(scheme, memory_model, capture, no_accel, lifeguard):
    argv = ["run", "swaptions", "--scheme", scheme,
            "--memory-model", memory_model, "--capture", capture]
    payload = {"workload": "swaptions", "scheme": scheme,
               "memory_model": memory_model, "capture": capture,
               "no_accel": no_accel}
    if no_accel:
        argv.append("--no-accel")
    if lifeguard is not None:
        argv += ["--lifeguard", lifeguard]
        payload["lifeguard"] = lifeguard
    return argv, payload


@pytest.mark.parametrize("cell", CELLS, ids=[_cell_id(c) for c in CELLS])
def test_cli_and_rest_build_one_spec(cell, monkeypatch, capsys):
    argv, payload = _cli_and_payload(*cell)
    rest = RunSpec.from_payload(payload)
    cli = run_spec(build_parser().parse_args(argv)).normalized()
    assert cli == rest
    assert cli.digest() == rest.digest()
    assert rest.ignored() == ()

    # The CLI runs that same spec, and notes exactly the fields REST
    # resets to another value than the one submitted.
    executed = []

    def fake_execute(spec, *, tracer=None, fault_plan=None):
        executed.append(spec)
        return RunOutcome(None, DeadlockError("stub"), EXIT_ABNORMAL)

    monkeypatch.setattr(RunSpec, "execute", fake_execute)
    assert main(argv) == EXIT_ABNORMAL
    assert executed == [rest]
    noted = {line.split()[1] for line in capsys.readouterr().err.splitlines()
             if line.startswith("note:")}
    reset = {f"--{name.replace('_', '-')}" for name, value in payload.items()
             if getattr(rest, name) != value}
    assert noted == reset


def test_every_scheme_has_an_unread_row():
    assert set(UNREAD_FIELDS) == set(SCHEMES)
    for _, resets in UNREAD_FIELDS.values():
        assert set(resets) <= set(SIM_FIELDS)


def test_digest_is_the_manifest_digest():
    # Pinned: a runs/ directory written before RunSpec reloads with the
    # same config_digest for the same payload.
    spec = RunSpec.from_payload({"workload": "tainted_jump", "seed": 7})
    assert spec.digest() == "e9d3b8322421cbe8"
    assert asdict(spec) == {
        "workload": "tainted_jump", "scheme": "parallel",
        "lifeguard": "taintcheck", "seed": 7, "threads": 2, "scale": "tiny",
        "memory_model": "sc", "capture": "per_block", "no_accel": False,
        "max_cycles": None, "watchdog": None, "trace_filter": "all"}


def test_lifeguard_of_an_unmonitored_run_is_not_validated():
    # An unmonitored run reads no lifeguard, so REST never checked it.
    spec = RunSpec.from_payload({"workload": "lu", "scheme": "none",
                                 "lifeguard": "bogus"})
    assert spec.lifeguard is None


@pytest.mark.parametrize("payload,fragment", [
    ({"workload": "lu", "seed": -1}, "'seed' must be >= 0"),
    ({"workload": "lu", "watchdog": 0}, "'watchdog' must be >= 1"),
    ({"workload": "lu", "max_cycles": 2.5}, "'max_cycles' must be an integer"),
    ({"workload": "lu", "scheme": "none", "no_accel": "yes"},
     "'no_accel' must be a boolean"),
    ({"workload": "lu", "scheme": "timesliced", "memory_model": "bogus"},
     "unknown memory_model 'bogus'"),
    ({"workload": "lu", "lifeguard": None}, "unknown lifeguard None"),
    ([1], "must be a JSON object"),
])
def test_rest_rules_hold(payload, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        RunSpec.from_payload(payload)


class TestExecute:
    def test_result_on_success(self):
        result, error, exit_code = RunSpec("tainted_jump").execute()
        assert error is None and exit_code == 0
        assert [v.kind for v in result.violations] == ["tainted-critical-use"]

    def test_budget_overrun_is_classified(self):
        outcome = RunSpec("swaptions", max_cycles=500).execute()
        assert outcome.result is None
        assert isinstance(outcome.error, SimulationTimeout)
        assert outcome.exit_code == EXIT_BUDGET_EXCEEDED
