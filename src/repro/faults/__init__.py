"""Fault injection and resilience tooling for the reproduction.

See :mod:`repro.faults.plan` for the injection model. The package name
is deliberately separate from :mod:`repro.capture` / :mod:`repro.cpu`:
faults are a *test harness* for the enforcement layer, never part of
the simulated machine itself, and a run without a plan must not change
by a single cycle.
"""

from repro.common.errors import SimulationTimeout
from repro.faults.plan import (
    FAULT_SITES,
    Fault,
    FaultPlan,
    SITE_ACTIONS,
    parse_fault_spec,
)

#: Process exit-code conventions shared across the harness: the ``run``
#: CLI exits 3 on a diagnosed deadlock/livelock and 4 on an exceeded
#: cycle budget, and the parallel sweep executor (:mod:`repro.jobs`)
#: reuses the same codes for a crashed worker (abnormal death, 3) and a
#: per-job wall-clock timeout (budget overrun, 4).
EXIT_ABNORMAL = 3
EXIT_BUDGET_EXCEEDED = 4


def exit_code_for(exc) -> int:
    """The exit code of a run that failed with ``exc``."""
    return (EXIT_BUDGET_EXCEEDED if isinstance(exc, SimulationTimeout)
            else EXIT_ABNORMAL)


__all__ = ["EXIT_ABNORMAL", "EXIT_BUDGET_EXCEEDED", "FAULT_SITES", "Fault",
           "FaultPlan", "SITE_ACTIONS", "exit_code_for", "parse_fault_spec"]
