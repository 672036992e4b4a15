"""Worker-side harness for the pool path.

Everything in this module runs *inside worker processes*: it executes
the user's module-level worker callable on a payload, JSON-normalizes
the value and stamps it with an integrity digest
(:func:`repro.jobs.model.result_digest`) so the coordinator can detect
corruption in flight. It also arms the ``worker`` chaos site
(:mod:`repro.faults`), driven by the same seeded
:class:`~repro.faults.FaultPlan` machinery as the simulator's own hook
points: ``kill`` hard-exits the process mid-sweep, ``hang`` sleeps
inside the job (so only the hard deadline can reap it), and
``corrupt_result`` mangles the value *after* the digest was computed.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Tuple

from repro.faults import EXIT_ABNORMAL, Fault, FaultPlan
from repro.jobs.model import normalize_value, result_digest

#: Default sleep for ``worker:hang`` when the fault spec has no param.
HANG_SECONDS = 3600

#: This worker process's fault plan, armed once by the pool initializer.
_POOL_STATE = {"plan": None}


def arm_pool_worker(faults: Tuple[Fault, ...], seed: int) -> None:
    """``ProcessPoolExecutor`` initializer: arm this worker process's
    *own* fault plan (opportunity counters and RNG included), so
    ``after``/``count`` scopes count per worker life — a replacement
    worker starts clean, which is what lets a sweep recover from a
    fault that murdered its predecessor. Pool workers have no stable
    worker id, so ``tid``-scoped worker faults never fire."""
    _POOL_STATE["plan"] = (FaultPlan(faults=faults, seed=seed)
                           if faults else None)


def pool_shim(worker_fn: Callable, payload, job_id: str) -> dict:
    """The callable actually submitted to pool workers: run one job
    under the ``worker`` chaos site.

    Returns ``{"value": <normalized>, "digest": <hex>}``. The digest is
    always computed over the *true* value; ``corrupt_result`` then
    swaps the value out, so the coordinator's integrity check catches
    it.
    """
    plan = _POOL_STATE["plan"]
    fault = plan.fire("worker", context=job_id) if plan is not None else None
    if fault is not None and fault.action == "kill":
        os._exit(EXIT_ABNORMAL)
    if fault is not None and fault.action == "hang":
        time.sleep(fault.param or HANG_SECONDS)
    value = normalize_value(worker_fn(payload))
    digest = result_digest(value)
    if fault is not None and fault.action == "corrupt_result":
        value = {"__corrupted__": job_id}
    return {"value": value, "digest": digest}
