"""Deterministic capped exponential backoff for retries.

Before this module existed, ``run_jobs`` re-dispatched a failing job
*immediately*: a job that crashed its worker (or a flaky host resource)
was hammered again with zero delay, and the retry schedule depended on
nothing at all. Every retry — after an error, a crash or a timeout —
now waits out a delay that is deliberately free of wall-clock
randomness: the jittered delay for ``(job_id, attempt)`` is a pure
function of the policy's seed, so a re-run of the same sweep sleeps the
same delays in the same places, and two attempts of different jobs
decorrelate without ever consulting ``random`` state that the simulator
(or another job) might share.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with deterministic, seeded jitter.

    The raw delay after the ``attempt``-th failure (numbering from 1) is
    ``min(cap, base * factor ** (attempt - 1))``; jitter then stretches
    it by up to ``jitter`` (fractionally), using a unit value derived by
    hashing ``(seed, job_id, attempt)`` — never the wall clock, never a
    shared RNG. The final delay is re-capped at ``cap``.
    """

    base: float = 0.1
    factor: float = 2.0
    cap: float = 5.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.base < 0.0:
            raise ValueError("backoff base must be >= 0")
        if self.factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.cap < 0.0:
            raise ValueError("backoff cap must be >= 0")
        if self.jitter < 0.0:
            raise ValueError("backoff jitter must be >= 0")

    def delay(self, job_id: str, attempt: int) -> float:
        """Seconds to wait before re-dispatching ``job_id`` after its
        ``attempt``-th failed attempt."""
        raw = min(self.cap, self.base * self.factor ** max(0, attempt - 1))
        if not self.jitter or not raw:
            return raw
        digest = hashlib.sha256(
            f"{self.seed}:{job_id}:{attempt}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / 2 ** 64
        return min(self.cap, raw * (1.0 + self.jitter * unit))

    @classmethod
    def none(cls) -> "BackoffPolicy":
        """A zero-delay policy: immediate retries, the historical
        behavior. Useful for tests that exercise many failures."""
        return cls(base=0.0, cap=0.0, jitter=0.0)
