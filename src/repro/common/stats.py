"""Cycle accounting for the Figure 7 time breakdowns."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict


class TimeBuckets:
    """Cycle accounting split across named buckets.

    Used for the Figure 7 breakdown: lifeguard time is charged to
    ``useful``, ``wait_dependence`` or ``wait_application``; application
    time to ``execute``, ``wait_log`` or ``wait_containment``.
    """

    __slots__ = ("buckets",)

    def __init__(self):
        self.buckets: Dict[str, int] = defaultdict(int)

    def charge(self, bucket: str, cycles: int) -> None:
        if cycles < 0:
            raise ValueError(f"cannot charge negative cycles to {bucket!r}")
        self.buckets[bucket] += cycles

    def get(self, bucket: str, default: int = 0) -> int:
        return self.buckets.get(bucket, default)

    @property
    def total(self) -> int:
        return sum(self.buckets.values())

    def as_dict(self) -> Dict[str, int]:
        return dict(self.buckets)

    def fractions(self) -> Dict[str, float]:
        """Each bucket as a fraction of the total (empty -> {})."""
        total = self.total
        if not total:
            return {}
        return {name: cycles / total for name, cycles in self.buckets.items()}

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.buckets.items()))
        return f"TimeBuckets({inner})"
