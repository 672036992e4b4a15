"""Address arithmetic helpers shared by caches, capture and lifeguards."""

from __future__ import annotations


def ranges_overlap(a_start: int, a_len: int, b_start: int, b_len: int) -> bool:
    """Do the byte ranges ``[a, a+a_len)`` and ``[b, b+b_len)`` intersect?"""
    return a_start < b_start + b_len and b_start < a_start + a_len
