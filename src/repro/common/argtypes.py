"""``argparse`` ``type=`` validators shared by the command-line entry points.

A bad integer flag must fail at parse time with argparse's usage error
(exit 2), not later as an uncaught simulator exception.
"""

from __future__ import annotations

import argparse


def _bounded_int(text: str, minimum: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
    return value


def positive_int(text: str) -> int:
    """An integer >= 1."""
    return _bounded_int(text, 1, ">= 1")


def non_negative_int(text: str) -> int:
    """An integer >= 0."""
    return _bounded_int(text, 0, ">= 0")
