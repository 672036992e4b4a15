"""``argparse`` ``type=`` validators shared by the command-line entry points.

A bad numeric flag or an unwritable output path must fail at parse time
with argparse's usage error (exit 2), not later as an uncaught simulator
exception or after the run has done its work.
"""

from __future__ import annotations

import argparse
import math
import os


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


def output_path(text: str) -> str:
    """A file path to write: it must not be empty, its directory must
    exist, and it must not itself be a directory. ``-`` (stdout, for
    the flags that take it) passes, since its directory is the current
    one."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    parent = os.path.dirname(text) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"no such directory: {parent!r}")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def positive_float(text: str) -> float:
    """A finite number > 0 (e.g. a wall-clock timeout in seconds)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}")
    return value
