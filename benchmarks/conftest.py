"""Benchmark-harness configuration.

Environment knobs:

* ``REPRO_SCALE`` — workload scale preset: ``tiny`` (default), ``small``
  or ``paper``.
* ``REPRO_MAX_THREADS`` — largest application-thread count swept
  (default 8, i.e. a 16-core CMP, matching the paper).
* ``REPRO_SEED`` — workload seed (default 1).

Every bench is a plain test in the ``slow`` tier (``pytestmark`` in each
``bench_*.py``), so it runs only when asked for::

    PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/e2e -m slow

It prints its result table (run pytest with ``-s`` to see them live)
*and* writes it under ``benchmarks/results/`` so the numbers that back
EXPERIMENTS.md are regenerable artifacts; its shape assertions check
the paper's claims on them.
"""

import os
import pathlib

import pytest

from repro.common.config import ScalePreset

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def scale():
    return ScalePreset(os.environ.get("REPRO_SCALE", "tiny"))


@pytest.fixture(scope="session")
def max_threads():
    return int(os.environ.get("REPRO_MAX_THREADS", "8"))


@pytest.fixture(scope="session")
def thread_counts(max_threads):
    return tuple(t for t in (1, 2, 4, 8) if t <= max_threads)


@pytest.fixture(scope="session")
def seed():
    return int(os.environ.get("REPRO_SEED", "1"))


@pytest.fixture(scope="session")
def publish():
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _publish(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _publish
