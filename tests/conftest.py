"""Shared fixtures and helpers for the test suite."""

import gc
from collections import Counter

import pytest

from repro.common.config import LifeguardCostConfig, SimulationConfig
from repro.cpu.os_model import AddressLayout


@pytest.fixture
def config2():
    """A 2-app-thread Table-1 configuration."""
    return SimulationConfig.for_threads(2)


@pytest.fixture
def config4():
    return SimulationConfig.for_threads(4)


@pytest.fixture
def costs():
    return LifeguardCostConfig()


@pytest.fixture
def heap_range():
    return AddressLayout.heap_range()


def no_cyclic_garbage(fn):
    """Run ``fn()`` and return its result; fail if it left objects that
    only the cyclic garbage collector can free.

    ``fn`` runs with the collector off, then one collection under
    ``DEBUG_SAVEALL`` keeps everything it would have freed, and the
    failure names those objects' types (``deque×1024, AppCore×4``).
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = fn()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
        finally:
            gc.set_debug(0)
        leaked = Counter(type(obj).__name__ for obj in gc.garbage)
        gc.garbage.clear()
    finally:
        if was_enabled:
            gc.enable()
    if leaked:
        pytest.fail(f"{sum(leaked.values())} objects left for the cyclic "
                    f"garbage collector: " + ", ".join(
                        f"{name}×{count}"
                        for name, count in leaked.most_common()))
    return result


def survivors(fn, *types):
    """Run ``fn()`` with the cyclic garbage collector off; returns its
    result and the sorted type names of the ``types`` instances created
    meanwhile that are still alive (reachable, or stranded in a
    reference cycle)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Hold the older instances, so no new one can reuse their ids.
        older = [obj for obj in gc.get_objects() if isinstance(obj, types)]
        seen = {id(obj) for obj in older}
        result = fn()
        alive = sorted(type(obj).__name__ for obj in gc.get_objects()
                       if isinstance(obj, types) and id(obj) not in seen)
    finally:
        if was_enabled:
            gc.enable()
    return result, alive


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running integration tests")
