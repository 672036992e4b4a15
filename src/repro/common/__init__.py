"""Shared plumbing for the ParaLog reproduction.

This package holds the pieces every subsystem depends on: the simulation
configuration (mirroring Table 1 of the paper), typed identifiers,
error types, and time buckets.
"""

from repro.common.config import (
    CacheConfig,
    CaptureMode,
    LifeguardCostConfig,
    LogBufferConfig,
    MemoryModel,
    ScalePreset,
    SimulationConfig,
)
from repro.common.errors import (
    ConfigurationError,
    DeadlockError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.common.stats import TimeBuckets

__all__ = [
    "CacheConfig",
    "CaptureMode",
    "ConfigurationError",
    "DeadlockError",
    "LifeguardCostConfig",
    "LogBufferConfig",
    "MemoryModel",
    "ReproError",
    "ScalePreset",
    "SimulationConfig",
    "SimulationError",
    "TimeBuckets",
    "WorkloadError",
]
