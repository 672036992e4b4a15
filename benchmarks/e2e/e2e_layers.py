"""Charge a cProfile run's self time to the simulator's layers.

A layer is a fixed set of modules under ``src/repro``. Functions
outside the package (builtins, ``json``, ``heapq``) have no layer of
their own: their self time goes to the layers that called them, split
along cProfile's caller edges by each edge's time, hop by hop until a
``repro`` caller is reached. Time with no ``repro`` ancestor at all is
``other``. The profiler is stdlib and attached from outside the
program, so ``src/`` carries no spans or counters for this.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Optional, Tuple

#: Layer -> modules, as paths relative to ``src/repro``. An entry ending
#: in ``/`` is a whole subpackage; any other entry is one file. Every
#: module of the package matches exactly one entry (the self-tests
#: enforce it, so a new module must be placed here).
LAYERS = {
    "cpu.engine": ("cpu/engine.py",),
    "cpu.cores": ("cpu/__init__.py", "cpu/cores.py", "cpu/os_model.py",
                  "isa/"),
    "cpu.lifeguard_core": ("cpu/lifeguard_core.py",),
    "workloads": ("workloads/",),
    "memory": ("memory/",),
    "capture": ("capture/",),
    "enforce": ("enforce/",),
    "accel": ("accel/",),
    "lifeguards": ("lifeguards/",),
    "trace": ("trace/__init__.py", "trace/writer.py", "trace/tail.py"),
    "trace.diff": ("trace/diff.py",),
    "replay": ("replay/",),
    "platform": ("platform/", "common/", "faults/"),
    # Entry points the benchmark never drives; time here means a public
    # call started routing through a front end.
    "frontends": ("__init__.py", "__main__.py", "cli.py", "eval/", "jobs/",
                  "perf/", "serve/"),
}


def matching_entries(relpath: str) -> list:
    """Every (layer, entry) of :data:`LAYERS` that covers ``relpath``."""
    return [(layer, entry) for layer, entries in LAYERS.items()
            for entry in entries
            if relpath == entry
            or (entry.endswith("/") and relpath.startswith(entry))]


def layer_of(relpath: str) -> Optional[str]:
    """The layer of a module path relative to ``src/repro``, or None."""
    matches = matching_entries(relpath)
    return matches[0][0] if matches else None


def attribute(stats: dict, package_dir: str
              ) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Split profiled self time over the layers.

    ``stats`` is ``pstats.Stats(profiler).stats``: function ->
    ``(cc, nc, tt, ct, callers)`` with ``callers[caller] = (nc, cc, tt,
    ct)`` for that edge. Returns ``(self_s, calls_in, other_s)``:
    seconds per layer, calls per layer that arrive from a different
    layer, and the seconds no layer accounts for.
    """
    prefix = os.path.join(os.path.realpath(package_dir), "")
    layers: Dict[tuple, Optional[str]] = {}
    for func in stats:
        path = os.path.realpath(func[0]) if func[0] != "~" else ""
        layers[func] = (layer_of(path[len(prefix):].replace(os.sep, "/"))
                        if path.startswith(prefix) else None)

    memo: Dict[tuple, Dict[Optional[str], float]] = {}

    def destinations(func, weight_index, visiting):
        """Layer -> share of time spent in the non-``repro`` ``func``.

        The first hop splits a function's self time by the edges' own
        time (index 2); later hops split a caller's share by the edges'
        cumulative time (index 3). Cycles and roots end in ``None``.
        """
        key = (func, weight_index)
        if key in memo:
            return memo[key]
        callers = {caller: edge for caller, edge in stats[func][4].items()
                   if caller != func}
        weights = {caller: edge[weight_index]
                   for caller, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: edge[0] for caller, edge in callers.items()}
        total = sum(weights.values())
        shares: Dict[Optional[str], float] = defaultdict(float)
        if not total:
            shares[None] = 1.0
        for caller, weight in weights.items():
            part = weight / total if total else 0.0
            layer = layers.get(caller)
            if layer is not None:
                shares[layer] += part
            elif caller in visiting or caller not in stats:
                shares[None] += part
            else:
                for dest, sub in destinations(
                        caller, 3, visiting | {caller}).items():
                    shares[dest] += part * sub
        memo[key] = shares
        return shares

    def caller_layer(caller) -> Optional[str]:
        if layers.get(caller) is not None:
            return layers[caller]
        if caller not in stats:
            return None
        shares = destinations(caller, 3, frozenset({caller}))
        return max(shares, key=lambda dest: shares[dest])

    self_s: Dict[Optional[str], float] = defaultdict(float)
    calls_in: Dict[str, int] = defaultdict(int)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layers[func]
        if layer is None:
            for dest, share in destinations(func, 2,
                                            frozenset({func})).items():
                self_s[dest] += tt * share
            continue
        self_s[layer] += tt
        calls_in[layer] += sum(edge[0] for caller, edge in callers.items()
                               if caller_layer(caller) != layer)
    other = self_s.pop(None, 0.0)
    return dict(self_s), dict(calls_in), other
