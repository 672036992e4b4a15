"""The scenario library: what the server can run.

``GET /scenarios`` exposes the full runnable cross product —
:data:`repro.workloads.WORKLOADS` × :data:`repro.platform.SCHEMES` ×
:data:`repro.lifeguards.LIFEGUARDS` — so a client can enumerate valid
``POST /runs`` payloads without guessing, the way SimCash's scenario
library fronts its simulation API. Each entry is a ``POST /runs``
payload as it stands (workload, scheme, lifeguard; every other field
takes its default).
"""

from __future__ import annotations

from typing import Dict, List

from repro.lifeguards import LIFEGUARDS
from repro.platform import MONITORED_SCHEMES, SCHEMES
from repro.workloads import WORKLOADS


def scenario_library() -> List[Dict[str, object]]:
    """Every runnable workload × scheme × lifeguard combination."""
    scenarios: List[Dict[str, object]] = []
    for workload in sorted(WORKLOADS):
        for scheme in SCHEMES:
            # An unmonitored scheme pairs with ``lifeguard: null`` only.
            lifeguards = (sorted(LIFEGUARDS) if scheme in MONITORED_SCHEMES
                          else [None])
            for lifeguard in lifeguards:
                scenarios.append({"workload": workload, "scheme": scheme,
                                  "lifeguard": lifeguard})
    return scenarios
