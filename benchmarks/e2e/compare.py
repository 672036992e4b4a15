"""Compare two sets of end-to-end benchmark results, A (parent) and B.

    python3 benchmarks/e2e/compare.py --a A1.json A2.json ... \\
        --b B1.json B2.json ...

Each file is a report written by ``run.py --output`` (one workload or
all four). Runs pair up in the order given, so pass A and B runs made
alternately, in the same order. For every (workload, end-to-end
metric) the script prints both medians and quartiles, how many pairs B
won, and a verdict:

* ``improved``: B wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than A's quartile spread;
* ``worse``: B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``unresolved``: not worse, but the run-to-run spread of A or B is
  wider than the bound, and not every B run beats every A run;
* ``unchanged``: otherwise.

Exit code 1 if any verdict is worse or unresolved, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a, b, better: str, bound: float):
    """(verdict, pairs B won) for one metric's A and B values."""
    sign = 1 if better == "higher" else -1
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    gain = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if (pairs and wins >= 0.9 * len(pairs) and gain > 0
            and abs(b_med - a_med) > a_q3 - a_q1):
        return "improved", wins
    if gain < -bound:
        return "worse", wins
    if spread > bound and not all(sign * (y - x) > 0 for x in a for y in b):
        return "unresolved", wins
    return "unchanged", wins


def load_runs(paths):
    """workload -> metric -> values, in file order."""
    runs = {}
    for path in paths:
        report = json.loads(Path(path).read_text())
        for workload, result in report["workloads"].items():
            for metric, entry in result["metrics"].items():
                runs.setdefault(workload, {}).setdefault(
                    metric, []).append(entry["value"])
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of end-to-end benchmark results.")
    parser.add_argument("--a", nargs="+", required=True,
                        help="reports of the parent commit")
    parser.add_argument("--b", nargs="+", required=True,
                        help="reports of the changed commit")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    bad = 0
    print(f"{'workload':<14} {'metric':<20} {'A median [q1, q3]':>36} "
          f"{'B median [q1, q3]':>36} {'change':>8} {'B won':>6}  verdict")
    for workload in sorted(set(a_runs) & set(b_runs)):
        for metric in metrics:
            name = metric["name"]
            a = a_runs[workload].get(name)
            b = b_runs[workload].get(name)
            if not a or not b:
                continue
            result, wins = verdict(a, b, metric["better"], metric["bound"])
            bad += result in ("worse", "unresolved")
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            print(f"{workload:<14} {name:<20} "
                  f"{f'{a_med:.4f} [{a_q1:.4f}, {a_q3:.4f}]':>36} "
                  f"{f'{b_med:.4f} [{b_q1:.4f}, {b_q3:.4f}]':>36} "
                  f"{(b_med - a_med) / a_med:>+8.2%} "
                  f"{wins:>2}/{min(len(a), len(b)):<3}  {result}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
