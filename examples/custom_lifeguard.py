#!/usr/bin/env python3
"""Tutorial: writing your own lifeguard for the ParaLog platform.

The platform runs any lifeguard that subclasses
:class:`repro.lifeguards.Lifeguard`: register a handler for each event
you handle in the ``handlers`` table, and declare which accelerators
apply and which high-level events need ConflictAlert ordering. Here we
build a **false-sharing profiler**: it keeps one metadata byte per cache
line recording which threads have written the line, and reports lines
written by multiple threads — the classic scalability bug.

Design notes, mapped to the paper's framework:

* the profiler *writes* metadata in response to application writes only,
  and reads it on loads — so it satisfies the synchronization-free
  fast-path conditions (Section 5.3) as long as instruction arcs are
  enforced: ``needs_instruction_arcs = True``;
* per-line state never changes on malloc/free, so it needs *no*
  ConflictAlert subscriptions at all;
* register events carry nothing useful, so its handler table
  registers no key for them — the delivery hardware drops them for free;
* the M-TLB accelerates its metadata address computation like any other
  lifeguard.
"""

from repro import SimulationConfig, build_workload, run_parallel_monitoring
from repro.lifeguards.base import Lifeguard


class FalseSharingProfiler(Lifeguard):
    """Reports cache lines written by more than one thread."""

    name = "false_sharing"
    bits_per_app_byte = 1  # modeled footprint of the line-owner map
    needs_instruction_arcs = True
    uses_it = False
    uses_if = False
    uses_mtlb = True
    monitors_allocator_internals = False

    def __init__(self, costs=None, heap_range=None):
        super().__init__(costs=costs, heap_range=heap_range)
        self._line_writers = {}  # line -> set of tids
        self._reported = set()
        # Register a handler per event key; the delivery hardware drops
        # every other event (register traffic, loads, high-level events)
        # before dispatch, for free.
        self.handlers = {"store": self._write, "rmw": self._write}

    def _write(self, event):
        rec = event[1]
        self._note_write(rec.tid, rec.rid, rec.addr)
        return (self.costs.handler_body_cost, [(rec.addr, rec.size, True)])

    def _note_write(self, tid, rid, addr):
        line = addr // 64
        writers = self._line_writers.setdefault(line, set())
        writers.add(tid)
        if len(writers) > 1 and line not in self._reported:
            self._reported.add(line)
            self.violation(
                "shared-written-line", tid, rid,
                f"line {line * 64:#x} written by threads "
                f"{sorted(writers)}",
            )

    def report_lines(self):
        return sorted(line * 64 for line in self._reported)


def main():
    print("Profiling write-shared cache lines in two benchmarks.\n")
    for bench in ("blackscholes", "fluidanimate"):
        result = run_parallel_monitoring(
            build_workload(bench, 4), FalseSharingProfiler,
            SimulationConfig.for_threads(4))
        shared = result.lifeguard_obj.report_lines()
        print(f"{bench:13s}: {len(shared)} write-shared lines "
              f"(overhead {result.total_cycles:,} cycles)")
        for addr in shared[:4]:
            print(f"    line {addr:#010x}")
        if len(shared) > 4:
            print(f"    ... and {len(shared) - 4} more")
    print("\nblackscholes partitions its data, so only its barrier/lock "
          "lines are write-shared;\nfluidanimate's boundary cells show up "
          "as genuinely shared application data.")


if __name__ == "__main__":
    main()
