"""Event-record compression measurement (the LBA ~1 byte/record claim).

Section 2 cites LBA: "Compression techniques can successfully reduce
the average size of an event record to less than 1 byte", which is what
the log-occupancy model charges. This bench encodes *actual* captured
traces with the repository's lossless codec and reports the measured
average bytes/record per benchmark — an honest point of comparison (a
simple software codec lands at a few bytes; the paper's figure assumes
aggressive hardware compression).
"""

import pytest

from repro import SimulationConfig, TaintCheck, build_workload, \
    run_parallel_monitoring
from repro.capture.compression import measure_stream
from repro.eval import format_table

pytestmark = pytest.mark.slow

BENCHES = ("lu", "barnes", "blackscholes", "swaptions")


def test_record_compression(publish, scale, seed):
    threads = 2
    rows = []

    def capture_and_measure(bench):
        result = run_parallel_monitoring(
            build_workload(bench, threads, scale, seed), TaintCheck,
            SimulationConfig.for_threads(threads), keep_trace=True)
        totals = [0, 0]
        for tid in range(threads):
            records = [r for r in result.trace if r.tid == tid]
            count, size, _avg = measure_stream(records)
            totals[0] += count
            totals[1] += size
        return totals

    for bench in BENCHES:
        count, size = capture_and_measure(bench)
        rows.append((bench, count, size, round(size / count, 2)))

    publish("compression",
            "Record compression on captured traces (TaintCheck, 2 threads)\n"
            + format_table(
                ["benchmark", "records", "encoded bytes", "avg B/record"],
                rows))
    # A software codec should stay within a small constant of the
    # paper's 1B hardware-compression figure on every trace.
    for _bench, _count, _size, average in rows:
        assert average < 5.0
