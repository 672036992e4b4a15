"""Golden trace-archive fixture: byte-level drift detection.

``tests/data/golden_v1.plog`` is a committed archive of a fixed
synthetic trace. If the on-disk encoding changes — record codec, arc
codec, commit-time stream, manifest layout — this test fails loudly
and tells you what to do: an *intentional* format change must bump
``FORMAT_VERSION`` and regenerate the fixture; an unintentional one is
a compatibility break caught before it ships.

Regenerate (after bumping the version) with::

    PYTHONPATH=src python tests/test_replay_golden.py --regen
"""

import pathlib

import pytest

from repro.capture.events import Record, RecordKind
from repro.common.errors import TraceFormatError
from repro.replay import FORMAT_VERSION, MAGIC, TraceReader, write_archive

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_v1.plog"

REGEN_HINT = (
    "golden archive drift: the .plog encoding no longer matches "
    f"{GOLDEN}. If this format change is intentional, bump "
    "FORMAT_VERSION in src/repro/replay/format.py and regenerate with "
    "`PYTHONPATH=src python tests/test_replay_golden.py --regen`; "
    "if not, you just broke compatibility with existing archives."
)


def golden_trace():
    """The frozen capture the fixture serializes. Do NOT edit: changing
    this trace invalidates the committed golden bytes.

    The commit times were once 9 higher (10, 12, 15 / 11, 13, 16), and
    the writer subtracted the smallest minus one to root them at 1. The
    writer now stores each run's own 1-based times as they are, so the
    times here were lowered by exactly that 9 and the bytes did not
    change."""
    def mem(tid, rid, kind, addr, reg, commit_time):
        record = Record(tid, rid, kind)
        record.addr = addr
        record.size = 4
        if kind == RecordKind.STORE:
            record.rs1 = reg
        else:
            record.rd = reg
        record.commit_time = commit_time
        return record

    t0 = [
        mem(0, 1, RecordKind.STORE, 0x1000_0000, 1, 1),
        mem(0, 2, RecordKind.LOAD, 0x1000_0040, 2, 3),
        mem(0, 3, RecordKind.STORE, 0x1000_0000, 3, 6),
    ]
    t0[1].consume_version = (2, 0x1000_0040, 64)
    t1 = [
        mem(1, 1, RecordKind.LOAD, 0x1000_0000, 1, 2),
        Record(1, 2, RecordKind.CA_MARK),
        mem(1, 3, RecordKind.LOAD, 0x1000_0000, 4, 7),
    ]
    t1[0].add_arc(0, 1)
    t1[1].ca_id = 1
    t1[1].commit_time = 4
    t1[2].add_arc(0, 3)
    t1[2].add_reduced_arc(0, 1)
    return t0 + t1


def build_golden(path):
    """Write the golden archive; returns its manifest."""
    return write_archive(path, golden_trace(), nthreads=2,
                         meta={"generator": "golden", "fixture": 1})


def test_golden_archive_bytes_are_stable(tmp_path):
    assert GOLDEN.exists(), (
        f"missing fixture {GOLDEN} — regenerate with "
        f"`PYTHONPATH=src python tests/test_replay_golden.py --regen`")
    fresh = tmp_path / "golden.plog"
    build_golden(fresh)
    assert fresh.read_bytes() == GOLDEN.read_bytes(), REGEN_HINT


def test_golden_archive_carries_format_version():
    reader = TraceReader(GOLDEN)
    assert reader.version == FORMAT_VERSION
    assert reader.manifest["format_version"] == FORMAT_VERSION
    assert reader.meta["generator"] == "golden"


def test_golden_archive_decodes():
    reader = TraceReader(GOLDEN)
    assert reader.manifest["totals"]["records"] == 6
    linear = reader.linearized()
    assert [(r.tid, r.rid) for r in linear] == [
        (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    t1 = reader.records(1)
    assert t1[0].arcs == [(0, 1)]
    assert t1[2].arcs == [(0, 3)]
    assert t1[1].kind == RecordKind.CA_MARK and t1[1].ca_id == 1


def test_future_version_of_golden_rejected(tmp_path):
    data = bytearray(GOLDEN.read_bytes())
    data[len(MAGIC)] = FORMAT_VERSION + 1
    doctored = tmp_path / "future.plog"
    doctored.write_bytes(data)
    with pytest.raises(TraceFormatError, match="newer than the supported"):
        TraceReader(doctored)


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        manifest = build_golden(GOLDEN)
        print(f"wrote {GOLDEN} "
              f"({manifest['totals']['records']} records)")
    else:
        print(__doc__)
