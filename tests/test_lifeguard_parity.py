"""The lifeguards' handler tables, pinned.

A lifeguard registers one handler per delivered-event key (see the
``repro.lifeguards.base`` docstring); an event whose key has no entry
is dropped before dispatch. ``REGISTERED`` pins every lifeguard's key
set, and every registered handler is run once on a representative
event of its key: it must charge at least one instruction and return a
list of timed accesses. An event without an entry is dropped by
delivery, and ``Lifeguard.handle`` refuses it.
"""

import pytest

from repro.capture.events import Record, RecordKind
from repro.cpu.os_model import AddressLayout
from repro.isa.instructions import HLEventKind
from repro.lifeguards import LIFEGUARDS
from repro.lifeguards.base import event_key
from repro.lifeguards.oracle import replay_events

HEAP_START, _HEAP_END = AddressLayout.heap_range()
ADDR = HEAP_START + 0x100
SRC = HEAP_START + 0x200
LOCK = HEAP_START + 0x300

_ACCESSES = {"load", "store", "rmw", "load_versioned"}
_PROPAGATION = _ACCESSES | {"movrr", "alu", "loadi", "critical",
                            "reg_inherit", "mem_inherit"}
_DATA_FLOW_HL = set(HLEventKind) - {HLEventKind.LOCK, HLEventKind.UNLOCK}

#: Lifeguard name -> the keys its handler table registers.
REGISTERED = {
    "taintcheck": _PROPAGATION | _DATA_FLOW_HL,
    "memcheck": _PROPAGATION | {"load_check"} | _DATA_FLOW_HL,
    "addrcheck": _ACCESSES | {HLEventKind.MALLOC, HLEventKind.FREE},
    "lockset": _ACCESSES | set(HLEventKind),
}


def record(kind, tid=0, rid=1, **fields):
    rec = Record(tid, rid, kind)
    for name, value in fields.items():
        setattr(rec, name, value)
    return rec


def _mem(kind):
    return record(kind, addr=ADDR, size=4, rd=1, rs1=2)


def _hl(kind, phase_kind, ranges=((ADDR, 64),)):
    return ("hl", record(phase_kind, hl_kind=kind, ranges=ranges))


#: One representative delivered event per key of the vocabulary (two for
#: ``alu``: the 1- and 2-source forms).
VOCABULARY = {
    "load": ("load", _mem(RecordKind.LOAD)),
    "store": ("store", _mem(RecordKind.STORE)),
    "rmw": ("rmw", _mem(RecordKind.RMW)),
    "load_check": ("load_check", _mem(RecordKind.LOAD)),
    "movrr": ("movrr", record(RecordKind.MOVRR, rd=1, rs1=2)),
    "alu": ("alu", record(RecordKind.ALU, rd=1, rs1=2, rs2=3)),
    "alu-1src": ("alu", record(RecordKind.ALU, rd=1, rs1=2, rs2=None)),
    "loadi": ("loadi", record(RecordKind.LOADI, rd=1)),
    "critical": ("critical", record(RecordKind.CRITICAL_USE, rs1=1,
                                    critical_kind="jump-target")),
    "hl-malloc": _hl(HLEventKind.MALLOC, RecordKind.HL_END),
    "hl-free": _hl(HLEventKind.FREE, RecordKind.HL_BEGIN),
    "hl-lock": _hl(HLEventKind.LOCK, RecordKind.HL_END, ((LOCK, 4),)),
    "hl-unlock": _hl(HLEventKind.UNLOCK, RecordKind.HL_BEGIN, ((LOCK, 4),)),
    "hl-sysread": _hl(HLEventKind.SYSCALL_READ, RecordKind.HL_END,
                      ((ADDR, 16),)),
    "hl-syswrite": _hl(HLEventKind.SYSCALL_WRITE, RecordKind.HL_BEGIN,
                       ((ADDR, 16),)),
    "hl-sysother": _hl(HLEventKind.SYSCALL_OTHER, RecordKind.HL_END, ()),
    "hl-threadstart": _hl(HLEventKind.THREAD_START, RecordKind.HL_END, ()),
    "reg_inherit": ("reg_inherit", 0, 1, [(SRC, 4)], [2]),
    "mem_inherit": ("mem_inherit", ADDR, 4, [(SRC, 4)], [1],
                    _mem(RecordKind.STORE)),
    "load_versioned": ("load_versioned", _mem(RecordKind.LOAD),
                       (ADDR, 4, [0] * 4)),
}

REGISTERED_EVENTS = [
    (label, name)
    for label, event in VOCABULARY.items()
    for name in LIFEGUARDS
    if event_key(event) in REGISTERED[name]
]


def test_registered_keys_are_pinned(heap_range):
    assert {event_key(event) for event in VOCABULARY.values()} == set().union(
        *REGISTERED.values())
    for name, cls in LIFEGUARDS.items():
        assert set(cls(heap_range=heap_range).handlers) == REGISTERED[name], name


@pytest.mark.parametrize("label,name", REGISTERED_EVENTS,
                         ids=[f"{label}-{name}"
                              for label, name in REGISTERED_EVENTS])
def test_every_wanted_kind_reaches_a_handler_arm(label, name, heap_range):
    lifeguard = LIFEGUARDS[name](heap_range=heap_range)
    cost, accesses = lifeguard.handle(VOCABULARY[label])
    assert cost >= 1
    assert isinstance(accesses, list)


@pytest.mark.parametrize("name", list(LIFEGUARDS))
def test_unwanted_events_still_return_safely(name, heap_range):
    """Delivery drops an event without a registered handler: the replay
    returns and the lifeguard's state is untouched."""
    fresh = LIFEGUARDS[name](heap_range=heap_range)
    replayed = replay_events([("bogus_kind", record(RecordKind.NOP))],
                             lambda: LIFEGUARDS[name](heap_range=heap_range))
    assert replayed.metadata_fingerprint() == fresh.metadata_fingerprint()


@pytest.mark.parametrize("name", list(LIFEGUARDS))
def test_handle_of_unregistered_kind_raises(name, heap_range):
    lifeguard = LIFEGUARDS[name](heap_range=heap_range)
    with pytest.raises(KeyError):
        lifeguard.handle(("bogus_kind", record(RecordKind.NOP)))
