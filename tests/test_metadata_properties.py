"""Property tests: bulk MetadataMap range ops vs a naive per-byte oracle.

The bulk paths (`set_range`/`get_access`/`common_bits`/`all_equal`/
`any_equal`/`snapshot_range`) operate on whole packed metadata bytes
with bit-wise head/tail handling; the oracle below is the
obviously-correct per-byte dict model. Hypothesis drives random op
sequences across every ``bits_per_byte`` setting, deliberately
unaligned ranges, and ranges straddling the 64 KB chunk boundary, plus
handler-sized (1-8 byte) accesses that alternate between the two chunks
on either side of the boundary, so that every call switches the
last-chunk cache.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.lifeguards.metadata import CHUNK_APP_BYTES, MetadataMap  # noqa: E402

#: Address window straddling one chunk boundary (plus both interiors).
BASE = CHUNK_APP_BYTES - 64
WINDOW = 192


class Oracle:
    """Naive per-app-byte model of the metadata semantics."""

    def __init__(self, bits):
        self.mask = (1 << bits) - 1
        self.bytes = {}

    def set_range(self, addr, length, value):
        value &= self.mask
        for a in range(addr, addr + length):
            self.bytes[a] = value

    def get_access(self, addr, size):
        result = 0
        for a in range(addr, addr + size):
            result |= self.bytes.get(a, 0)
        return result

    def common_bits(self, addr, size):
        result = self.mask
        for a in range(addr, addr + size):
            result &= self.bytes.get(a, 0)
        return result

    def all_equal(self, addr, length, value):
        value &= self.mask
        return all(self.bytes.get(a, 0) == value
                   for a in range(addr, addr + length))

    def any_equal(self, addr, length, value):
        value &= self.mask
        return any(self.bytes.get(a, 0) == value
                   for a in range(addr, addr + length))

    def snapshot_range(self, addr, length):
        return [self.bytes.get(a, 0) for a in range(addr, addr + length)]


def ops_strategy():
    addr = st.integers(min_value=BASE, max_value=BASE + WINDOW)
    length = st.integers(min_value=0, max_value=WINDOW)
    value = st.integers(min_value=0, max_value=255)
    return st.lists(
        st.one_of(
            st.tuples(st.just("set"), addr, st.just(1), value),
            st.tuples(st.just("set_range"), addr, length, value),
            st.tuples(st.just("get_access"), addr, length, st.just(0)),
            st.tuples(st.just("common_bits"), addr, length, st.just(0)),
            st.tuples(st.just("all_equal"), addr, length, value),
            st.tuples(st.just("any_equal"), addr, length, value),
            st.tuples(st.just("snapshot"), addr, length, st.just(0)),
        ),
        min_size=1, max_size=40,
    )


def apply_ops(metadata, oracle, ops):
    """Run ``ops`` on both models, asserting every read agrees."""
    for op, addr, length, value in ops:
        if op == "set":
            metadata.set(addr, value)
            oracle.set_range(addr, 1, value)
        elif op == "set_range":
            metadata.set_range(addr, length, value)
            oracle.set_range(addr, length, value)
        elif op == "get_access":
            assert metadata.get_access(addr, length) == \
                oracle.get_access(addr, length)
        elif op == "common_bits":
            assert metadata.common_bits(addr, length) == \
                oracle.common_bits(addr, length)
        elif op == "all_equal":
            assert metadata.all_equal(addr, length, value) == \
                oracle.all_equal(addr, length, value)
        elif op == "any_equal":
            assert metadata.any_equal(addr, length, value) == \
                oracle.any_equal(addr, length, value)
        elif op == "snapshot":
            assert metadata.snapshot_range(addr, length) == \
                oracle.snapshot_range(addr, length)


def assert_same_state(metadata, oracle, low, high):
    """Final state agrees byte-for-byte (and via the nonzero scan)."""
    for a in range(low, high):
        assert metadata.get(a) == oracle.bytes.get(a, 0)
    nonzero = {a: v for a, v in oracle.bytes.items() if v}
    assert dict(metadata.nonzero_items()) == nonzero


@pytest.mark.parametrize("bits", [1, 2, 4, 8])
@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy())
def test_bulk_ops_match_naive_oracle(bits, ops):
    metadata = MetadataMap(bits)
    oracle = Oracle(bits)
    apply_ops(metadata, oracle, ops)
    assert_same_state(metadata, oracle, BASE - 8, BASE + WINDOW + 8)


#: Handler-sized accesses: the 16 bytes on either side of the chunk
#: boundary, 1-8 bytes long.
_NEAR = 16


def alternating_ops_strategy():
    """Ops whose accesses alternate between the chunk below the boundary
    and the chunk above it (an access may also straddle it)."""
    op = st.tuples(
        st.sampled_from(["set_range", "get_access", "common_bits",
                         "all_equal"]),
        st.integers(min_value=0, max_value=_NEAR - 1),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=255))
    return st.lists(op, min_size=2, max_size=60).map(lambda ops: [
        (name, CHUNK_APP_BYTES - _NEAR + offset if i % 2 == 0
         else CHUNK_APP_BYTES + offset, size, value)
        for i, (name, offset, size, value) in enumerate(ops)])


@pytest.mark.parametrize("bits", [1, 2, 4, 8])
@settings(max_examples=60, deadline=None)
@given(ops=alternating_ops_strategy())
def test_accesses_alternating_across_the_boundary(bits, ops):
    metadata = MetadataMap(bits)
    oracle = Oracle(bits)
    apply_ops(metadata, oracle, ops)
    assert_same_state(metadata, oracle, CHUNK_APP_BYTES - 2 * _NEAR,
                      CHUNK_APP_BYTES + 2 * _NEAR)


@pytest.mark.parametrize("bits", [1, 2, 4, 8])
@settings(max_examples=40, deadline=None)
@given(written=st.integers(min_value=0, max_value=_NEAR - 1),
       zeroed=st.lists(st.tuples(st.integers(min_value=0, max_value=64),
                                 st.integers(min_value=1, max_value=8)),
                       min_size=1, max_size=8))
def test_zero_writes_to_an_untouched_chunk_through_the_cache(bits, written,
                                                             zeroed):
    """A nonzero write makes the chunk below the boundary resident (and
    the cached one); zero writes of 1-8 bytes inside the next chunk
    then go through the one-chunk path and must allocate nothing."""
    metadata = MetadataMap(bits)
    oracle = Oracle(bits)
    ops = [("set_range", CHUNK_APP_BYTES - _NEAR + written, 1, 1)]
    for offset, size in zeroed:
        ops.append(("set_range", CHUNK_APP_BYTES + offset, size, 0))
        ops.append(("get_access", CHUNK_APP_BYTES + offset, size, 0))
        ops.append(("all_equal", CHUNK_APP_BYTES + offset, size, 0))
    apply_ops(metadata, oracle, ops)
    assert metadata.resident_chunks == 1
    assert metadata.chunk_allocations == 1
    assert_same_state(metadata, oracle, CHUNK_APP_BYTES - 2 * _NEAR,
                      CHUNK_APP_BYTES + 80)


@pytest.mark.parametrize("bits", [1, 2, 4, 8])
@settings(max_examples=40, deadline=None)
@given(addr=st.integers(min_value=BASE, max_value=BASE + WINDOW),
       length=st.integers(min_value=0, max_value=WINDOW))
def test_zero_writes_never_allocate(bits, addr, length):
    metadata = MetadataMap(bits)
    metadata.set_range(addr, length, 0)
    metadata.set(addr, 0)
    metadata.set_access(addr, max(1, length), 0)
    assert metadata.resident_chunks == 0
    assert metadata.chunk_allocations == 0
    assert metadata.peak_chunks == 0
    # ...and the range still reads back as all-zero.
    assert metadata.get_access(addr, max(1, length)) == 0
    assert metadata.common_bits(addr, max(1, length)) == 0
    assert metadata.all_equal(addr, length, 0)


@pytest.mark.parametrize("bits", [1, 2, 4, 8])
def test_chunk_boundary_straddle_exact(bits):
    """Deterministic spot-check: a write straddling the chunk boundary
    lands in two chunks and reads back exactly."""
    metadata = MetadataMap(bits)
    value = 1
    metadata.set_range(CHUNK_APP_BYTES - 3, 6, value)
    assert metadata.resident_chunks == 2
    for a in range(CHUNK_APP_BYTES - 3, CHUNK_APP_BYTES + 3):
        assert metadata.get(a) == value
    assert metadata.get(CHUNK_APP_BYTES - 4) == 0
    assert metadata.get(CHUNK_APP_BYTES + 3) == 0
    assert metadata.all_equal(CHUNK_APP_BYTES - 3, 6, value)
    assert metadata.get_access(CHUNK_APP_BYTES - 3, 6) == value
