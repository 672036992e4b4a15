"""The two-level shadow-metadata map.

Matches the organization described in Section 6 of the paper: a
first-level pointer array indexed by the high bits of the application
address, pointing to lazily allocated second-level chunks holding the
actual metadata bits. The paper's lifeguards use 2 metadata bits per
application byte (TaintCheck) or 1 bit per byte (AddrCheck).

Two views of the metadata coexist:

* the *semantic* view — ``get``/``set`` operate on Python state and are
  exact; this is what lifeguard correctness tests compare;
* the *simulated* view — :meth:`sim_accesses` maps an application access
  to the metadata byte range a real handler would touch, which the
  lifeguard core then sends through its own L1 for timing.

The metadata virtual-address mapping is linear (``META_BASE +
app_addr * bits / 8``), which together with >=32-byte cache lines gives
the bit-manipulation-race freedom argued in Section 5.3: two
application addresses sharing a metadata byte always share an
application cache line, so cross-thread conflicts on that metadata byte
are already ordered by the captured arcs.

Performance notes (the semantic view sits on the handler hot path):

* Range operations (``get_access``/``common_bits``/``set_access``/
  ``set_range``/``all_equal``/``any_equal``/``snapshot_range``) work
  on whole packed metadata *bytes* — partial head/tail slots are
  handled bit-wise, a long aligned middle is a single C-level
  ``bytearray`` slice operation — instead of one table walk per
  application byte.
* A one-entry last-chunk cache short-circuits the first-level lookup
  for sequential access patterns. The hot range ops
  (``get_access``/``common_bits``/``set_range``/``all_equal``) read it
  inline, so an access inside one chunk costs one call to a span
  helper and nothing else.
* Writing value 0 to a never-touched chunk is a **no-op**: zeroing
  sweeps over untouched memory must not materialize shadow chunks.
  :attr:`chunk_allocations` and :attr:`peak_chunks` make allocation
  behaviour observable (``stats["perf"]`` reports both).
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Tuple

from repro.common.errors import ConfigurationError

#: Base of the simulated metadata virtual address region.
META_BASE = 0x8000_0000

#: ``app_addr >> _CHUNK_SHIFT`` is the chunk number and
#: ``app_addr & _OFFSET_MASK`` the offset in the chunk.
_CHUNK_SHIFT = 16
#: Application bytes covered by one second-level chunk (64 KB).
CHUNK_APP_BYTES = 1 << _CHUNK_SHIFT
_OFFSET_MASK = CHUNK_APP_BYTES - 1

_VALID_BITS = (1, 2, 4, 8)
#: The aligned access sizes :meth:`MetadataMap.sim_accesses` emits.
_CHUNK_SIZES = frozenset({1, 2, 4, 8})

#: C-level scanner for nonzero metadata bytes (fingerprinting and
#: :meth:`MetadataMap.same_state`).
_NONZERO_RE = re.compile(rb"[^\x00]")


class MetadataMap:
    """bits-per-app-byte shadow state with lazy two-level allocation."""

    __slots__ = (
        "bits_per_byte",
        "_mask",
        "_per_byte",
        "_fill_unit",
        "_chunks",
        "_chunk_meta_bytes",
        "_last_chunk_no",
        "_last_chunk",
        "chunk_allocations",
        "peak_chunks",
    )

    def __init__(self, bits_per_byte: int):
        if bits_per_byte not in _VALID_BITS:
            raise ConfigurationError(
                f"bits_per_byte must be one of {_VALID_BITS}, got {bits_per_byte}"
            )
        self.bits_per_byte = bits_per_byte
        self._mask = (1 << bits_per_byte) - 1
        self._per_byte = 8 // bits_per_byte  # app bytes per metadata byte
        #: A 1 in every slot of one metadata byte: ``value *
        #: _fill_unit`` replicates a (masked) value across the byte.
        self._fill_unit = 0xFF // self._mask
        self._chunks: Dict[int, bytearray] = {}
        self._chunk_meta_bytes = CHUNK_APP_BYTES * bits_per_byte // 8
        self._last_chunk_no = -1
        self._last_chunk: bytearray = None
        #: Second-level chunks ever allocated (monotone).
        self.chunk_allocations = 0
        #: High-water mark of resident chunks (== allocations today, but
        #: kept separate so a future decommit path stays observable).
        self.peak_chunks = 0

    # -- chunk table ---------------------------------------------------------

    def _find_chunk(self, chunk_no: int):
        """Resident chunk or None, refreshing the last-chunk cache."""
        if chunk_no == self._last_chunk_no:
            return self._last_chunk
        chunk = self._chunks.get(chunk_no)
        if chunk is not None:
            self._last_chunk_no = chunk_no
            self._last_chunk = chunk
        return chunk

    def _alloc_chunk(self, chunk_no: int) -> bytearray:
        chunk = bytearray(self._chunk_meta_bytes)
        self._chunks[chunk_no] = chunk
        self.chunk_allocations += 1
        resident = len(self._chunks)
        if resident > self.peak_chunks:
            self.peak_chunks = resident
        self._last_chunk_no = chunk_no
        self._last_chunk = chunk
        return chunk

    # -- semantic view -----------------------------------------------------------

    def get(self, app_addr: int) -> int:
        """Metadata bits for one application byte (0 if never set)."""
        chunk_no, offset = divmod(app_addr, CHUNK_APP_BYTES)
        if chunk_no == self._last_chunk_no:
            chunk = self._last_chunk
        else:
            chunk = self._chunks.get(chunk_no)
            if chunk is None:
                return 0
            self._last_chunk_no = chunk_no
            self._last_chunk = chunk
        byte_index, slot = divmod(offset, self._per_byte)
        return (chunk[byte_index] >> (slot * self.bits_per_byte)) & self._mask

    def set(self, app_addr: int, value: int) -> None:
        """Set the metadata bits for one application byte.

        Writing 0 to an address whose chunk was never touched is a
        no-op — it must not allocate shadow memory.
        """
        value &= self._mask
        chunk_no, offset = divmod(app_addr, CHUNK_APP_BYTES)
        chunk = self._find_chunk(chunk_no)
        if chunk is None:
            if not value:
                return
            chunk = self._alloc_chunk(chunk_no)
        byte_index, slot = divmod(offset, self._per_byte)
        shift = slot * self.bits_per_byte
        chunk[byte_index] = (chunk[byte_index] & ~(self._mask << shift)) | (
            value << shift
        )

    # -- bulk range operations ----------------------------------------------------
    #
    # A span is the part of a range that lies in one chunk. The span
    # helpers work on bit positions inside the chunk: app byte ``offset``
    # owns bits ``[offset * bits, (offset + 1) * bits)``, counted from
    # bit 0 of metadata byte 0, so a span is a partial head byte, whole
    # middle bytes and a partial tail byte. The range ops walk their
    # spans in a loop with the last-chunk cache inline: an access of 1-8
    # bytes is one pass with no further call but the span helper's.

    def _spans(self, app_addr: int, length: int):
        """Yield (chunk_no, offset, span) covering [app_addr, app_addr+length)."""
        while length > 0:
            chunk_no, offset = divmod(app_addr, CHUNK_APP_BYTES)
            span = CHUNK_APP_BYTES - offset
            if span > length:
                span = length
            yield chunk_no, offset, span
            app_addr += span
            length -= span

    def _write_span(self, chunk: bytearray, offset: int, span: int,
                    fill: int) -> None:
        """Set every app byte in [offset, offset+span) of one chunk to the
        value whose replication across a metadata byte is ``fill``."""
        lo = offset * self.bits_per_byte
        hi = lo + span * self.bits_per_byte
        first, head = lo >> 3, lo & 7
        end, tail = hi >> 3, hi & 7
        if first == end:
            # Entirely inside one metadata byte.
            keep = ((1 << head) - 1) | ((0xFF << tail) & 0xFF)
            chunk[first] = (chunk[first] & keep) | (fill & (0xFF ^ keep))
            return
        if head:
            keep = (1 << head) - 1
            chunk[first] = (chunk[first] & keep) | (fill & (0xFF ^ keep))
            first += 1
        whole = end - first
        if whole == 1:
            chunk[first] = fill
        elif whole > 1:
            chunk[first:end] = bytes((fill,)) * whole
        if tail:
            keep = (0xFF << tail) & 0xFF
            chunk[end] = (chunk[end] & keep) | (fill & (0xFF ^ keep))

    def _or_span(self, chunk: bytearray, offset: int, span: int) -> int:
        """OR of the metadata bits of [offset, offset+span) in one chunk."""
        bits = self.bits_per_byte
        lo = offset * bits
        hi = lo + span * bits
        first = lo >> 3
        last = (hi - 1) >> 3
        if first == last:
            ored = (chunk[first] >> (lo & 7)) & ((1 << (hi - lo)) - 1)
        else:
            ored = (chunk[first] >> (lo & 7)) | (
                chunk[last] & (0xFF >> (7 - ((hi - 1) & 7))))
            if last - first > 8:
                # Distinct byte values in a long middle (C-level set
                # construction; at most 256 iterations below).
                for byte in set(chunk[first + 1:last]):
                    ored |= byte
            else:
                for index in range(first + 1, last):
                    ored |= chunk[index]
        # Fold the slot fields of the accumulated byte into one value.
        shift = bits
        while shift < 8:
            ored |= ored >> shift
            shift <<= 1
        return ored & self._mask

    def _and_span(self, chunk: bytearray, offset: int, span: int) -> int:
        """AND of the metadata bits of [offset, offset+span) in one chunk."""
        bits = self.bits_per_byte
        lo = offset * bits
        hi = lo + span * bits
        first = lo >> 3
        last = (hi - 1) >> 3
        # Slots outside the span read as all ones, the identity of AND.
        head = (1 << (lo & 7)) - 1
        tail = (0xFF << (((hi - 1) & 7) + 1)) & 0xFF
        if first == last:
            anded = chunk[first] | head | tail
        else:
            anded = (chunk[first] | head) & (chunk[last] | tail)
            if last - first > 8:
                for byte in set(chunk[first + 1:last]):
                    anded &= byte
            else:
                for index in range(first + 1, last):
                    anded &= chunk[index]
        # Fold: slot 0 ends up as the AND of every slot (the zeros the
        # shifts bring in from the top never reach it).
        shift = bits
        while shift < 8:
            anded &= anded >> shift
            shift <<= 1
        return anded & self._mask

    def _span_all_equal(self, chunk: bytearray, offset: int, span: int,
                        fill: int) -> bool:
        """Does every app byte in [offset, offset+span) carry the value
        whose replication across a metadata byte is ``fill``?"""
        lo = offset * self.bits_per_byte
        hi = lo + span * self.bits_per_byte
        first, head = lo >> 3, lo & 7
        end, tail = hi >> 3, hi & 7
        if first == end:
            keep = ((1 << head) - 1) | ((0xFF << tail) & 0xFF)
            return not (chunk[first] ^ fill) & (0xFF ^ keep)
        if head:
            if (chunk[first] ^ fill) & (0xFF ^ ((1 << head) - 1)):
                return False
            first += 1
        whole = end - first
        if whole == 1:
            if chunk[first] != fill:
                return False
        elif whole > 1:
            if chunk[first:end] != bytes((fill,)) * whole:
                return False
        return not (tail and (chunk[end] ^ fill) & ((1 << tail) - 1))

    def get_access(self, app_addr: int, size: int) -> int:
        """OR of the metadata bits across an access (taint semantics)."""
        result = 0
        while size > 0:
            offset = app_addr & _OFFSET_MASK
            span = CHUNK_APP_BYTES - offset
            if span > size:
                span = size
            chunk_no = app_addr >> _CHUNK_SHIFT
            if chunk_no == self._last_chunk_no:
                chunk = self._last_chunk
            else:
                chunk = self._chunks.get(chunk_no)
                if chunk is not None:
                    self._last_chunk_no = chunk_no
                    self._last_chunk = chunk
            if chunk is not None:
                result |= self._or_span(chunk, offset, span)
                if result == self._mask:
                    break  # saturated: no further byte can add bits
            app_addr += span
            size -= span
        return result

    def common_bits(self, app_addr: int, size: int) -> int:
        """AND of the metadata bits across an access: the bits every byte
        carries (all of them for an empty access)."""
        result = self._mask
        while size > 0:
            offset = app_addr & _OFFSET_MASK
            span = CHUNK_APP_BYTES - offset
            if span > size:
                span = size
            chunk_no = app_addr >> _CHUNK_SHIFT
            if chunk_no == self._last_chunk_no:
                chunk = self._last_chunk
            else:
                chunk = self._chunks.get(chunk_no)
                if chunk is None:
                    return 0  # untouched memory carries no bits
                self._last_chunk_no = chunk_no
                self._last_chunk = chunk
            result &= self._and_span(chunk, offset, span)
            if not result:
                break
            app_addr += span
            size -= span
        return result

    def set_range(self, app_addr: int, length: int, value: int) -> None:
        """Set every app byte of the range; zero writes never allocate."""
        value &= self._mask
        fill = value * self._fill_unit
        while length > 0:
            offset = app_addr & _OFFSET_MASK
            span = CHUNK_APP_BYTES - offset
            if span > length:
                span = length
            chunk_no = app_addr >> _CHUNK_SHIFT
            if chunk_no == self._last_chunk_no:
                chunk = self._last_chunk
            else:
                chunk = self._chunks.get(chunk_no)
                if chunk is not None:
                    self._last_chunk_no = chunk_no
                    self._last_chunk = chunk
                elif value:
                    chunk = self._alloc_chunk(chunk_no)
            # A None chunk here is zeroing untouched memory: a no-op.
            if chunk is not None:
                self._write_span(chunk, offset, span, fill)
            app_addr += span
            length -= span

    #: An access is a range: ``set_access(addr, size, value)``.
    set_access = set_range

    def all_equal(self, app_addr: int, length: int, value: int) -> bool:
        """True iff every byte of the range carries exactly ``value``."""
        value &= self._mask
        fill = value * self._fill_unit
        while length > 0:
            offset = app_addr & _OFFSET_MASK
            span = CHUNK_APP_BYTES - offset
            if span > length:
                span = length
            chunk_no = app_addr >> _CHUNK_SHIFT
            if chunk_no == self._last_chunk_no:
                chunk = self._last_chunk
            else:
                chunk = self._chunks.get(chunk_no)
                if chunk is not None:
                    self._last_chunk_no = chunk_no
                    self._last_chunk = chunk
            if chunk is None:
                if value:
                    return False  # untouched memory is all-zero
            elif not self._span_all_equal(chunk, offset, span, fill):
                return False
            app_addr += span
            length -= span
        return True

    def _span_any_equal(self, chunk: bytearray, offset: int, span: int,
                        value: int) -> bool:
        per = self._per_byte
        bits = self.bits_per_byte
        mask = self._mask
        b0, s0 = divmod(offset, per)
        b1, s1 = divmod(offset + span, per)
        if b0 == b1:
            byte = chunk[b0]
            return any((byte >> (slot * bits)) & mask == value
                       for slot in range(s0, s1))
        if s0:
            byte = chunk[b0]
            if any((byte >> (slot * bits)) & mask == value
                   for slot in range(s0, per)):
                return True
            b0 += 1
        if b1 > b0:
            for byte in set(chunk[b0:b1]):
                if any((byte >> (slot * bits)) & mask == value
                       for slot in range(per)):
                    return True
        if s1:
            byte = chunk[b1]
            return any((byte >> (slot * bits)) & mask == value
                       for slot in range(s1))
        return False

    def any_equal(self, app_addr: int, length: int, value: int) -> bool:
        value &= self._mask
        for chunk_no, offset, span in self._spans(app_addr, length):
            chunk = self._find_chunk(chunk_no)
            if chunk is None:
                if not value:
                    return True  # untouched memory carries 0
                continue
            if self._span_any_equal(chunk, offset, span, value):
                return True
        return False

    def nonzero_items(self) -> Iterator[Tuple[int, int]]:
        """Every (app_addr, bits) pair with nonzero metadata (test helper)."""
        per = self._per_byte
        bits = self.bits_per_byte
        mask = self._mask
        for chunk_no in sorted(self._chunks):
            chunk = self._chunks[chunk_no]
            chunk_base = chunk_no * CHUNK_APP_BYTES
            for match in _NONZERO_RE.finditer(bytes(chunk)):
                byte_index = match.start()
                byte = chunk[byte_index]
                for slot in range(per):
                    value = (byte >> (slot * bits)) & mask
                    if value:
                        yield (chunk_base + byte_index * per + slot, value)

    def same_state(self, other: "MetadataMap") -> bool:
        """Do two maps hold the same metadata for every application byte?

        The answer :func:`dict` of :meth:`nonzero_items` equality gives,
        without building either dict: with equal ``bits_per_byte`` the
        packed chunks are compared as bytes, and an absent chunk equals
        an all-zero one. Maps of different widths take the per-byte path.
        """
        if other.bits_per_byte != self.bits_per_byte:
            return dict(self.nonzero_items()) == dict(other.nonzero_items())
        mine, theirs = self._chunks, other._chunks
        for chunk_no in mine.keys() | theirs.keys():
            lhs = mine.get(chunk_no)
            rhs = theirs.get(chunk_no)
            if lhs is None or rhs is None:
                if _NONZERO_RE.search(rhs if lhs is None else lhs):
                    return False
            elif lhs != rhs:
                return False
        return True

    # -- TSO versioning ------------------------------------------------------------

    def snapshot_range(self, app_addr: int, length: int) -> List[int]:
        """Copy the per-byte metadata of a range (versioned metadata)."""
        out: List[int] = []
        per = self._per_byte
        bits = self.bits_per_byte
        mask = self._mask
        for chunk_no, offset, span in self._spans(app_addr, length):
            chunk = self._find_chunk(chunk_no)
            if chunk is None:
                out.extend([0] * span)
            else:
                out.extend([(chunk[index // per] >> ((index % per) * bits))
                            & mask for index in range(offset, offset + span)])
        return out

    @staticmethod
    def read_snapshot(snapshot: List[int], snap_base: int, app_addr: int,
                      size: int) -> int:
        """OR of snapshot bits for an access inside the snapshot range."""
        result = 0
        for i in range(size):
            index = app_addr + i - snap_base
            if 0 <= index < len(snapshot):
                result |= snapshot[index]
        return result

    # -- simulated view ----------------------------------------------------------------

    def sim_addr(self, app_addr: int) -> int:
        """Simulated virtual address of the metadata for ``app_addr``."""
        return META_BASE + app_addr * self.bits_per_byte // 8

    def sim_accesses(self, app_addr: int, size: int,
                     is_write: bool) -> List[Tuple[int, int, bool]]:
        """The timed metadata accesses a handler performs for an access.

        Returns ``(sim_addr, sim_size, is_write)`` tuples sized 1-8 bytes.
        """
        # sim_addr of the first and last byte, inlined.
        bits = self.bits_per_byte
        first = META_BASE + app_addr * bits // 8
        last = META_BASE + (app_addr + size - 1) * bits // 8
        remaining = last - first + 1
        if remaining in _CHUNK_SIZES and not first % remaining:
            return [(first, remaining, is_write)]  # one aligned chunk
        accesses = []
        addr = first
        while remaining > 0:
            # Largest power-of-two chunk that keeps the access aligned.
            chunk = 8
            while chunk > remaining or addr % chunk:
                chunk //= 2
            accesses.append((addr, chunk, is_write))
            addr += chunk
            remaining -= chunk
        return accesses

    @property
    def resident_chunks(self) -> int:
        return len(self._chunks)
