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

* Range operations (``get_access``/``set_access``/``set_range``/
  ``all_equal``/``any_equal``/``snapshot_range``) work on whole packed
  metadata *bytes* — partial head/tail slots are handled bit-wise, the
  aligned middle is a single C-level ``bytearray`` slice operation —
  instead of one table walk per application byte.
* A one-entry last-chunk cache short-circuits the first-level lookup
  for sequential access patterns.
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

#: Application bytes covered by one second-level chunk.
CHUNK_APP_BYTES = 64 * 1024

_VALID_BITS = (1, 2, 4, 8)

#: C-level scanner for nonzero metadata bytes (fingerprinting and
#: :meth:`MetadataMap.same_state`).
_NONZERO_RE = re.compile(rb"[^\x00]")


class MetadataMap:
    """bits-per-app-byte shadow state with lazy two-level allocation."""

    __slots__ = (
        "bits_per_byte",
        "base_addr",
        "_mask",
        "_per_byte",
        "_chunks",
        "_chunk_meta_bytes",
        "_last_chunk_no",
        "_last_chunk",
        "chunk_allocations",
        "peak_chunks",
    )

    def __init__(self, bits_per_byte: int, base_addr: int = META_BASE):
        if bits_per_byte not in _VALID_BITS:
            raise ConfigurationError(
                f"bits_per_byte must be one of {_VALID_BITS}, got {bits_per_byte}"
            )
        self.bits_per_byte = bits_per_byte
        self.base_addr = base_addr
        self._mask = (1 << bits_per_byte) - 1
        self._per_byte = 8 // bits_per_byte  # app bytes per metadata byte
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

    def _locate(self, app_addr: int, create: bool):
        chunk_no, offset = divmod(app_addr, CHUNK_APP_BYTES)
        chunk = self._find_chunk(chunk_no)
        if chunk is None and create:
            chunk = self._alloc_chunk(chunk_no)
        byte_index, slot = divmod(offset, self._per_byte)
        return chunk, byte_index, slot * self.bits_per_byte

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

    def _fill_byte(self, value: int) -> int:
        """``value`` replicated across every slot of one metadata byte."""
        fill = 0
        bits = self.bits_per_byte
        for shift in range(0, 8, bits):
            fill |= value << shift
        return fill

    def _write_span(self, chunk: bytearray, offset: int, span: int,
                    value: int) -> None:
        """Set every app byte in [offset, offset+span) of one chunk."""
        per = self._per_byte
        if per == 1:
            chunk[offset:offset + span] = bytes((value,)) * span
            return
        bits = self.bits_per_byte
        mask = self._mask
        b0, s0 = divmod(offset, per)
        b1, s1 = divmod(offset + span, per)
        if b0 == b1:
            # Entirely inside one metadata byte.
            current = chunk[b0]
            for slot in range(s0, s1):
                shift = slot * bits
                current = (current & ~(mask << shift)) | (value << shift)
            chunk[b0] = current
            return
        if s0:
            current = chunk[b0]
            for slot in range(s0, per):
                shift = slot * bits
                current = (current & ~(mask << shift)) | (value << shift)
            chunk[b0] = current
            b0 += 1
        if b1 > b0:
            chunk[b0:b1] = bytes((self._fill_byte(value),)) * (b1 - b0)
        if s1:
            current = chunk[b1]
            for slot in range(s1):
                shift = slot * bits
                current = (current & ~(mask << shift)) | (value << shift)
            chunk[b1] = current

    def _or_span(self, chunk: bytearray, offset: int, span: int) -> int:
        """OR of the metadata bits of [offset, offset+span) in one chunk."""
        per = self._per_byte
        bits = self.bits_per_byte
        b0, s0 = divmod(offset, per)
        b1, s1 = divmod(offset + span, per)
        if b0 == b1:
            ored = (chunk[b0] >> (s0 * bits)) & ((1 << ((s1 - s0) * bits)) - 1)
        else:
            ored = chunk[b0] >> (s0 * bits) if s0 else 0
            start = b0 + 1 if s0 else b0
            if b1 > start:
                # Distinct byte values in the aligned middle (C-level
                # set construction; at most 256 iterations below).
                for byte in set(chunk[start:b1]):
                    ored |= byte
            if s1:
                ored |= chunk[b1] & ((1 << (s1 * bits)) - 1)
        # Fold the slot fields of the accumulated byte into one value.
        shift = bits
        while shift < 8:
            ored |= ored >> shift
            shift <<= 1
        return ored & self._mask

    def get_access(self, app_addr: int, size: int) -> int:
        """OR of the metadata bits across an access (taint semantics)."""
        result = 0
        for chunk_no, offset, span in self._spans(app_addr, size):
            chunk = self._find_chunk(chunk_no)
            if chunk is not None:
                result |= self._or_span(chunk, offset, span)
                if result == self._mask:
                    break  # saturated: no further byte can add bits
        return result

    def set_access(self, app_addr: int, size: int, value: int) -> None:
        self.set_range(app_addr, size, value)

    def set_range(self, app_addr: int, length: int, value: int) -> None:
        """Set every app byte of the range; zero writes never allocate."""
        value &= self._mask
        for chunk_no, offset, span in self._spans(app_addr, length):
            chunk = self._find_chunk(chunk_no)
            if chunk is None:
                if not value:
                    continue  # zeroing untouched memory: no-op
                chunk = self._alloc_chunk(chunk_no)
            self._write_span(chunk, offset, span, value)

    def _span_all_equal(self, chunk: bytearray, offset: int, span: int,
                        value: int) -> bool:
        per = self._per_byte
        bits = self.bits_per_byte
        mask = self._mask
        b0, s0 = divmod(offset, per)
        b1, s1 = divmod(offset + span, per)
        if b0 == b1:
            byte = chunk[b0]
            return all((byte >> (slot * bits)) & mask == value
                       for slot in range(s0, s1))
        if s0:
            byte = chunk[b0]
            if not all((byte >> (slot * bits)) & mask == value
                       for slot in range(s0, per)):
                return False
            b0 += 1
        if b1 > b0:
            fill = self._fill_byte(value)
            if chunk[b0:b1] != bytes((fill,)) * (b1 - b0):
                return False
        if s1:
            byte = chunk[b1]
            return all((byte >> (slot * bits)) & mask == value
                       for slot in range(s1))
        return True

    def all_equal(self, app_addr: int, length: int, value: int) -> bool:
        """True iff every byte of the range carries exactly ``value``."""
        value &= self._mask
        for chunk_no, offset, span in self._spans(app_addr, length):
            chunk = self._find_chunk(chunk_no)
            if chunk is None:
                if value:
                    return False  # untouched memory is all-zero
                continue
            if not self._span_all_equal(chunk, offset, span, value):
                return False
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
        return self.base_addr + app_addr * self.bits_per_byte // 8

    def sim_accesses(self, app_addr: int, size: int,
                     is_write: bool) -> List[Tuple[int, int, bool]]:
        """The timed metadata accesses a handler performs for an access.

        Returns ``(sim_addr, sim_size, is_write)`` tuples sized 1-8 bytes.
        """
        first = self.sim_addr(app_addr)
        last = self.sim_addr(app_addr + size - 1)
        span = last - first + 1
        accesses = []
        addr = first
        remaining = span
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
