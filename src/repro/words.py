"""16-bit word arithmetic and packing helpers.

The Alto is a 16-bit word machine; every on-disk and in-memory structure in
this reproduction is ultimately a sequence of 16-bit words, exactly as in the
paper ("each object can be represented by a 16-bit machine word", section 2).
This module centralizes the word discipline: masking, double-word packing,
byte packing (two bytes per word, big-endian within the word as on the Alto),
and BCPL-style string coding.

The packing and checksum hot loops run as *bulk operations*
(``array('H')``/``int.from_bytes``-class primitives; :func:`random_bytes`
also uses numpy via :mod:`repro.fastpath` when it is installed).  The
original word-at-a-time forms survive in :mod:`repro.reference`, and
``tests/equivalence/`` asserts fast == reference on arbitrary inputs; see
ARCHITECTURE.md, "Fast paths and the differential harness".
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, List, Sequence

from . import fastpath

#: Host byte order: the wire/disk order is big-endian within each word, so
#: a little-endian host byteswaps the C array in one C call.
_LITTLE_ENDIAN = sys.byteorder == "little"

WORD_BITS = 16
WORD_MASK = 0xFFFF
WORD_MODULUS = 0x10000
BYTES_PER_WORD = 2
MAX_WORD = WORD_MASK

#: Number of data words in a disk page (section 3.1: "a value -- 256 data
#: words") and the corresponding byte count ("pages ... have L=512").
PAGE_DATA_WORDS = 256
PAGE_DATA_BYTES = PAGE_DATA_WORDS * BYTES_PER_WORD


def word(value: int) -> int:
    """Truncate *value* to an unsigned 16-bit word (modular arithmetic)."""
    return value & WORD_MASK


def is_word(value: object) -> bool:
    """Return True when *value* is an int in the 16-bit unsigned range."""
    return isinstance(value, int) and 0 <= value <= WORD_MASK


def check_word(value: int, what: str = "value") -> int:
    """Validate that *value* fits in a word; return it unchanged.

    Raises ValueError otherwise.  Used at package boundaries so that errors
    surface where they are introduced rather than as corrupt disk data.
    """
    if not isinstance(value, int):
        raise ValueError(f"{what} must be an int, got {type(value).__name__}")
    if not 0 <= value <= WORD_MASK:
        raise ValueError(f"{what} must fit in 16 bits, got {value}")
    return value


def to_double_word(value: int) -> tuple:
    """Split a 32-bit value into (high word, low word).

    File serial numbers are "two words" (section 3.1); this is the packing
    used for them and for any other 32-bit on-disk quantity.
    """
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"double-word value out of range: {value}")
    return (value >> WORD_BITS) & WORD_MASK, value & WORD_MASK


def from_double_word(high: int, low: int) -> int:
    """Combine (high word, low word) into a 32-bit value."""
    if type(high) is int and type(low) is int and 0 <= high <= WORD_MASK and 0 <= low <= WORD_MASK:
        return (high << WORD_BITS) | low
    return (check_word(high, "high") << WORD_BITS) | check_word(low, "low")


def bytes_to_words(data: bytes, pad: int = 0) -> List[int]:
    """Pack bytes into words, two per word, high byte first.

    An odd trailing byte is padded with *pad* (default 0) in the low byte,
    matching the Alto convention that the byte count -- not the word count --
    records the true length.

    Bulk implementation; reference twin:
    :func:`repro.reference.bytes_to_words_reference`.
    """
    n = len(data)
    even = n & ~1
    try:
        packed = array("H")
        packed.frombytes(data if not n & 1 else memoryview(data)[:even])
        if _LITTLE_ENDIAN:
            packed.byteswap()
        words = packed.tolist()
        if n & 1:
            words.append((data[-1] << 8) | (pad & 0xFF))
        return words
    except (TypeError, BufferError):
        # Exotic input (a plain int sequence, an unbuffered object):
        # degrade to the byte-at-a-time reference loop, which accepts
        # anything indexable.
        from .reference import bytes_to_words_reference

        return bytes_to_words_reference(data, pad)


def words_to_bytes(words: Sequence[int], nbytes: int = -1) -> bytes:
    """Unpack words into bytes, high byte first.

    When *nbytes* is given, the result is truncated to that many bytes (used
    to honour a page's byte length L, which may be odd).  ``nbytes`` is
    validated up front: it must be ``-1`` (no truncation) or at most the
    ``2 * len(words)`` bytes actually available.

    Bulk implementation; reference twin:
    :func:`repro.reference.words_to_bytes_reference`.
    """
    if nbytes != -1 and nbytes < 0:
        raise ValueError(f"nbytes must be -1 (no truncation) or >= 0, got {nbytes}")
    if nbytes > 2 * len(words):
        raise ValueError(f"asked for {nbytes} bytes from {2 * len(words)} available")
    try:
        packed = array("H", words)
        if _LITTLE_ENDIAN:
            packed.byteswap()
        out = packed.tobytes()
        return out if nbytes == -1 else out[:nbytes]
    except (TypeError, OverflowError):
        # Out-of-range or non-int words: the reference loop reproduces the
        # historical masking semantics ((w >> 8) & 0xFF, w & 0xFF) exactly.
        from .reference import words_to_bytes_reference

        return words_to_bytes_reference(words, nbytes)


def string_to_words(text: str, max_bytes: int = 255) -> List[int]:
    """Encode a string as a BCPL string: length byte, then character bytes.

    BCPL strings carry their length in the first byte, so they are limited to
    255 characters.  Leader names and directory entry names use this coding.
    """
    data = text.encode("ascii")
    if len(data) > max_bytes:
        raise ValueError(f"string too long for BCPL coding: {len(data)} > {max_bytes}")
    return bytes_to_words(bytes([len(data)]) + data)


def words_to_string(words: Sequence[int]) -> str:
    """Decode a BCPL string (length byte + characters) from words."""
    data = words_to_bytes(words)
    if not data:
        return ""
    length = data[0]
    if length > len(data) - 1:
        raise ValueError(f"corrupt BCPL string: length byte {length}, only {len(data) - 1} bytes follow")
    return data[1 : 1 + length].decode("ascii")


def string_word_count(text: str) -> int:
    """Number of words the BCPL coding of *text* occupies."""
    return (1 + len(text.encode("ascii")) + 1) // 2


def zero_words(count: int) -> List[int]:
    """A fresh list of *count* zero words."""
    return [0] * count


def ones_words(count: int) -> List[int]:
    """A fresh list of *count* all-ones words.

    Freeing a page writes "ones ... into label and value" (section 3.3); this
    is the pattern used.
    """
    return [WORD_MASK] * count


def random_bytes(rng, count: int) -> bytes:
    """*count* bytes drawn exactly as ``bytes(rng.randrange(256) for ...)``.

    The benchmark and workload generators share one :class:`random.Random`
    between content bytes and structural draws (file sizes, fault picks),
    so the content generator must consume the underlying bit stream
    draw-for-draw identically or every later decision shifts.

    ``randrange(256)`` is ``getrandbits(9)`` with rejection of values >=
    256 -- i.e. one 32-bit Mersenne Twister output per draw, accepted when
    its top bit is clear, yielding bits 23..30.  ``getrandbits(32 * n)``
    consumes exactly *n* such outputs (least significant first), so a
    block of ``need`` words can be drawn in one call and scanned: every
    block yields at most ``need`` bytes, which the sequential process
    would also have consumed the whole block to produce.  Same values,
    same stream position, no per-byte Python call.

    Reference twin: :func:`repro.reference.random_bytes_reference`.
    """
    if count < 128:
        getrandbits = rng.getrandbits
        out = bytearray(count)
        for i in range(count):
            r = getrandbits(9)
            while r > 255:
                r = getrandbits(9)
            out[i] = r
        return bytes(out)
    np = fastpath.numpy()
    out = bytearray()
    need = count
    while need > 0:
        block = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        if np is not None:
            arr = np.frombuffer(block, dtype="<u4")
            accepted = ((arr >> 23) & 0xFF).astype(np.uint8)[(arr >> 31) == 0]
            out += accepted.tobytes()
            need = count - len(out)
        else:
            # Word i is block[4i:4i+4] little-endian: accept when the top
            # bit (byte 3, bit 7) is clear; the value is bits 23..30.
            append = out.append
            for i in range(3, len(block), 4):
                b3 = block[i]
                if b3 < 128:
                    append(((b3 & 0x7F) << 1) | (block[i - 1] >> 7))
            need = count - len(out)
    return bytes(out)


def checksum(words: Iterable[int]) -> int:
    """One's-complement-style 16-bit checksum over a word sequence.

    Used by the world-swap state files to detect torn writes; the Alto disk
    hardware kept a checksum per record, which we fold into the same role.

    Because each step only adds then masks, the running mask commutes with
    the sum: ``(((a + b) & M) + c) & M == (a + b + c) & M``.  The bulk form
    therefore sums once in C and masks at the end -- bit-identical to the
    word-at-a-time reference (:func:`repro.reference.checksum_reference`),
    which the equivalence suite asserts on arbitrary word sequences.
    """
    return (sum(words) & WORD_MASK) ^ WORD_MASK
