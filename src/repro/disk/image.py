"""The platter state: every sector of one removable pack.

``DiskImage`` is pure state -- no timing, no policy.  The drive (drive.py)
imposes the command discipline and charges time; the image is "what is on
the oxide".  Keeping it separate lets crash tests snapshot a pack, lets the
fault injector corrupt it behind the drive's back, and lets two independent
software stacks mount the same pack (the openness property of section 1:
the on-disk representation is the interface).

``generation`` counts changes: every route that can alter a sector bumps
it -- the drive's part-writes, the accessors that hand out a mutable
:class:`Sector` (:meth:`DiskImage.sector`, :meth:`DiskImage.sectors`,
:meth:`DiskImage.set_sector`) and :meth:`DiskImage.restore`.  The
read-only views (:meth:`DiskImage.peek`, :meth:`DiskImage.scan`) leave
it alone, so a reader that saw generation *g* and sees *g* again knows
the platter is byte-for-byte what it saw.  The fault-tracking sets are not
sector contents and do not move it.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional

from ..errors import AddressOutOfRange
from ..words import ones_words, words_to_bytes
from .geometry import DiskShape, diablo31
from .sector import Label, Sector, VALUE_WORDS


class DiskImage:
    """All sectors of one pack, indexed by linear disk address."""

    def __init__(self, shape: Optional[DiskShape] = None, pack_id: int = 1) -> None:
        self.shape = shape if shape is not None else diablo31()
        self.pack_id = pack_id
        # Sectors are materialized on first touch: ``None`` stands for a
        # factory-fresh sector (free label, all-ones value), which is what
        # every address holds until something writes or inspects it.
        # Building, snapshotting, and restoring a pack therefore cost
        # nothing for the (typically large) untouched remainder.  The
        # fresh header captures the pack id at construction time.
        self._fresh_pack_id = pack_id
        self._sectors: List[Optional[Sector]] = [None] * self.shape.total_sectors()
        #: Addresses the fault injector has marked as unreadable media.
        self.bad_media: set = set()
        #: ``(address, part)`` pairs whose checksum a torn write ruined;
        #: reads fail until the part is rewritten (real disks detect an
        #: interrupted write this way -- the CRC never got laid down).
        self.checksum_bad: set = set()
        #: Bumped by every route that can change a sector (module docstring).
        self.generation = 0

    # -- access ---------------------------------------------------------------

    def _materialize(self, address: int) -> Sector:
        """The sector at *address*, created fresh on first touch."""
        sector = self._sectors[address]
        if sector is None:
            sector = self._sectors[address] = Sector.fresh(self._fresh_pack_id, address)
        return sector

    def sector(self, address: int) -> Sector:
        """The sector at *address* (validated against the shape), handed
        out for mutation: bumps ``generation``."""
        self.shape.check_address(address)
        self.generation += 1
        return self._materialize(address)

    def set_sector(self, address: int, sector: Sector) -> None:
        self.shape.check_address(address)
        self.generation += 1
        self._sectors[address] = sector

    def peek(self, address: int) -> Sector:
        """The sector at *address* for reading only: the caller must not
        mutate it, and ``generation`` does not move."""
        self.shape.check_address(address)
        return self._materialize(address)

    def __len__(self) -> int:
        return len(self._sectors)

    def sectors(self) -> Iterator[Sector]:
        """All sectors in physical order, handed out for mutation: each
        one yielded bumps ``generation``."""
        for address in range(len(self._sectors)):
            self.generation += 1
            yield self._materialize(address)

    def scan(self) -> Iterator[Sector]:
        """All sectors in physical order, for reading only (see :meth:`peek`).

        Materializes the untouched ones first (as iterating :meth:`sectors`
        would), then walks the list itself: a full-pack check runs this on
        every changed slice boundary, so no per-sector Python call."""
        sectors = self._sectors
        if None in sectors:
            for address, sector in enumerate(sectors):
                if sector is None:
                    self._materialize(address)
        return iter(sectors)

    # -- whole-pack operations --------------------------------------------------

    def snapshot(self) -> "DiskImage":
        """A deep copy of the pack, for crash/restore experiments."""
        clone = DiskImage.__new__(DiskImage)
        clone.shape = self.shape
        clone.pack_id = self.pack_id
        clone._fresh_pack_id = self._fresh_pack_id
        clone._sectors = [None if s is None else s.copy() for s in self._sectors]
        clone.bad_media = set(self.bad_media)
        clone.checksum_bad = set(self.checksum_bad)
        clone.generation = 0  # a new pack: its changes are its own
        return clone

    def digest(self) -> str:
        """A canonical SHA-256 over the full platter state.

        Covers every sector's header, label, and value words (in physical
        order, big-endian packed) plus the fault-tracking sets, so two
        packs digest equal iff they are byte-identical *and* agree on
        which parts are unreadable.  The golden-image suite
        (``tests/equivalence/``) pins workload digests with this.
        """
        h = hashlib.sha256()
        # An unmaterialized sector digests as its factory-fresh words;
        # only the header's address word varies, so the constant parts
        # are packed once.
        fresh_tail = (words_to_bytes(Label.free().pack())
                      + words_to_bytes(ones_words(VALUE_WORDS)))
        pack_id = self._fresh_pack_id
        for address, sector in enumerate(self._sectors):
            if sector is None:
                h.update(words_to_bytes([pack_id, address]))
                h.update(fresh_tail)
            else:
                h.update(words_to_bytes(sector.header_words()))
                h.update(words_to_bytes(sector.label_words()))
                h.update(words_to_bytes(sector.value))
        h.update(repr(sorted(self.bad_media)).encode())
        h.update(repr(sorted(self.checksum_bad)).encode())
        return h.hexdigest()

    def restore(self, snapshot: "DiskImage") -> None:
        """Overwrite this pack's state from *snapshot* (same shape required)."""
        if snapshot.shape != self.shape:
            raise ValueError("snapshot is from a different disk shape")
        self.pack_id = snapshot.pack_id
        self._fresh_pack_id = snapshot._fresh_pack_id
        self._sectors = [None if s is None else s.copy() for s in snapshot._sectors]
        self.bad_media = set(snapshot.bad_media)
        self.checksum_bad = set(snapshot.checksum_bad)
        self.generation += 1

    # -- statistics (used by tests and benchmarks) -------------------------------

    def count_free(self) -> int:
        return sum(1 for s in self._sectors if s is None or s.label.is_free)

    def count_in_use(self) -> int:
        return sum(1 for s in self._sectors if s is not None and s.label.in_use)

    def count_bad(self) -> int:
        return sum(1 for s in self._sectors if s is not None and s.label.is_bad)

    def labels_by_serial(self) -> Dict[int, List[Label]]:
        """In-use labels grouped by file serial (a scavenger-style sweep,
        but without timing; for test assertions only)."""
        out: Dict[int, List[Label]] = {}
        for sector in self._sectors:
            if sector is not None and sector.label.in_use:
                out.setdefault(sector.label.serial, []).append(sector.label)
        return out
