"""The simulated drive: per-part sector commands with hardware semantics.

Section 3.3: "A single disk operation can perform read, check or write
actions independently on each of these parts [header, label, value], with
the restriction that once a write is begun, it must continue through the
rest of the sector.  A check action compares data on the disk with
corresponding data taken from memory, word by word, and aborts the entire
operation if they don't match.  If a memory word is 0, however, it is
replaced by the corresponding disk word, so that a check action is a simple
kind of pattern match."

The drive is policy-free: it knows nothing about files, allocation, or the
label-write discipline.  Those live in ``repro.fs``.  What the drive does
enforce is the hardware contract above, plus the timing model of
``timing.ArmTimer``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..clock import SimClock
from ..obs import CounterAttr, MetricsRegistry
from ..errors import (
    BadSectorError,
    CheckError,
    LabelCheckError,
    ReadRetriesExhausted,
    SectorChecksumError,
    TransientReadError,
)
from .image import DiskImage
from .sector import HEADER_WORDS, LABEL_WORDS, VALUE_WORDS, Header, Label, Sector
from .timing import ROTATION, ArmTimer


class Action(enum.Enum):
    """What to do with one part of a sector during a command."""

    NONE = "none"
    READ = "read"
    CHECK = "check"
    WRITE = "write"


_PART_SIZES = {"header": HEADER_WORDS, "label": LABEL_WORDS, "value": VALUE_WORDS}


def merge_check(expected, disk_words):
    """The check action's compare-and-merge, as a bulk operation.

    Same contract as :func:`repro.reference.merge_check_reference` (the
    word-at-a-time twin the equivalence suite pins this against): returns
    ``(effective, None)`` on success, ``(None, (index, want, have))`` at
    the first non-wildcard mismatch.

    The dominant case -- a label check against exactly what the platter
    holds -- is one C-level list comparison.  Wildcards and mismatches
    drop to the reference loop, whose cost only matters on the failure
    path.
    """
    if type(expected) is not list:
        expected = list(expected)
    if expected == disk_words:
        return list(disk_words), None
    if 0 in expected:
        # Wildcard merge in one comprehension; on success every non-zero
        # word matched, so the merge equals the disk prefix.  A mismatch
        # (rare: it is the failure path) reruns the reference loop to find
        # the first offending index.
        merged = [have if want == 0 else want
                  for want, have in zip(expected, disk_words)]
        if merged == (disk_words if len(merged) == len(disk_words)
                      else list(disk_words[: len(merged)])):
            return merged, None
        from ..reference import merge_check_reference

        return merge_check_reference(expected, disk_words)
    for i, (want, have) in enumerate(zip(expected, disk_words)):
        if want != have:
            return None, (i, want, have)
    # Only reachable when the buffers differ in length: mirror the
    # reference's zip semantics (effective covers the common prefix).
    return list(disk_words[: len(expected)]), None

def _parts_summary(parts) -> str:
    """Compact ``header:read,label:check`` form for span annotations."""
    return ",".join(f"{part}:{action.value}" for part, action, _ in parts)


#: Default bounded retry budget for transient read errors: a marginal read
#: is retried on later revolutions with linearly growing backoff; past the
#: budget the typed :class:`~repro.errors.ReadRetriesExhausted` surfaces.
MAX_READ_RETRIES = 4


@dataclass(slots=True)
class PartCommand:
    """One part's action and (for CHECK/WRITE) its memory buffer."""

    action: Action = Action.NONE
    data: Optional[List[int]] = None

    def __post_init__(self) -> None:
        if self.action in (Action.CHECK, Action.WRITE) and self.data is None:
            raise ValueError(f"{self.action.value} requires a data buffer")


def _flatten_parts(header: Optional[PartCommand], label: Optional[PartCommand],
                   value: Optional[PartCommand]) -> list:
    """A per-part command as ``(part, action, data)`` triples.

    Enforces "once a write is begun, it must continue through the rest of
    the sector" and drops the parts with no action, leaving the triples in
    head order -- the shape :meth:`DiskDrive._command` executes.
    """
    parts = []
    writing = False
    for part, command in (("header", header), ("label", label), ("value", value)):
        action = Action.NONE if command is None else command.action
        if writing and action is not Action.WRITE:
            raise ValueError(
                f"write begun before {part} must continue: {part} may not be {action.value}"
            )
        if action is Action.WRITE:
            writing = True
        if action is not Action.NONE:
            parts.append((part, action, command.data))
    return parts


#: Static (part, action, data) shapes for the read-only convenience
#: commands (READ carries no buffer, so these are fully constant).
_READ_ALL_PARTS = (
    ("header", Action.READ, None),
    ("label", Action.READ, None),
    ("value", Action.READ, None),
)
_READ_LABEL_PARTS = (("label", Action.READ, None),)
_READ_LABEL_VALUE_PARTS = (
    ("label", Action.READ, None),
    ("value", Action.READ, None),
)


@dataclass(slots=True)
class TransferResult:
    """Buffers produced by a command: disk contents for each READ or CHECK
    part (a CHECK buffer has its 0-wildcards replaced by disk words)."""

    header: Optional[List[int]] = None
    label: Optional[List[int]] = None
    value: Optional[List[int]] = None

    def label_object(self) -> Label:
        if self.label is None:
            raise ValueError("label was not read by this transfer")
        return Label.unpack(self.label)

    def header_object(self) -> Header:
        if self.header is None:
            raise ValueError("header was not read by this transfer")
        return Header.unpack(self.header)


class DriveStats:
    """Operation counts kept by the drive (benchmarks decompose costs here).

    A thin view over ``disk.drive.*`` counters in a per-drive
    :class:`~repro.obs.MetricsRegistry`; increments roll up into the
    clock-level registry at ``clock.obs.registry``, so drives sharing a
    clock sum there while each drive's own numbers stay separate.
    """

    _FIELDS = ("commands", "label_checks", "label_check_failures",
               "label_writes", "value_reads", "value_writes",
               "transient_read_errors", "read_retries")

    commands = CounterAttr("disk.drive.commands")
    label_checks = CounterAttr("disk.drive.label_checks")
    label_check_failures = CounterAttr("disk.drive.label_check_failures")
    label_writes = CounterAttr("disk.drive.label_writes")
    value_reads = CounterAttr("disk.drive.value_reads")
    value_writes = CounterAttr("disk.drive.value_writes")
    transient_read_errors = CounterAttr("disk.drive.transient_read_errors")
    read_retries = CounterAttr("disk.drive.read_retries")

    def __init__(self, parent: Optional[MetricsRegistry] = None) -> None:
        self.registry = MetricsRegistry(parent=parent)
        for field in self._FIELDS:
            self.registry.counter(type(self).__dict__[field].metric)

    def snapshot(self) -> dict:
        return {field: getattr(self, field) for field in self._FIELDS}


class DiskDrive:
    """One spindle holding one pack, exposing the per-part command interface."""

    def __init__(
        self,
        image: DiskImage,
        clock: Optional[SimClock] = None,
        fault_injector=None,
        max_read_retries: int = MAX_READ_RETRIES,
    ) -> None:
        self.image = image
        self.clock = clock if clock is not None else SimClock()
        self.timer = ArmTimer(image.shape, self.clock)
        self.stats = DriveStats(parent=self.clock.obs.registry)
        self.fault_injector = fault_injector
        self.max_read_retries = max_read_retries
        #: Optional durability observer: called as ``tap(address, part, data)``
        #: after every part-write lands on the platter (never for torn
        #: writes -- the injector raises before the tap).  This is the
        #: replication journal's capture point (:mod:`repro.server.replica`).
        self.journal_tap = None
        # True when this instance uses the base per-part implementations,
        # letting _process_parts read sector storage without the method
        # dispatch.  Any override (ReferenceDrive's word-at-a-time loops)
        # turns the inlining off and everything routes through the methods.
        cls = type(self)
        self._plain_parts = (
            cls._get_part is DiskDrive._get_part
            and cls._check_part is DiskDrive._check_part
            and cls._write_part is DiskDrive._write_part
        )
        # Direct references to the stats counters: the per-command hot path
        # increments these a few times per sector and must not re-run the
        # descriptor-protocol read-modify-write of ``stats.x += 1``.
        registry = self.stats.registry
        self._c_commands = registry.counter("disk.drive.commands")
        self._c_label_checks = registry.counter("disk.drive.label_checks")
        self._c_label_check_failures = registry.counter("disk.drive.label_check_failures")
        self._c_label_writes = registry.counter("disk.drive.label_writes")
        self._c_value_reads = registry.counter("disk.drive.value_reads")
        self._c_value_writes = registry.counter("disk.drive.value_writes")
        self._c_transient_read_errors = registry.counter("disk.drive.transient_read_errors")
        self._c_read_retries = registry.counter("disk.drive.read_retries")

    @property
    def shape(self):
        return self.image.shape

    # ------------------------------------------------------------------------
    # The fundamental command
    # ------------------------------------------------------------------------

    def transfer(
        self,
        address: int,
        header: PartCommand = None,
        label: PartCommand = None,
        value: PartCommand = None,
    ) -> TransferResult:
        """Execute one sector command, given as one :class:`PartCommand` per
        part (omitted parts take no action).

        This is the public per-part interface (the scavenger and compactor
        use it); the convenience commands below are fixed shapes of it and
        reach the same :meth:`_command` without the packaging.

        Positions the arm and head (charging seek + rotation), then processes
        header, label, and value in passing order, charging one sector time.
        A failed CHECK aborts the remaining parts -- in particular a write
        scheduled *after* the check never happens, "so that a subsequent
        write operation can be aborted before anything is written, without
        taking an extra revolution" (section 3.3).

        Transient read errors (dust, marginal signal -- injected through the
        fault plan) are absorbed here: the pass is retried with linearly
        growing rotational backoff, up to ``max_read_retries`` times.  The
        write-continuation rule means writes are always a suffix of the
        parts, so an aborted pass has written nothing and the retry is safe.
        Past the budget, :class:`~repro.errors.ReadRetriesExhausted` surfaces
        to the caller with the last transient error chained.
        """
        return DiskDrive._command(self, address,
                                  _flatten_parts(header, label, value))

    def _command(self, address: int, parts) -> TransferResult:
        """Every sector command's one entry: *parts* are ``(part, action,
        data)`` triples in head order, write continuation already holding
        (the convenience commands' static shapes, or :meth:`transfer`'s
        flattened parts).  Validates the address, then runs the command --
        inside a ``disk.transfer`` span when tracing."""
        self.shape.check_address(address)
        obs = self.clock.obs
        if obs.tracing:
            with obs.span("disk.transfer", "disk", address=address,
                          cylinder=self.shape.decompose(address)[0],
                          parts=_parts_summary(parts)):
                return self._execute(address, parts)
        return self._execute(address, parts)

    def _execute(self, address: int, parts) -> TransferResult:
        """The command body, after validation (span-wrapped when tracing)."""
        self._c_commands.inc(1)
        self.timer.position_and_transfer(address)

        if address in self.image.bad_media:
            raise BadSectorError(f"unrecoverable media error at address {address}")
        if self.fault_injector is not None:
            self.fault_injector.before_parts(self, address, parts)

        attempt = 0
        while True:
            try:
                return self._process_parts(address, parts)
            except TransientReadError as exc:
                attempt += 1
                self._c_transient_read_errors.inc(1)
                if attempt > self.max_read_retries:
                    raise ReadRetriesExhausted(address, attempt) from exc
                self._c_read_retries.inc(1)
                self._retry_backoff(attempt)

    def _process_parts(self, address: int, parts) -> TransferResult:
        """One pass over the sector: parts in head order."""
        injector = self.fault_injector
        hook = getattr(injector, "before_part", None) if injector is not None else None
        # _command() validated the address before any time was charged;
        # index the platter directly rather than re-validating per pass.
        sector = self.image._sectors[address]
        if sector is None:
            sector = self.image._materialize(address)
        checksum_bad = self.image.checksum_bad
        plain = self._plain_parts
        result = TransferResult()
        for part, action, data in parts:
            if hook is not None:
                hook(self, address, part, action.value)
            if plain:
                # The base part implementations, inlined (same storage
                # reads _get_part performs; overrides disable `plain`).
                if part == "value":
                    disk_words = sector.value
                elif part == "label":
                    disk_words = sector.label_words()
                else:
                    disk_words = sector.header_words()
            else:
                disk_words = self._get_part(sector, part)
            if action is Action.WRITE:
                self._write_part(sector, address, part, data)
                if checksum_bad:
                    checksum_bad.discard((address, part))
                if part == "label":
                    self._c_label_writes.inc(1)
                elif part == "value":
                    self._c_value_writes.inc(1)
            else:
                # A part a torn write left half-written fails its checksum on
                # every read until something writes it afresh.
                if checksum_bad and (address, part) in checksum_bad:
                    raise SectorChecksumError(address, part)
                if action is Action.READ:
                    buffer = list(disk_words)
                else:
                    buffer = self._check_part(address, part, data, disk_words)
                if part == "value":
                    result.value = buffer
                    self._c_value_reads.inc(1)
                elif part == "label":
                    result.label = buffer
                else:
                    result.header = buffer
        return result

    def _retry_backoff(self, attempt: int) -> None:
        """Wait out *attempt* extra revolutions, then re-read the sector."""
        rotation_us = round(self.shape.rotation_ms * 1000)
        self.clock.advance_us(attempt * rotation_us, ROTATION)
        self.timer.transfer_sector()

    # -- helpers ------------------------------------------------------------

    def _get_part(self, sector: Sector, part: str) -> List[int]:
        """The part's packed words, straight from the sector's storage.

        The returned list is the sector's own (callers copy before
        mutating; READ and CHECK results are built as fresh lists).
        Reference twin: ``repro.reference.make_reference_drive``, which
        re-packs through the object views on every access.
        """
        if part == "header":
            return sector.header_words()
        if part == "label":
            return sector.label_words()
        return sector.value

    def _check_part(
        self, address: int, part: str, expected: Sequence[int], disk_words: Sequence[int]
    ) -> List[int]:
        """Pattern match via :func:`merge_check`; 0 in memory is a wildcard."""
        if len(expected) != _PART_SIZES[part]:
            raise ValueError(f"{part} check buffer must be {_PART_SIZES[part]} words")
        effective, mismatch = merge_check(expected, disk_words)
        if mismatch is not None:
            i, want, have = mismatch
            if part == "label":
                self._c_label_checks.inc(1)
                self._c_label_check_failures.inc(1)
                raise LabelCheckError(i, want, have)
            raise CheckError(part, i, want, have)
        if part == "label":
            self._c_label_checks.inc(1)
        return effective

    def _write_part(self, sector: Sector, address: int, part: str, data: Sequence[int]) -> None:
        if len(data) != _PART_SIZES[part]:
            raise ValueError(f"{part} write buffer must be {_PART_SIZES[part]} words")
        self.image.generation += 1
        data = list(data)
        if self.fault_injector is not None:
            # The injector may hand back a list it also keeps; re-copy so
            # the sector never aliases anything outside the platter.
            data = list(self.fault_injector.filter_write(self, address, part, data))
        if part == "header":
            sector.set_header_words(data)
        elif part == "label":
            sector.set_label_words(data)
        else:
            sector.value = data
        if self.journal_tap is not None:
            self.journal_tap(address, part, data)

    # ------------------------------------------------------------------------
    # Convenience commands (each is exactly one hardware command)
    # ------------------------------------------------------------------------
    #
    # Each hands a statically valid shape (write-continuation holds by
    # construction) to _command, the same entry transfer() reaches after
    # flattening its PartCommands; tests/equivalence/test_command_route.py
    # pins every command to its transfer() form.

    def read_sector(self, address: int) -> TransferResult:
        """Read header, label, and value in one pass."""
        return self._command(address, _READ_ALL_PARTS)

    def read_label(self, address: int) -> Label:
        """Read just the label (the scavenger's sweep primitive)."""
        return self._command(address, _READ_LABEL_PARTS).label_object()

    def read_label_value(self, address: int) -> TransferResult:
        """Read the label and value in one pass (the sweep's per-sector
        command: both ride the same revolution, section 3.5)."""
        return self._command(address, _READ_LABEL_VALUE_PARTS)

    def check_label(self, address: int, expected: Label) -> TransferResult:
        """Check just the label; the result's label buffer has the pattern's
        0-wildcards replaced by the disk words (the first pass of the
        change-length sequence)."""
        return self._command(address, (("label", Action.CHECK, expected.pack()),))

    def write_label_value(self, address: int, label: Label, value: Sequence[int]) -> None:
        """Write the label and value with no preceding check (the second
        pass of the change-length sequence; the first pass did the check)."""
        self._command(address, (
            ("label", Action.WRITE, label.pack()),
            ("value", Action.WRITE, value),
        ))

    def check_label_read_value(self, address: int, expected: Label) -> TransferResult:
        """Ordinary page read: confirm identity, then take the data.

        One pass; raises :class:`LabelCheckError` when the hint is stale.
        """
        return self._command(address, (
            ("label", Action.CHECK, expected.pack()),
            ("value", Action.READ, None),
        ))

    def check_label_write_value(
        self, address: int, expected: Label, value: Sequence[int]
    ) -> TransferResult:
        """Ordinary page write: "On any other write the label is checked, at
        no cost in time" (section 3.3).  One pass; aborts before writing when
        the check fails."""
        return self._command(address, (
            ("label", Action.CHECK, expected.pack()),
            ("value", Action.WRITE, value),
        ))

    def check_label_then_rewrite(
        self,
        address: int,
        expected: Label,
        new_label: Label,
        value: Optional[Sequence[int]] = None,
    ) -> None:
        """Check the label, then rewrite the label (and optionally the value).

        This is the allocate/free/change-length primitive.  The label has
        already passed under the head when the check completes, so rewriting
        it requires a second pass -- one full revolution later.  The timing
        model charges that revolution automatically (section 3.3: "This
        scheme costs a disk revolution each time a page is allocated or
        freed").
        """
        self._command(address, (("label", Action.CHECK, expected.pack()),))
        self._command(address, (
            ("label", Action.WRITE, new_label.pack()),
            # Once a write begins it must continue through the sector, so a
            # label rewrite alone still rewrites the value with its current
            # contents (the hardware streams it back out).
            ("value", Action.WRITE,
             value if value is not None else self.current_value(address)),
        ))

    def current_value(self, address: int) -> List[int]:
        """The logically current data words of *address* -- what a value
        READ through this drive would return.  The plain drive answers from
        the platter; a caching drive (:class:`repro.disk.cache.CachedDrive`)
        answers from its buffer when a write is pending, so a label rewrite
        that streams the value back out never resurrects stale words."""
        return list(self.image.peek(address).value)

    def write_header_label_value(
        self, address: int, header: Header, label: Label, value: Sequence[int]
    ) -> None:
        """Full sector format (used only by pack formatting and the
        compacting scavenger, which owns the whole disk)."""
        self._command(address, (
            ("header", Action.WRITE, header.pack()),
            ("label", Action.WRITE, label.pack()),
            ("value", Action.WRITE, value),
        ))
