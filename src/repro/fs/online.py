"""Online maintenance: scavenge and compaction in bounded slices.

The offline :class:`~repro.fs.scavenger.Scavenger` and
:class:`~repro.fs.compactor.Compactor` own the whole pack for their entire
run -- fine for the paper's single-user Alto, an eternity for a file
server at production traffic (E1: ~a minute of downtime).
:class:`OnlineMaintenance` does the always-on version: each call to
:meth:`OnlineMaintenance.step` performs a *bounded* amount of work
(``budget_us`` of simulated time, at most ``moves_per_slice`` page moves)
and returns, so a server can interleave one slice per poll cycle with
request service (see ``FileServer.maintenance``).

Two phases, each crash- and concurrency-safe because every mutation uses
the same label-check disciplines as the offline tools:

* **sweep** -- audit every label against the allocation map and reconcile
  both drift directions in place (the map is a hint, section 3.3: a page
  improperly marked free costs a claim failure; one improperly marked busy
  is a lost page).  Structurally garbage labels are freed with the
  scavenger's exact-words check-then-rewrite.  The repaired map is synced
  at the end of the phase.
* **compact** -- migrate data pages (never leaders: directory hints stay
  valid) from the top of the pack into the lowest free sectors, one
  new-copy-before-free move at a time: claim the target with the page's
  own label, repair both neighbours' links, then free the source.  A crash
  between claim and free leaves a duplicate absolute name, which the
  ordinary scavenger resolves -- the identical discipline the offline
  compactor relies on.

Every slice boundary gets a verdict from
:func:`~repro.fs.fsck.check_image` (pure state inspection: no simulated
time).  The check is a function of the platter alone -- every label is
self-identifying (section 3.3) -- so after the boundary flush a full scan
runs only when a sector changed since the last one, which
:attr:`DiskImage.generation <repro.disk.image.DiskImage.generation>` tells:
most slices of a patrol read labels and write nothing, and their boundary
reuses the previous report.  In case change tracking misses a route, every
``_CROSS_CHECK_EVERY``-th reused verdict is audited by a full rescan, and
a rescan that disagrees raises :class:`MaintenanceInvariantError`.  Two
issue kinds are tolerated while the system is live: a
``ragged-end`` is a pre-existing absolute (the scavenger will not invent
data lengths), and ``map-lies-free`` is the designed drift of the on-disk
map hint between syncs.  Damage already on the pack when maintenance
started (the first boundary's issue set is the *baseline*) is tolerated
too -- repairing pre-existing wear is the patrol's whole job, and it
cannot be required to have finished before it has started.  Anything
else -- an issue the maintenance pass itself introduced -- raises
:class:`MaintenanceInvariantError`: the incremental machinery must never
make the pack less consistent than it found it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..disk.sector import Label, VALUE_WORDS
from ..errors import (
    BadSectorError,
    FileSystemError,
    HintFailed,
    PageNotFree,
    SectorChecksumError,
)
from ..words import ones_words
from .descriptor import BOOT_PAGE_ADDRESS, DESCRIPTOR_LEADER_ADDRESS
from .fsck import CheckReport, check_image
from .names import FileId, FullName, page_number_from_label
from .scavenger import Scavenger

#: Default simulated-time work budget per slice (20 ms: a few label reads
#: or one page move on the simulated disk).
DEFAULT_BUDGET_US = 20_000

#: Default page-move cap per slice (bounds write amplification per cycle).
DEFAULT_MOVES_PER_SLICE = 1

#: Issue kinds tolerated at a *live* slice boundary (see module docstring).
ONLINE_TOLERATED_ISSUES = ("ragged-end", "map-lies-free")

PHASE_SWEEP = "sweep"
PHASE_COMPACT = "compact"
PHASE_DONE = "done"

_PHASE_CODES = {PHASE_SWEEP: 1, PHASE_COMPACT: 2, PHASE_DONE: 0}

#: Every this-many reused boundary verdicts, one is recomputed by a full
#: scan and must agree (the audit against leaky change tracking).
_CROSS_CHECK_EVERY = 64


class MaintenanceInvariantError(FileSystemError):
    """A slice boundary found the live view inconsistent."""


@dataclass
class MaintenanceReport:
    """Everything the incremental pass found and did so far."""

    slices: int = 0
    passes: int = 0  # completed sweep+compact rounds (continuous patrol)
    sectors_audited: int = 0
    map_freed: int = 0  # map said busy, label says free (lost pages)
    map_busied: int = 0  # map said free, label says in use
    garbage_labels_freed: int = 0
    pages_moved: int = 0
    moves_skipped: int = 0
    checks_passed: int = 0
    full_checks: int = 0  # full-pack scans run (boundary verdicts + audits)
    syncs: int = 0
    issues_seen: List[str] = field(default_factory=list)

    def repairs_made(self) -> int:
        return (self.map_freed + self.map_busied
                + self.garbage_labels_freed + self.pages_moved)


class OnlineMaintenance:
    """Incremental scavenge + compaction over a live, mounted FileSystem.

    Cooperative and single-threaded by construction: a slice runs between
    server poll cycles, when no request is mid-flight, so reconciling the
    in-memory map or moving a page races nothing.  Open files whose
    address hints a move staled recover through the ordinary hint ladder
    (the label checks fail, the file re-walks its links).

    >>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
    >>> fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
    >>> _ = fs.create_file("a.txt")
    >>> maint = OnlineMaintenance(fs)
    >>> while maint.step():
    ...     pass
    >>> maint.phase
    'done'
    >>> maint.report.checks_passed > 0
    True
    """

    def __init__(
        self,
        fs,
        budget_us: int = DEFAULT_BUDGET_US,
        moves_per_slice: int = DEFAULT_MOVES_PER_SLICE,
        verify: bool = True,
        compact: bool = True,
        continuous: bool = False,
        tolerated: Tuple[str, ...] = ONLINE_TOLERATED_ISSUES,
    ) -> None:
        if budget_us < 1:
            raise ValueError("budget_us must be >= 1")
        if moves_per_slice < 1:
            raise ValueError("moves_per_slice must be >= 1")
        self.fs = fs
        self.drive = fs.drive
        self.budget_us = budget_us
        self.moves_per_slice = moves_per_slice
        self.verify = verify
        self.compact = compact
        #: When True the maintainer is a patrol: a finished pass starts
        #: over from the top instead of going idle -- the 24/7 mode an
        #: always-on server runs, where map drift and fragmentation are
        #: re-audited for as long as the machine is up.
        self.continuous = continuous
        self.tolerated = tuple(tolerated)
        self.report = MaintenanceReport()
        self.phase = PHASE_SWEEP
        #: Pre-existing issues, captured at the first slice boundary;
        #: never held against the pass (see module docstring).
        self._baseline: Optional[set] = None
        #: The last full scan's report and the ``(image, generation)`` it
        #: saw; a boundary with the same key reuses the report.
        self._verdict: Optional[CheckReport] = None
        self._verdict_key: Optional[tuple] = None
        self._reused = 0
        self._total = self.drive.shape.total_sectors()
        self._sweep_cursor = 0
        self._compact_cursor = self._total - 1
        obs = self.drive.clock.obs
        self._obs = obs
        registry = obs.registry
        self._c_slices = registry.counter("fs.maint.slices")
        self._c_map_repairs = registry.counter("fs.maint.map_repairs")
        self._c_garbage = registry.counter("fs.maint.garbage_freed")
        self._c_moves = registry.counter("fs.maint.pages_moved")
        self._c_checks = registry.counter("fs.maint.slice_checks")
        self._c_full_checks = registry.counter("fs.maint.full_checks")
        self._g_phase = registry.gauge("fs.maint.phase")
        self._g_cursor = registry.gauge("fs.maint.cursor")
        self._g_phase.set(_PHASE_CODES[self.phase])

    # ------------------------------------------------------------------------
    # The slice loop
    # ------------------------------------------------------------------------

    def step(self) -> bool:
        """Run one bounded slice; returns True while work remains.

        Performs at least one unit of work, then keeps going until
        ``budget_us`` of simulated time has elapsed (or the phase ends),
        verifies the slice boundary, and returns.
        """
        if self.phase == PHASE_DONE:
            if not self.continuous:
                return False
            self.phase = PHASE_SWEEP
            self._sweep_cursor = 0
            self._compact_cursor = self._total - 1
        self.report.slices += 1
        self._c_slices.inc()
        with self._obs.span("maint.slice", "maint", phase=self.phase) as span:
            start_us = self.drive.clock.now_us
            units = 0
            moves = 0
            while True:
                if self.phase == PHASE_SWEEP:
                    self._sweep_one()
                elif self.phase == PHASE_COMPACT:
                    if moves >= self.moves_per_slice:
                        break
                    moves += self._compact_one()
                else:
                    break
                units += 1
                if self.drive.clock.now_us - start_us >= self.budget_us:
                    break
            span.annotate(units=units, cursor=self._cursor())
            self._check_boundary()
        self._g_phase.set(_PHASE_CODES[self.phase])
        self._g_cursor.set(self._cursor())
        # A patrol always has work: the pass that just ended rolls over
        # into the next one on the following step.
        return self.continuous or self.phase != PHASE_DONE

    def attach(self, server) -> "OnlineMaintenance":
        """Attach this maintainer to *server*'s poll cycle.

        The engine runs one bounded slice at the end of every poll,
        after the cycle's flush.  This is the same wiring as
        ``server.maintenance = maint``, returned for chaining.

        >>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
        >>> from repro.net import PacketNetwork
        >>> from repro.server import FileServer
        >>> fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
        >>> net = PacketNetwork(clock=fs.drive.clock)
        >>> net.attach("fileserver")
        >>> server = FileServer(fs, net)
        >>> maint = OnlineMaintenance(fs).attach(server)
        >>> server.maintenance is maint
        True
        """
        server.maintenance = self
        return self

    def run_to_completion(self, max_slices: Optional[int] = None) -> MaintenanceReport:
        """Step until done (a convenience for tests and benches)."""
        remaining = max_slices
        while self.step():
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    break
        return self.report

    def _cursor(self) -> int:
        if self.phase == PHASE_SWEEP:
            return self._sweep_cursor
        if self.phase == PHASE_COMPACT:
            return self._compact_cursor
        return 0

    # ------------------------------------------------------------------------
    # Phase 1: the map audit sweep
    # ------------------------------------------------------------------------

    def _sweep_one(self) -> None:
        """Audit one sector's label against the allocation map."""
        address = self._sweep_cursor
        self._sweep_cursor += 1
        self._audit_one(address)
        if self._sweep_cursor >= self._total:
            self._end_sweep()

    def _audit_one(self, address: int) -> None:
        self.report.sectors_audited += 1
        allocator = self.fs.allocator
        try:
            label = self.drive.read_label(address)
        except (BadSectorError, SectorChecksumError):
            # Dead media or a torn identity: never allocatable online;
            # the offline scavenger reclaims torn sectors.
            if allocator.is_free(address):
                allocator.mark_busy(address)
                self.report.map_busied += 1
                self._c_map_repairs.inc()
            return
        if label.is_free:
            if address == BOOT_PAGE_ADDRESS:
                return  # reserved regardless of its label
            if not allocator.is_free(address):
                # A lost page: improperly marked busy, recovered here
                # exactly as the scavenger would recover it.
                allocator.mark_free(address)
                self.report.map_freed += 1
                self._c_map_repairs.inc()
            return
        if label.in_use and not Scavenger._parseable(label):
            self._free_garbage(address, label)
            return
        if allocator.is_free(address):
            allocator.mark_busy(address)
            self.report.map_busied += 1
            self._c_map_repairs.inc()

    def _free_garbage(self, address: int, label: Label) -> None:
        """Free a structurally garbage label (the scavenger's discipline:
        check the exact words we read, then rewrite free + ones)."""
        try:
            self.drive.check_label_then_rewrite(
                address, label, Label.free(), ones_words(VALUE_WORDS)
            )
        except Exception:
            return  # changed under us or unwritable; the next pass retries
        self.fs.allocator.mark_free(address)
        self.report.garbage_labels_freed += 1
        self._c_garbage.inc()

    def _end_sweep(self) -> None:
        self.fs.sync()  # persist the reconciled map (includes a flush)
        self.report.syncs += 1
        if self.compact:
            self.phase = PHASE_COMPACT
        else:
            self.report.passes += 1
            self.phase = PHASE_DONE

    # ------------------------------------------------------------------------
    # Phase 2: incremental compaction
    # ------------------------------------------------------------------------

    def _compact_one(self) -> int:
        """Consider one address from the top of the pack; returns moves (0/1)."""
        address = self._compact_cursor
        lowest_free = next(self.fs.allocator.candidates(None), None)
        if lowest_free is None or lowest_free >= address or address <= 0:
            self._end_compact()
            return 0
        self._compact_cursor -= 1
        if address in (BOOT_PAGE_ADDRESS, DESCRIPTOR_LEADER_ADDRESS):
            return 0
        try:
            contents = self.drive.read_label_value(address)
            label = Label.unpack(contents.label)
        except (BadSectorError, SectorChecksumError):
            return 0
        if not label.in_use or not Scavenger._parseable(label):
            return 0
        page_number = page_number_from_label(label)
        if page_number == 0:
            return 0  # leaders stay put: directory entry hints remain valid
        return self._move_page(address, label, contents.value, lowest_free)

    def _move_page(
        self, source: int, label: Label, value: List[int], target: int
    ) -> int:
        """One crash-safe move: claim target, relink neighbours, free source."""
        from ..disk.geometry import NIL

        fid = FileId(label.serial, label.version)
        page_number = page_number_from_label(label)
        allocator = self.fs.allocator
        page_io = self.fs.page_io
        allocator.mark_busy(target)
        try:
            page_io.claim(target, label, value)
        except PageNotFree:
            # The map lied about the target; it stays marked busy (the
            # liar protocol) and this source is retried next slice.
            self._compact_cursor += 1
            return 0
        new_name = FullName(fid, page_number, target)
        try:
            if label.prev_link != NIL:
                prev_name = FullName(fid, page_number - 1, label.prev_link)
                page_io.update_label(
                    prev_name,
                    lambda l: l.with_links(next_link=target, prev_link=l.prev_link),
                )
            if label.next_link != NIL:
                next_name = FullName(fid, page_number + 1, label.next_link)
                page_io.update_label(
                    next_name,
                    lambda l: l.with_links(next_link=l.next_link, prev_link=target),
                )
        except (HintFailed, BadSectorError, SectorChecksumError):
            # A neighbour link proved stale: undo the new copy (free it)
            # and leave the page where it is -- never leave a duplicate
            # absolute name past the slice boundary.
            allocator.release(page_io, new_name)
            self.report.moves_skipped += 1
            return 0
        allocator.release(page_io, FullName(fid, page_number, source))
        self.report.pages_moved += 1
        self._c_moves.inc()
        return 1

    def _end_compact(self) -> None:
        self.fs.sync()
        self.report.syncs += 1
        self.report.passes += 1
        self.phase = PHASE_DONE

    # ------------------------------------------------------------------------
    # The slice-boundary invariant check
    # ------------------------------------------------------------------------

    def _check_boundary(self) -> None:
        if not self.verify:
            return
        self.fs.flush()  # the platter must hold the logically current state
        report = self._boundary_report()
        self._c_checks.inc()
        self.report.checks_passed += 1
        if self._baseline is None:
            self._baseline = {(issue.kind, issue.address)
                              for issue in report.issues}
        fatal = [issue for issue in report.issues
                 if issue.kind not in self.tolerated
                 and (issue.kind, issue.address) not in self._baseline]
        for issue in report.issues:
            if issue.kind not in self.report.issues_seen:
                self.report.issues_seen.append(issue.kind)
        if fatal:
            raise MaintenanceInvariantError(
                f"slice boundary (phase {self.phase}, slice "
                f"{self.report.slices}) is inconsistent: "
                + "; ".join(str(issue) for issue in fatal[:5])
            )

    def _boundary_report(self) -> CheckReport:
        """``check_image`` of the platter as it is now, rescanning only if a
        sector changed since the last scan (plus the periodic audit)."""
        image = self.drive.image
        key = (image, image.generation)
        if key != self._verdict_key:
            self._verdict = self._full_check(image)
            self._verdict_key = key
            return self._verdict
        self._reused += 1
        if self._reused % _CROSS_CHECK_EVERY == 0:
            fresh = self._full_check(image)
            if fresh != self._verdict:
                raise MaintenanceInvariantError(
                    f"slice boundary (phase {self.phase}, slice "
                    f"{self.report.slices}): a sector changed without moving "
                    f"the pack's generation; the reused verdict is stale")
        return self._verdict

    def _full_check(self, image) -> CheckReport:
        self.report.full_checks += 1
        self._c_full_checks.inc()
        return check_image(image)
