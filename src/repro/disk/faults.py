"""Fault injection for robustness experiments.

The paper's central robustness claims (section 3.3, section 6) are about
what happens when things go wrong: stale hints, lying allocation maps,
crashes between related writes, decaying media.  ``FaultInjector`` produces
those wrongs on demand, both *through* the drive (torn writes -- a power
failure mid-sector) and *behind* the drive's back (label scrambling, media
decay -- corruption that no software action caused).

All randomized behaviour goes through an explicitly seeded ``random.Random``
so every campaign is reproducible.

:func:`sweep` is the one crash-point sweep driver: it counts a
:class:`CrashScenario`'s part-writes (the coordinate system ``FaultPlan``
defines), then replays the scenario with a clean crash or a torn write at
every one of them and collects the scenario's verdict for each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import PowerFailure, TornWriteError, TransientReadError
from ..words import WORD_MASK
from .image import DiskImage
from .sector import Label

#: Named crash points: one per (part, action) pair the drive can perform.
#: A plan addresses a crash point by name, e.g. ``"label:write"`` = the
#: moment a label write reaches the head.
TRACE_POINTS = tuple(
    f"{part}:{action}"
    for part in ("header", "label", "value")
    for action in ("read", "check", "write")
)


def point_name(part: str, action: str) -> str:
    """The canonical crash-point name for one part action."""
    return f"{part}:{action}"


def check_point(name: str) -> str:
    """Validate a crash-point name; returns it unchanged or raises."""
    if name not in TRACE_POINTS:
        raise ValueError(f"unknown trace point {name!r}; one of {', '.join(TRACE_POINTS)}")
    return name


class FaultInjector:
    """Corrupts a pack in controlled, reproducible ways.

    Attach to a :class:`~repro.disk.drive.DiskDrive` via its
    ``fault_injector`` argument to intercept writes; the direct-corruption
    methods operate on the image and need no drive at all.
    """

    def __init__(self, image: DiskImage, seed: int = 1979) -> None:
        self.image = image
        self.rng = random.Random(seed)
        self._writes_until_power_failure: Optional[int] = None
        self.torn_writes = 0

    # ------------------------------------------------------------------------
    # Drive hooks
    # ------------------------------------------------------------------------

    def before_parts(self, drive, address: int, parts: Sequence) -> None:
        """Called by the drive before processing a command's parts.

        *parts* is the drive's flattened command: a sequence of
        ``(part, Action, data)`` triples covering every non-NONE part in
        head order -- the same shape the drive executes, so observing it
        costs no ``PartCommand`` packaging on the hot path.
        """
        # Currently a hook point only; media errors are raised by the drive
        # itself from ``image.bad_media``.

    def filter_write(self, drive, address: int, part: str, data: List[int]) -> List[int]:
        """Called for every part write; may tear it.

        A torn write models a power failure once the write has begun: the
        hardware contract says the write "must continue through the rest of
        the sector", so a failure leaves a prefix of new words followed by
        garbage -- the worst case the scavenger must survive.
        """
        if self._writes_until_power_failure is None:
            return data
        self._writes_until_power_failure -= 1
        if self._writes_until_power_failure > 0:
            return data
        self._writes_until_power_failure = None
        self.torn_writes += 1
        keep = self.rng.randrange(0, len(data))
        torn = list(data[:keep]) + [self.rng.randrange(WORD_MASK + 1) for _ in range(len(data) - keep)]
        # The torn words land on the platter, then the machine dies.
        sector = self.image.sector(address)
        if part == "header":
            from .sector import Header

            sector.header = Header.unpack(torn)
        elif part == "label":
            sector.label = Label.unpack(torn)
        else:
            sector.value = torn
        raise TornWriteError(f"power failed during {part} write at address {address}")

    # ------------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------------

    def schedule_power_failure(self, after_writes: int) -> None:
        """Tear the Nth subsequent part-write (1 = the very next one)."""
        if after_writes < 1:
            raise ValueError("after_writes must be >= 1")
        self._writes_until_power_failure = after_writes

    def cancel_power_failure(self) -> None:
        self._writes_until_power_failure = None

    # ------------------------------------------------------------------------
    # Direct corruption (behind the drive's back)
    # ------------------------------------------------------------------------

    def decay_sector(self, address: int) -> None:
        """Make a sector an unrecoverable media error (bad oxide)."""
        self.image.shape.check_address(address)
        self.image.bad_media.add(address)

    def heal_sector(self, address: int) -> None:
        """Undo :meth:`decay_sector` (e.g. after reformatting)."""
        self.image.bad_media.discard(address)

    def scramble_label(self, address: int) -> Label:
        """Overwrite a sector's label with random words; returns the old label."""
        sector = self.image.sector(address)
        old = sector.label
        sector.label = Label.unpack([self.rng.randrange(WORD_MASK + 1) for _ in range(7)])
        return old

    def scramble_links(self, address: int) -> None:
        """Corrupt only the (hint) link words of a label, leaving the
        absolute part intact -- the scavenger must repair these silently."""
        sector = self.image.sector(address)
        sector.label = sector.label.with_links(
            next_link=self.rng.randrange(WORD_MASK + 1),
            prev_link=self.rng.randrange(WORD_MASK + 1),
        )

    def scramble_value(self, address: int, nwords: int = 16) -> None:
        """Corrupt part of a sector's data words (detected by higher-level
        checksums where present; labels are unaffected)."""
        sector = self.image.sector(address)
        size = len(sector.value)
        for _ in range(nwords):
            sector.value[self.rng.randrange(size)] = self.rng.randrange(WORD_MASK + 1)

    def swap_sectors(self, a: int, b: int) -> None:
        """Exchange the label+value of two sectors, leaving headers in place.

        Models a wildly confused copy utility; every hint to either page goes
        stale at once, but the absolutes still identify the pages, so the
        scavenger recovers both files.
        """
        sa, sb = self.image.sector(a), self.image.sector(b)
        sa.label, sb.label = sb.label, sa.label
        sa.value, sb.value = sb.value, sa.value

    def random_in_use_addresses(self, count: int) -> List[int]:
        """A reproducible sample of in-use sector addresses."""
        in_use = [s.header.address for s in self.image.sectors() if s.label.in_use]
        if count > len(in_use):
            raise ValueError(f"only {len(in_use)} sectors in use, asked for {count}")
        return self.rng.sample(in_use, count)


# ----------------------------------------------------------------------------
# FaultPlan: a programmable, deterministic schedule of faults
# ----------------------------------------------------------------------------


@dataclass
class _TransientReads:
    """A scheduled burst of transient read failures."""

    remaining: int
    address: Optional[int] = None  # None: any address
    part: Optional[str] = None  # None: any part

    def matches(self, address: int, part: str) -> bool:
        if self.remaining <= 0:
            return False
        if self.address is not None and address != self.address:
            return False
        if self.part is not None and part != self.part:
            return False
        return True


class FaultPlan(FaultInjector):
    """A deterministic schedule of faults: the crash-testing engine.

    Where :class:`FaultInjector` offers one-shot corruption calls, a
    ``FaultPlan`` is *programmable*: attach it to a drive (as its
    ``fault_injector``) and schedule, ahead of time, exactly where the
    machine dies or the media glitches.  Everything is counted
    deterministically, so a campaign that crashes at part-write N is
    replayable bit-for-bit from (seed, N).

    Crash points:

    * :meth:`crash_at_write` -- die *instead of* performing the Nth
      part-write (clean crash at a write boundary: writes 1..N-1 landed,
      write N and everything after did not);
    * :meth:`tear_at_write` -- the Nth part-write lands *torn* (a prefix of
      new words, then garbage), then the machine dies;
    * :meth:`crash_at_point` -- die at the Kth passage of a named crash
      point from :data:`TRACE_POINTS` (e.g. ``"label:write"``);
    * :meth:`tear_between_label_and_value` -- in a command that writes both
      label and value, complete the label write and die before the value
      write: the on-disk identity is new, the data is old.

    Media faults:

    * :meth:`schedule_transient_reads` -- the next K read/check part
      attempts fail transiently; the drive's bounded retry-with-backoff
      must absorb up to its retry budget and surface
      :class:`~repro.errors.ReadRetriesExhausted` beyond it;
    * :meth:`flip_bits` -- XOR a mask into one word of any sector part,
      behind the drive's back (plus everything inherited from
      :class:`FaultInjector`: decay, scrambles, swaps).

    After any crash the plan considers the machine *down*: every further
    drive operation raises :class:`~repro.errors.PowerFailure` until
    :meth:`revive` -- recovery code must run on a fresh drive (or revive
    first), exactly like a real reboot.

    Plans built on one shared :class:`WriteCount` number their writes in
    one global order, so a run spanning several packs has one set of
    crash points: write N fires on whichever pack performs it.
    """

    def __init__(self, image: DiskImage, seed: int = 1979,
                 writes: Optional["WriteCount"] = None) -> None:
        super().__init__(image, seed)
        self.crashed = False
        self.crash_reason: Optional[str] = None
        self.writes = writes if writes is not None else WriteCount()
        #: Read/check part attempts seen so far (includes drive retries).
        self.reads_seen = 0
        self._crash_at_write: Optional[int] = None
        self._tear_at_write: Optional[int] = None
        self._crash_points: Dict[str, int] = {}  # point -> remaining passages
        self._point_counts: Dict[str, int] = {}
        self._tear_label_value: Optional[int] = None  # remaining occurrences
        self._crash_before_value = False  # armed for the current command
        self._transient: List[_TransientReads] = []

    @property
    def writes_seen(self) -> int:
        """Part-writes seen so far (the crash-point coordinate system)."""
        return self.writes.seen

    # ------------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------------

    def crash_at_write(self, n: int) -> "FaultPlan":
        """Die cleanly in place of part-write *n* (absolute count, 1-based)."""
        if n <= self.writes_seen:
            raise ValueError(f"write {n} already happened ({self.writes_seen} seen)")
        self._crash_at_write = n
        return self

    def tear_at_write(self, n: int) -> "FaultPlan":
        """Part-write *n* lands torn (new prefix + garbage), then die."""
        if n <= self.writes_seen:
            raise ValueError(f"write {n} already happened ({self.writes_seen} seen)")
        self._tear_at_write = n
        return self

    def crash_at_point(self, point: str, occurrence: int = 1) -> "FaultPlan":
        """Die at the *occurrence*-th future passage of a named trace point."""
        if occurrence < 1:
            raise ValueError("occurrence must be >= 1")
        self._crash_points[check_point(point)] = occurrence
        return self

    def tear_between_label_and_value(self, occurrence: int = 1) -> "FaultPlan":
        """In the *occurrence*-th command writing label AND value, finish the
        label write and die before the value write."""
        if occurrence < 1:
            raise ValueError("occurrence must be >= 1")
        self._tear_label_value = occurrence
        return self

    def schedule_transient_reads(
        self, times: int, address: Optional[int] = None, part: Optional[str] = None
    ) -> "FaultPlan":
        """The next *times* matching read/check part attempts fail
        transiently (each drive retry consumes one failure)."""
        if times < 1:
            raise ValueError("times must be >= 1")
        self._transient.append(_TransientReads(times, address, part))
        return self

    def clear(self) -> None:
        """Drop every scheduled fault (the machine stays up)."""
        self._crash_at_write = None
        self._tear_at_write = None
        self._crash_points.clear()
        self._tear_label_value = None
        self._crash_before_value = False
        self._transient.clear()

    def revive(self) -> None:
        """Power the machine back on (scheduled faults stay cleared)."""
        self.clear()
        self.crashed = False
        self.crash_reason = None

    # ------------------------------------------------------------------------
    # Direct corruption additions
    # ------------------------------------------------------------------------

    def flip_bits(self, address: int, part: str, word_index: int, mask: int) -> None:
        """XOR *mask* into one word of a sector part, behind the drive."""
        from .sector import Header

        sector = self.image.sector(address)
        if part == "header":
            words = sector.header.pack()
            words[word_index] ^= mask & WORD_MASK
            sector.header = Header.unpack(words)
        elif part == "label":
            words = sector.label.pack()
            words[word_index] ^= mask & WORD_MASK
            sector.label = Label.unpack(words)
        elif part == "value":
            sector.value[word_index] ^= mask & WORD_MASK
        else:
            raise ValueError(f"unknown part {part!r}")

    # ------------------------------------------------------------------------
    # Drive hooks
    # ------------------------------------------------------------------------

    def before_parts(self, drive, address: int, parts: Sequence) -> None:
        """Command start: dead-machine check and label+value tear arming."""
        self._require_alive()
        from .drive import Action

        self._crash_before_value = False
        if self._tear_label_value is not None:
            label_write = value_write = False
            for part, action, _data in parts:
                if action is Action.WRITE:
                    if part == "label":
                        label_write = True
                    elif part == "value":
                        value_write = True
            if label_write and value_write:
                self._tear_label_value -= 1
                if self._tear_label_value <= 0:
                    self._tear_label_value = None
                    self._crash_before_value = True

    def before_part(self, drive, address: int, part: str, action: str) -> None:
        """Called for every non-NONE part just before it passes the head."""
        self._require_alive()
        point = point_name(part, action)
        self._point_counts[point] = self._point_counts.get(point, 0) + 1

        if point in self._crash_points:
            self._crash_points[point] -= 1
            if self._crash_points[point] <= 0:
                del self._crash_points[point]
                self._crash(f"power failed at trace point {point} (address {address})")

        if action == "write":
            if self._crash_before_value and part == "value":
                self._crash_before_value = False
                self._crash(
                    f"power failed between label and value writes at address {address}"
                )
            self.writes.seen += 1
            if self._crash_at_write is not None and self.writes_seen >= self._crash_at_write:
                self._crash_at_write = None
                self._crash(
                    f"power failed before {part} write #{self.writes_seen} "
                    f"at address {address}"
                )
        else:  # read or check
            self.reads_seen += 1
            for burst in self._transient:
                if burst.matches(address, part):
                    burst.remaining -= 1
                    if burst.remaining <= 0:
                        self._transient.remove(burst)
                    raise TransientReadError(
                        f"transient {action} failure in {part} at address {address}"
                    )

    def filter_write(self, drive, address: int, part: str, data: List[int]) -> List[int]:
        """Tear the scheduled write: a new-words prefix lands, then garbage.

        The interrupted part never got its checksum laid down, so it is
        marked checksum-bad: every later read of it raises
        :class:`~repro.errors.SectorChecksumError` until something rewrites
        the part (exactly how real hardware surfaces a torn write).
        """
        if self._tear_at_write is None or self.writes_seen < self._tear_at_write:
            return data
        self._tear_at_write = None
        self.torn_writes += 1
        keep = self.rng.randrange(0, len(data))
        torn = list(data[:keep]) + [
            self.rng.randrange(WORD_MASK + 1) for _ in range(len(data) - keep)
        ]
        sector = self.image.sector(address)
        if part == "header":
            from .sector import Header

            sector.header = Header.unpack(torn)
        elif part == "label":
            sector.label = Label.unpack(torn)
        else:
            sector.value = torn
        self.image.checksum_bad.add((address, part))
        self.crashed = True
        self.crash_reason = f"power failed during {part} write at address {address}"
        raise TornWriteError(self.crash_reason, crash_point=self.writes_seen)

    # ------------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------------

    def point_count(self, point: str) -> int:
        """Passages of a named trace point seen so far."""
        return self._point_counts.get(check_point(point), 0)

    def pending_faults(self) -> bool:
        """Is anything still scheduled?"""
        return bool(
            self._crash_at_write is not None
            or self._tear_at_write is not None
            or self._crash_points
            or self._tear_label_value is not None
            or self._transient
        )

    # -- internals ----------------------------------------------------------------

    def _require_alive(self) -> None:
        if self.crashed:
            raise PowerFailure(
                f"machine is down ({self.crash_reason}); revive() to reboot",
                crash_point=self.writes_seen,
            )

    def _crash(self, reason: str) -> None:
        self.crashed = True
        self.crash_reason = reason
        raise PowerFailure(reason, crash_point=self.writes_seen)


# ----------------------------------------------------------------------------
# The crash-point sweep driver
# ----------------------------------------------------------------------------


class WriteCount:
    """A part-write tally shared by one or more :class:`FaultPlan` objects."""

    __slots__ = ("seen",)

    def __init__(self) -> None:
        self.seen = 0


#: How a scenario gets the plan for each drive it crashes: ``plan(image,
#: seed)``; *seed* draws that pack's torn-write garbage.  ``FaultPlan``
#: itself qualifies, for running a scenario outside a sweep.
PlanFactory = Callable[[DiskImage, int], FaultPlan]


@dataclass
class CrashReport:
    """One crash point's verdict; scenarios subclass it for their extras."""

    crash_point: int = -1
    crash_reason: str = ""
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def note(self, problem: str) -> None:
        self.problems.append(problem)

    def __str__(self) -> str:
        return f"crash@{self.crash_point}: {self.status()}"

    def status(self) -> str:
        return "ok" if self.ok else "; ".join(self.problems)


class CrashScenario:
    """What a sweep crashes: a workload from a fixed baseline, and its check.

    :meth:`run` resets to the baseline and runs the workload, attaching
    ``plan(image, seed)`` to every drive whose part-writes are crash
    points; :meth:`verify` recovers whatever :meth:`run` left behind and
    returns a :class:`CrashReport`.  Scenarios keep between the two calls
    whatever state verifying needs.
    """

    def run(self, plan: PlanFactory) -> None:
        raise NotImplementedError

    def verify(self, crash_point: int, crash_reason: str) -> CrashReport:
        raise NotImplementedError

    def summary(self, result: "SweepResult") -> str:
        verdict = "all recovered" if result.ok else f"{len(result.failures)} FAILED"
        return (f"{result.points_tested}/{result.total_writes} crash points "
                f"swept: {verdict}")


@dataclass
class SweepResult:
    """Outcome of one sweep: a report per crash point tested."""

    scenario: CrashScenario
    total_writes: int
    reports: List[CrashReport] = field(default_factory=list)

    @property
    def points_tested(self) -> int:
        return len(self.reports)

    @property
    def failures(self) -> List[CrashReport]:
        return [r for r in self.reports if not r.ok]

    @property
    def ok(self) -> bool:
        return self.points_tested > 0 and not self.failures

    def summary(self) -> str:
        return self.scenario.summary(self)


def count_writes(scenario: CrashScenario) -> int:
    """Pass 1: run *scenario* clean, verify it, and count its part-writes.

    Only :meth:`~CrashScenario.run`'s writes are crash points; whatever
    :meth:`~CrashScenario.verify` writes afterwards (a read-back, a patrol)
    is not counted.  A clean run that fails its own check raises
    ``RuntimeError``: crashing it would prove nothing.
    """
    writes = WriteCount()
    scenario.run(lambda image, seed: FaultPlan(image, seed, writes))
    total = writes.seen
    clean = scenario.verify(0, "")
    if not clean.ok:
        raise RuntimeError(f"clean run failed: {clean.status()}")
    return total


def sweep(
    scenario: CrashScenario,
    points: Optional[Sequence[int]] = None,
    tear: bool = False,
    on_point: Optional[Callable[[CrashReport], None]] = None,
) -> SweepResult:
    """Crash *scenario* at every part-write (or at *points*) and verify each.

    After :func:`count_writes`, each point N replays the scenario with a
    clean power failure in place of write N (with *tear*, write N lands
    torn), then collects :meth:`~CrashScenario.verify`'s report, passing
    it to *on_point* as it goes.  Points are 1-based, as
    :meth:`FaultPlan.crash_at_write` counts; one outside ``1..total``
    raises ``ValueError`` before anything is replayed.  Deterministic
    given the scenario's seed.
    """
    total = count_writes(scenario)
    chosen = list(points) if points is not None else list(range(1, total + 1))
    for n in chosen:
        if not 1 <= n <= total:
            raise ValueError(f"crash point {n} outside 1..{total}")
    result = SweepResult(scenario, total)
    for n in chosen:
        writes = WriteCount()
        reason = ""
        try:
            scenario.run(_armed(writes, n, tear))
        except PowerFailure as exc:
            reason = str(exc)
        report = scenario.verify(n, reason)
        if not reason:
            report.note(f"fault at write {n} never fired "
                        f"({writes.seen} writes seen)")
        result.reports.append(report)
        if on_point is not None:
            on_point(report)
    return result


def _armed(writes: WriteCount, n: int, tear: bool) -> PlanFactory:
    """Plans sharing *writes*, each set to crash (or tear) global write *n*."""

    def plan(image: DiskImage, seed: int) -> FaultPlan:
        armed = FaultPlan(image, seed, writes)
        (armed.tear_at_write if tear else armed.crash_at_write)(n)
        return armed

    return plan
