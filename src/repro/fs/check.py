"""Crash-recovery invariant checking (sections 3.4-3.6, machine-checked).

The paper's central engineering claim is that label-checked pages plus the
Scavenger make the file system robust against "any single-page failure" and
most multi-page ones.  This module turns that claim into machine-checked
invariants: after an injected crash (see :class:`~repro.disk.faults.FaultPlan`),
:func:`check_recovery` runs the Scavenger, remounts, and asserts

* **structure** -- the recovered pack passes the read-only fsck
  (:func:`~repro.fs.fsck.check_image`) with no residue beyond the documented
  ``ragged-end`` case: no page doubly allocated, no gaps, no dangling or
  unreachable directory entries;
* **accounting** -- the rebuilt allocation map agrees with the labels: no
  in-use page called free, no free page leaked as busy;
* **reachability** -- every surviving file opens and reads through the
  ordinary mount path;
* **contents** -- every file untouched by the in-flight operation is
  byte-identical to its pre-crash state, and the in-flight file itself is in
  a *prefix-consistent* state: page-wise, a prefix of the new contents
  followed by a suffix of the old (or a page-boundary truncation of either).

:class:`WorkloadScenario` hands a workload and this check to the sweep
driver (:func:`~repro.disk.faults.sweep`), which crashes the workload at
every part-write and checks recovery after each crash.
``python -m repro crashtest`` and the ``crash_sweeper`` pytest fixture both
sweep :func:`canonical_scenario`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..disk.cache import CachedDrive
from ..disk.drive import DiskDrive
from ..disk.faults import CrashReport, CrashScenario, PlanFactory
from ..disk.geometry import tiny_test_disk
from ..disk.image import DiskImage
from ..errors import ReproError
from ..words import PAGE_DATA_BYTES, random_bytes
from .descriptor import BOOT_PAGE_ADDRESS, DESCRIPTOR_NAME
from .filesystem import FileSystem, ROOT_DIRECTORY_NAME
from .fsck import check_image
from .names import FileId
from .scavenger import ScavengeReport, Scavenger

#: fsck issue kinds tolerated after a recovery (see EXPERIMENTS.md): a file
#: truncated at a corruption gap keeps L=512 on its new last page, because L
#: is absolute and the scavenger will not invent data lengths.
TOLERATED_ISSUES = ("ragged-end",)

#: Names present on every formatted pack that the checker skips.
SYSTEM_NAMES = (ROOT_DIRECTORY_NAME, DESCRIPTOR_NAME)


# ----------------------------------------------------------------------------
# Expected state
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Change:
    """What the workload did (or was doing) to one file at crash time."""

    before: Optional[bytes]  # None: the file did not exist pre-workload
    after: Optional[bytes]  # None: the workload deleted it
    renamed_to: Optional[str] = None


def snapshot_files(fs: FileSystem) -> Dict[str, bytes]:
    """Contents of every ordinary root-level file, by name."""
    out: Dict[str, bytes] = {}
    for name in fs.list_files():
        if name in SYSTEM_NAMES:
            continue
        entry = fs.root.require(name)
        if FileId(entry.fid.serial).is_directory:
            continue
        out[name] = fs.open_file(name).read_data()
    return out


# ----------------------------------------------------------------------------
# The per-crash invariant check
# ----------------------------------------------------------------------------


@dataclass
class RecoveryReport(CrashReport):
    """Everything one post-crash recovery check found."""

    scavenge: Optional[ScavengeReport] = None
    files_verified: int = 0
    files_in_flight: int = 0
    fsck_issues: int = 0

    def __str__(self) -> str:
        return (
            f"crash@{self.crash_point}: {self.files_verified} verified, "
            f"{self.files_in_flight} in-flight -- {self.status()}"
        )


def _pad_chunk(data: bytes, start: int, size: int) -> bytes:
    """*size* bytes of *data* from *start*, zero-padded past the end."""
    chunk = data[start : start + size]
    return chunk + b"\x00" * (size - len(chunk))


def prefix_consistent(found: bytes, old: Optional[bytes], new: Optional[bytes]) -> bool:
    """Is *found* a legitimate crash state between *old* and *new*?

    Page-wise (512-byte chunks): every chunk of *found* must match the
    corresponding chunk of *old* or of *new* (zero-padded at short tails,
    matching the padded page writes), or be all zeros (a grown-but-unfilled
    page).  Exact matches and page-boundary truncations are special cases.
    ``None`` means "did not exist" (old) / "was being deleted" (new).
    """
    old = old if old is not None else b""
    candidates = [old] if new is None else [old, new]
    if any(found == c for c in candidates):
        return True
    limit = max(len(c) for c in candidates)
    if len(found) > limit + PAGE_DATA_BYTES:
        return False
    for start in range(0, max(len(found), 1), PAGE_DATA_BYTES):
        chunk = found[start : start + PAGE_DATA_BYTES]
        options = [_pad_chunk(c, start, len(chunk)) for c in candidates]
        options.append(b"\x00" * len(chunk))
        if chunk not in options:
            return False
    return True


def check_recovery(
    image: DiskImage,
    before: Dict[str, bytes],
    changes: Optional[Dict[str, Change]] = None,
    crash_point: int = -1,
    crash_reason: str = "",
) -> RecoveryReport:
    """Scavenge a crashed pack and verify every recovery invariant.

    *before* maps file names to their pre-workload contents; *changes* maps
    the names the workload touched to what it did.  Returns a
    :class:`RecoveryReport`; ``report.ok`` is the overall verdict.
    """
    changes = changes or {}
    report = RecoveryReport(crash_point=crash_point, crash_reason=crash_reason)

    # -- recovery: one scavenge must make the pack mountable -------------------
    try:
        report.scavenge = Scavenger(DiskDrive(image)).scavenge()
        fs = FileSystem.mount(DiskDrive(image))
    except ReproError as exc:
        report.note(f"recovery failed: {type(exc).__name__}: {exc}")
        return report

    # -- structure: read-only fsck ------------------------------------------------
    fsck = check_image(image)
    residue = [issue for issue in fsck.issues if issue.kind not in TOLERATED_ISSUES]
    report.fsck_issues = len(residue)
    for issue in residue:
        report.note(f"fsck: {issue}")

    # -- accounting: the map must agree with the labels ---------------------------
    unreadable_labels = {addr for (addr, part) in image.checksum_bad if part == "label"}
    for sector in image.sectors():
        address = sector.header.address
        if (
            address == BOOT_PAGE_ADDRESS
            or address in image.bad_media
            or address in unreadable_labels
        ):
            continue
        if sector.label.is_free and not fs.allocator.is_free(address):
            report.note(f"page-leaked @{address}: free label, busy in map")
        elif sector.label.in_use and fs.allocator.is_free(address):
            report.note(f"map-lies-free @{address}: in-use label, free in map")

    # -- reachability + contents ---------------------------------------------------
    recovered = _read_all_files(fs, report)
    expected_names = set(before) | set(changes)
    for name in sorted(expected_names):
        change = changes.get(name)
        old = before.get(name)
        aliases = [name]
        if change is not None and change.renamed_to:
            aliases.append(change.renamed_to)
        found_name = _find_surviving(recovered, aliases)

        if change is None:
            # Untouched by the in-flight operation: must be byte-identical.
            if found_name is None:
                report.note(f"{name}: untouched file unreachable after recovery")
            elif recovered[found_name] != old:
                report.note(f"{name}: untouched file contents changed")
            else:
                report.files_verified += 1
            continue

        report.files_in_flight += 1
        if found_name is None:
            # Absent is legitimate only when it could have been absent: the
            # workload was deleting it, or creating it from nothing.
            if change.after is not None and old is not None:
                report.note(f"{name}: in-flight file lost entirely")
            continue
        if not prefix_consistent(recovered[found_name], old, change.after):
            report.note(
                f"{name}: contents are not a prefix-consistent crash state "
                f"({len(recovered[found_name])} bytes found)"
            )
    return report


def _read_all_files(fs: FileSystem, report: RecoveryReport) -> Dict[str, bytes]:
    """Open and read every root-level file through the ordinary mount path."""
    out: Dict[str, bytes] = {}
    for name in fs.list_files():
        if name in SYSTEM_NAMES:
            continue
        entry = fs.root.require(name)
        if FileId(entry.fid.serial).is_directory:
            continue
        try:
            out[name] = fs.open_file(name).read_data()
        except ReproError as exc:
            report.note(f"{name}: unreadable after recovery ({type(exc).__name__})")
    return out


def _find_surviving(recovered: Dict[str, bytes], aliases: Sequence[str]) -> Optional[str]:
    """A file may survive under its name, its new name, or a rescued
    ``name!N`` variant; pick the first present."""
    for alias in aliases:
        if alias in recovered:
            return alias
    for alias in aliases:
        for candidate in recovered:
            if candidate.startswith(alias + "!"):
                return candidate
    return None


# ----------------------------------------------------------------------------
# The crash scenario
# ----------------------------------------------------------------------------


class WorkloadScenario(CrashScenario):
    """A workload on one pack, checked by :func:`check_recovery`.

    *build* creates a deterministic populated pack; *workload* mutates it
    and returns the :class:`Change` set it performed (what it *would* have
    done, had it completed -- the clean counting run records it).  Every
    run restarts from a snapshot of the built pack.

    With *cached* the workload runs on the write-back
    :class:`~repro.disk.cache.CachedDrive`: crash points then fall inside
    flush drains too, and any buffered data alive at the crash is lost
    exactly as a real power failure would lose it.  Recovery always runs
    on a fresh uncached drive: the platter is all that survives.
    """

    def __init__(
        self,
        build: Callable[[], Tuple[DiskImage, FileSystem]],
        workload: Callable[[FileSystem], Dict[str, Change]],
        seed: int = 1979,
        cached: bool = False,
    ) -> None:
        self.image, fs = build()
        self.baseline = self.image.snapshot()
        self.before = snapshot_files(fs)
        self.workload = workload
        self.seed = seed
        self.drive = CachedDrive if cached else DiskDrive
        self.changes: Dict[str, Change] = {}

    def run(self, plan: PlanFactory) -> None:
        self.image.restore(self.baseline)
        drive = self.drive(self.image, fault_injector=plan(self.image, self.seed))
        self.changes = self.workload(FileSystem.mount(drive))

    def verify(self, crash_point: int, crash_reason: str) -> RecoveryReport:
        return check_recovery(self.image, self.before, self.changes,
                              crash_point=crash_point, crash_reason=crash_reason)


# ----------------------------------------------------------------------------
# The canonical workload (used by tests and ``python -m repro crashtest``)
# ----------------------------------------------------------------------------


def canonical_build(seed: int = 1979, cylinders: int = 20):
    """A deterministic populated pack: 8 files of varied sizes."""

    def build() -> Tuple[DiskImage, FileSystem]:
        image = DiskImage(tiny_test_disk(cylinders=cylinders))
        fs = FileSystem.format(DiskDrive(image))
        rng = random.Random(seed)
        for i in range(8):
            data = random_bytes(rng, rng.randrange(100, 1800))
            fs.create_file(f"f{i}.dat").write_data(data)
        fs.sync()
        return image, fs

    return build


def canonical_workload(seed: int = 1979):
    """Rewrite, extend, shrink, create, delete, and rename -- every kind of
    in-flight operation a crash can interrupt."""

    def workload(fs: FileSystem) -> Dict[str, Change]:
        rng = random.Random(seed + 1)
        grown = random_bytes(rng, 2300)
        shrunk = random_bytes(rng, 150)
        created = random_bytes(rng, 900)
        old = {name: fs.open_file(name).read_data() for name in
               ("f0.dat", "f1.dat", "f2.dat", "f3.dat", "f4.dat")}
        changes = {
            "f0.dat": Change(before=old["f0.dat"], after=grown),
            "f1.dat": Change(before=old["f1.dat"], after=shrunk),
            "f2.dat": Change(before=old["f2.dat"], after=None),
            "new.dat": Change(before=None, after=created),
            "f3.dat": Change(before=old["f3.dat"], after=old["f3.dat"],
                             renamed_to="f3-renamed.dat"),
            "f4.dat": Change(before=old["f4.dat"], after=old["f4.dat"][:512] + shrunk),
        }
        fs.open_file("f0.dat").write_data(grown)
        fs.open_file("f1.dat").write_data(shrunk)
        fs.delete_file("f2.dat")
        fs.create_file("new.dat").write_data(created)
        fs.rename_file("f3.dat", "f3-renamed.dat")
        fs.open_file("f4.dat").write_data(old["f4.dat"][:512] + shrunk)
        fs.sync()
        return changes

    return workload


def canonical_scenario(seed: int = 1979, cylinders: int = 20,
                       cached: bool = False) -> WorkloadScenario:
    """The canonical workload on its canonical pack, ready to sweep."""
    return WorkloadScenario(canonical_build(seed, cylinders),
                            canonical_workload(seed), seed, cached)
