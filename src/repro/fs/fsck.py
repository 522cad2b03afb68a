"""Consistency checking: every invariant of section 3, verified in place.

Where the :class:`~repro.fs.scavenger.Scavenger` *repairs*, ``check_image``
merely *reports*: it inspects a pack's raw state (no timing, no writes) and
returns every violation of the paper's invariants it can find.  Tests use
it as their oracle; users can run it the way one runs fsck read-only.

Checked invariants:

* every label parses as free, bad, or a structurally valid in-use label;
* every file's pages number 0..n with no gaps or duplicates;
* page 0 of every file carries a parseable leader page;
* NL/PL links agree with the absolute page numbering;
* L = 512 on the leader and interior pages, L < 512 on the last page;
* the allocation map (if the descriptor is readable) calls no in-use page
  free;
* every directory entry names an existing file's leader, and the
  descriptor's root pointer resolves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..disk.geometry import NIL
from ..disk.image import DiskImage
from ..errors import FileFormatError
from ..words import bytes_to_words, words_to_bytes
from .descriptor import DESCRIPTOR_LEADER_ADDRESS, DiskDescriptor
from .directory import Directory
from .file import FULL_PAGE
from .leader import LeaderPage
from .names import (
    FileId,
    ORDINARY_SERIAL_FLAG,
    PAGE_NUMBER_BIAS,
    page_number_from_label,
)


@dataclass(frozen=True)
class Issue:
    """One invariant violation."""

    kind: str
    address: Optional[int]
    detail: str

    def __str__(self) -> str:
        where = f" @{self.address}" if self.address is not None else ""
        return f"[{self.kind}{where}] {self.detail}"


@dataclass
class CheckReport:
    """Everything ``check_image`` found."""

    issues: List[Issue] = field(default_factory=list)
    files: int = 0
    directories: int = 0
    free_pages: int = 0
    bad_pages: int = 0

    @property
    def clean(self) -> bool:
        return not self.issues

    def kinds(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for issue in self.issues:
            out[issue.kind] = out.get(issue.kind, 0) + 1
        return out

    def note(self, kind: str, address: Optional[int], detail: str) -> None:
        self.issues.append(Issue(kind, address, detail))


def _parseable(label) -> bool:
    if not label.serial & ORDINARY_SERIAL_FLAG:
        return False
    if label.serial & 0xFFFF == 0:
        return False
    if not 1 <= label.version <= 0xFFFE:
        return False
    if label.page_number < PAGE_NUMBER_BIAS or label.page_number == 0xFFFF:
        return False
    if label.length > FULL_PAGE:
        return False
    return True


def check_image(image: DiskImage) -> CheckReport:
    """Inspect a pack; returns a :class:`CheckReport` (no writes, no time)."""
    report = CheckReport()
    files: Dict[Tuple[int, int], Dict[int, object]] = {}

    # -- pass 1: labels ----------------------------------------------------------
    for sector in image.scan():
        label = sector.label
        address = sector.header.address
        if label.is_free:
            report.free_pages += 1
            continue
        if label.is_bad:
            report.bad_pages += 1
            continue
        if not _parseable(label):
            report.note("garbage-label", address, f"unparseable in-use label {label.pack()}")
            continue
        key = (label.serial, label.version)
        page_number = page_number_from_label(label)
        bucket = files.setdefault(key, {})
        if page_number in bucket:
            report.note(
                "duplicate-page", address,
                f"(serial {label.serial:#x}, page {page_number}) also at "
                f"{bucket[page_number].header.address}",
            )
            continue
        bucket[page_number] = sector

    report.files = len(files)

    # -- pass 2: per-file structure ------------------------------------------------
    for (serial, version), bucket in sorted(files.items()):
        tag = f"serial {serial:#x}v{version}"
        if FileId(serial).is_directory:
            report.directories += 1
        pages = sorted(bucket)
        if pages[0] != 0:
            report.note("headless", bucket[pages[0]].header.address,
                        f"{tag} starts at page {pages[0]}")
            continue
        if pages != list(range(len(pages))):
            missing = sorted(set(range(pages[-1] + 1)) - set(pages))
            report.note("gap", None, f"{tag} missing pages {missing}")
        last = pages[-1]
        for pn in pages:
            sector = bucket[pn]
            label = sector.label
            want_next = bucket[pn + 1].header.address if pn + 1 in bucket else NIL
            want_prev = bucket[pn - 1].header.address if pn - 1 in bucket and pn > 0 else NIL
            if label.next_link != want_next:
                report.note("bad-link", sector.header.address,
                            f"{tag} page {pn} NL={label.next_link}, want {want_next}")
            if label.prev_link != want_prev:
                report.note("bad-link", sector.header.address,
                            f"{tag} page {pn} PL={label.prev_link}, want {want_prev}")
            if pn < last and label.length != FULL_PAGE:
                report.note("bad-length", sector.header.address,
                            f"{tag} page {pn} is interior with L={label.length}")
            if pn == last and pn > 0 and label.length >= FULL_PAGE:
                report.note("ragged-end", sector.header.address,
                            f"{tag} last page has L={label.length}")
        if len(pages) < 2:
            report.note("bare-leader", bucket[0].header.address,
                        f"{tag} has a leader but no data page")
        try:
            LeaderPage.unpack(bucket[0].value)
        except FileFormatError as exc:
            report.note("bad-leader", bucket[0].header.address, f"{tag}: {exc}")

    # -- pass 3: the descriptor and map ----------------------------------------------
    descriptor = _read_descriptor(image, files, report)
    if descriptor is not None:
        allocator = descriptor.allocator()
        for sector in image.scan():
            if sector.label.in_use and allocator.is_free(sector.header.address):
                report.note("map-lies-free", sector.header.address,
                            "allocation map calls an in-use page free")
        root_key = (descriptor.root_directory.fid.serial,
                    descriptor.root_directory.fid.version)
        if root_key not in files:
            report.note("dangling-root", None,
                        f"descriptor names nonexistent root {root_key[0]:#x}")

    # -- pass 4: directory entries ------------------------------------------------------
    for (serial, version), bucket in sorted(files.items()):
        if not FileId(serial).is_directory or 0 not in bucket:
            continue
        data = _file_bytes(bucket)
        try:
            entries = _parse_directory_bytes(data)
        except Exception as exc:  # noqa: BLE001 - any parse failure is one issue
            report.note("bad-directory", bucket[0].header.address,
                        f"directory serial {serial:#x}: {exc}")
            continue
        for name, fid, address in entries:
            key = (fid.serial, fid.version)
            if key not in files:
                report.note("dangling-entry", None,
                            f"{name!r} names nonexistent serial {fid.serial:#x}")
            elif files[key].get(0) is None or files[key][0].header.address != address:
                report.note("stale-entry-hint", address,
                            f"{name!r} hint {address} is not the leader address")
    return report


def _read_descriptor(image, files, report) -> Optional[DiskDescriptor]:
    key = next(
        (k for k, bucket in files.items()
         if 0 in bucket and bucket[0].header.address == DESCRIPTOR_LEADER_ADDRESS),
        None,
    )
    if key is None:
        report.note("no-descriptor", DESCRIPTOR_LEADER_ADDRESS,
                    "no file's leader sits at the standard address")
        return None
    try:
        return DiskDescriptor.unpack(image.shape, bytes_to_words(_file_bytes(files[key])))
    except FileFormatError as exc:
        report.note("bad-descriptor", DESCRIPTOR_LEADER_ADDRESS, str(exc))
        return None


def _file_bytes(bucket) -> bytes:
    out = bytearray()
    last = max(bucket)
    for pn in range(1, last + 1):
        if pn not in bucket:
            break
        sector = bucket[pn]
        out += words_to_bytes(sector.value, nbytes=min(sector.label.length, FULL_PAGE))
    return bytes(out)


def _parse_directory_bytes(data: bytes):
    words = bytes_to_words(data)
    out = []
    for _offset, _length, entry in Directory._parse(words):
        if entry is not None:
            out.append((entry.name, entry.fid, entry.full_name.address))
    return out
