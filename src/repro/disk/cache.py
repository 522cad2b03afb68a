"""A write-back sector cache above the policy-free drive.

The paper's drive (section 3.3) executes one label-checked command per
revolution-ride; every layer above it pays raw per-sector latency.  This
module adds the classic buffer-cache layer between ``repro.fs`` and the
drive: recently used sectors are kept in memory, ordinary data writes are
buffered and written back in elevator order through a
:class:`~repro.disk.scheduler.RequestScheduler`, and repeated reads of a
working set cost memory time instead of revolutions.

The crash guarantees of sections 3.3-3.5 rest on the *order* in which
labels reach the platter: a page's label (its absolute identity) commits
before or together with the data it guards, and the allocate / free /
change-length label rewrites happen in program order.  The cache preserves
that discipline by construction:

* **Label writes are never deferred.**  Any command that writes a header or
  label -- claim, free, change-length, format, scavenger repair -- goes
  straight through to the drive, in program order, exactly as without the
  cache.  (The hardware's write-continuation rule means such a command
  always carries its value too, so the data a label guards lands with it.)
* **Only ordinary data writes are buffered** (the section 3.3 "label is
  checked, at no cost in time" single-pass write).  Reordering those among
  themselves is harmless: losing one in a crash leaves the page's previous
  contents under an unchanged label, one of the states an uncrashed
  execution could also have produced -- the scavenger and the
  prefix-consistency invariant of :mod:`repro.fs.check` already cover it.
* **The cache itself is a hint.**  Every cached label is re-checked against
  the caller's expectation in memory with the hardware's exact wildcard
  semantics; a failed check on a clean entry drops the entry and retries
  against the platter, which remains the only absolute truth.

A flush writes ``CHECK(cached label) + WRITE(value)`` -- the same one-pass
guarded write the uncached path would have issued, so a stale or corrupted
platter can never be silently overwritten.

Coherency is per-drive: all traffic through one ``CachedDrive`` sees its
own buffered writes.  A second drive on the same image (a scavenger after a
crash, a foreign mount) must flush-and-invalidate first -- which
:class:`~repro.fs.scavenger.Scavenger` does, and which a crash does for
free (the buffer dies with the machine; only the platter survives).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from ..clock import SimClock
from ..obs import CounterAttr, MetricsRegistry
from ..errors import CheckError, LabelCheckError, PowerFailure
from .drive import (MAX_READ_RETRIES, Action, DiskDrive, PartCommand,
                    TransferResult, _flatten_parts)
from .image import DiskImage
from .scheduler import RequestScheduler
from .sector import VALUE_WORDS

#: Default cache size in sectors.  128 sectors is 32k data words plus
#: bookkeeping -- half the real machine's memory, the upper end of what a
#: resident buffer pool could plausibly have claimed.
DEFAULT_CACHE_SECTORS = 128

#: Simulated cost of serving one command from memory: a few hundred
#: word-moves at the machine's 800 ns memory cycle.
CACHE_HIT_US = 200

#: Clock tally category for time spent in cache hits.
CACHE = "disk.cache"


class CacheEntry:
    """One cached sector: whatever parts have been seen, plus dirt and pins."""

    __slots__ = ("header", "label", "value", "dirty", "pins")

    def __init__(self) -> None:
        self.header: Optional[List[int]] = None
        self.label: Optional[List[int]] = None
        self.value: Optional[List[int]] = None
        self.dirty = False
        self.pins = 0

    def has(self, part: str) -> bool:
        return getattr(self, part) is not None


class CacheStats:
    """Hit/miss/flush counters (benchmarks report these).

    A thin view over ``disk.cache.*`` counters in a per-cache
    :class:`~repro.obs.MetricsRegistry`, rolled up into the clock-level
    registry so ``python -m repro stats`` sees them alongside everything
    else.
    """

    _FIELDS = ("hits", "misses", "deferred_writes", "write_through",
               "flushes", "evictions", "invalidations", "cancelled_writes",
               "overflows")

    hits = CounterAttr("disk.cache.hits")
    misses = CounterAttr("disk.cache.misses")
    deferred_writes = CounterAttr("disk.cache.deferred_writes")
    write_through = CounterAttr("disk.cache.write_through")  # structural pass-downs
    flushes = CounterAttr("disk.cache.flushes")
    evictions = CounterAttr("disk.cache.evictions")
    invalidations = CounterAttr("disk.cache.invalidations")
    cancelled_writes = CounterAttr("disk.cache.cancelled_writes")  # superseded
    overflows = CounterAttr("disk.cache.overflows")  # pins forced past capacity

    def __init__(self, parent: Optional[MetricsRegistry] = None) -> None:
        self.registry = MetricsRegistry(parent=parent)
        for field in self._FIELDS:
            self.registry.counter(type(self).__dict__[field].metric)

    def hit_rate(self) -> float:
        served = self.hits + self.misses
        return self.hits / served if served else 0.0

    def snapshot(self) -> dict:
        out = {field: getattr(self, field) for field in self._FIELDS}
        out["hit_rate"] = self.hit_rate()
        return out


class CachedDrive(DiskDrive):
    """A drive with an LRU write-back sector cache and an elevator queue.

    Drop-in for :class:`~repro.disk.drive.DiskDrive`: the whole per-part
    command interface works unchanged, ``stats`` still counts real disk
    commands only, and with ``cache_sectors=0`` every command passes
    through untouched.  ``flush()`` drains the dirty queue in elevator
    order; :meth:`repro.fs.filesystem.FileSystem.sync` calls it.
    """

    def __init__(
        self,
        image: DiskImage,
        clock: Optional[SimClock] = None,
        fault_injector=None,
        max_read_retries: int = MAX_READ_RETRIES,
        cache_sectors: int = DEFAULT_CACHE_SECTORS,
        hit_cost_us: int = CACHE_HIT_US,
    ) -> None:
        super().__init__(image, clock, fault_injector, max_read_retries)
        self.cache_sectors = cache_sectors
        self.hit_cost_us = hit_cost_us
        self.cache_stats = CacheStats(parent=self.clock.obs.registry)
        self.scheduler = RequestScheduler(
            image.shape, parent_registry=self.clock.obs.registry)
        self._drain_hist = self.cache_stats.registry.histogram(
            "disk.cache.drain_sectors")
        self._entries: "OrderedDict[int, CacheEntry]" = OrderedDict()

    # ------------------------------------------------------------------------
    # The command choke point
    # ------------------------------------------------------------------------

    def transfer(
        self,
        address: int,
        header: PartCommand = None,
        label: PartCommand = None,
        value: PartCommand = None,
    ) -> TransferResult:
        """One sector command: served from memory, buffered for write-back,
        or passed down to the platter (the rules are in the module
        docstring)."""
        parts = _flatten_parts(header, label, value)
        self.shape.check_address(address)
        if self.cache_sectors <= 0:
            return self._pass_through(address, parts)
        if not parts or parts[-1][1] is not Action.WRITE:
            return self._read(address, parts)
        # A write runs on through the value, so a write before the value
        # means the header or label is written too.
        if len(parts) > 1 and parts[-2][1] is Action.WRITE:
            return self._structural(address, parts)
        if parts[0][0] == "header":
            return self._pass_through(address, parts)
        return self._deferred_write(address, parts)

    def _command(self, address: int, parts) -> TransferResult:
        """Convenience commands enter through :meth:`transfer` too: it is
        the cache's one choke point."""
        commands = {}
        for part, action, data in parts:
            commands[part] = PartCommand(action, data)
        return self.transfer(address, **commands)

    # ------------------------------------------------------------------------
    # Write-through: label-path commands
    # ------------------------------------------------------------------------

    def _structural(self, address: int, parts) -> TransferResult:
        """A command that writes a header or label: the crash discipline
        lives here, so it goes to the platter now, in program order.

        The write-continuation rule guarantees the command also writes the
        value, so any buffered data write for this sector is superseded --
        cancelled, not flushed (flushing first would write data the very
        next pass overwrites, a pass the uncached path never made).
        """
        entry = self._entries.get(address)
        if entry is not None and entry.dirty:
            entry.dirty = False
            self.scheduler.discard(address)
            self.cache_stats.cancelled_writes += 1
        self.cache_stats.write_through += 1
        return self._pass_through(address, parts)

    def _pass_through(self, address: int, parts) -> TransferResult:
        """Issue the command on the real drive, then refresh the cache from
        what the platter now provably holds."""
        result = DiskDrive._command(self, address, parts)
        if self.cache_sectors > 0:
            self._install(address, parts, result)
        return result

    # ------------------------------------------------------------------------
    # Write-back: ordinary data writes
    # ------------------------------------------------------------------------

    def _deferred_write(self, address: int, parts) -> TransferResult:
        """The section 3.3 single-pass guarded data write, buffered.

        The label check runs now, in memory, against the cached label; the
        data lands in the entry and is queued for write-back.  The flush
        re-issues the same guarded one-pass write, so nothing is ever
        written to the platter unchecked.
        """
        self._require_uncrashed()
        entry = self._entries.get(address)
        if (
            entry is None
            or entry.label is None
            or address in self.image.bad_media
            or (address, "label") in self.image.checksum_bad
        ):
            # Cold (or suspect) sector: the first write costs the same
            # guarded pass it would cost uncached, and warms the cache.
            return self._pass_through(address, parts)
        self._touch(address)
        result = TransferResult()
        *label_part, (_, _, data) = parts  # no header; the label, if any
        if label_part and label_part[0][1] is Action.CHECK:
            try:
                result.label = self._check_part(address, "label", label_part[0][2], entry.label)
            except (LabelCheckError, CheckError):
                if entry.dirty:
                    raise  # buffered data under a label we no longer trust
                self._drop(address)  # the cache was the stale hint; ask the platter
                return self._pass_through(address, parts)
        if len(data) != VALUE_WORDS:
            raise ValueError(f"value write buffer must be {VALUE_WORDS} words")
        entry.value = list(data)
        if not entry.dirty:
            entry.dirty = True
        self.scheduler.enqueue(address)
        self.cache_stats.deferred_writes += 1
        self.cache_stats.hits += 1
        with self.clock.obs.span("disk.cache.hit", "disk",
                                 address=address, op="write"):
            self.clock.advance_us(self.hit_cost_us, CACHE)
        return result

    # ------------------------------------------------------------------------
    # Reads and checks
    # ------------------------------------------------------------------------

    def _read(self, address: int, parts) -> TransferResult:
        needed = [part for part, _, _ in parts]
        entry = self._entries.get(address)
        servable = (
            entry is not None
            and all(entry.has(part) for part in needed)
            and address not in self.image.bad_media
            and not any((address, part) in self.image.checksum_bad for part in needed)
        )
        if not servable:
            if entry is not None and entry.dirty:
                # Never read around a buffered write: the platter copy is
                # stale until the entry is written back.
                self.flush_address(address)
            self.cache_stats.misses += 1
            return self._pass_through(address, parts)
        self._require_uncrashed()
        self._touch(address)
        result = TransferResult()
        for part, action, data in parts:
            cached = getattr(entry, part)
            if action is Action.READ:
                setattr(result, part, list(cached))
            else:  # CHECK, with the hardware's exact wildcard semantics
                try:
                    effective = self._check_part(address, part, data, cached)
                except (LabelCheckError, CheckError):
                    if entry.dirty:
                        raise
                    self._drop(address)
                    self.cache_stats.misses += 1
                    return self._pass_through(address, parts)
                setattr(result, part, effective)
        self.cache_stats.hits += 1
        with self.clock.obs.span("disk.cache.hit", "disk",
                                 address=address, op="read"):
            self.clock.advance_us(self.hit_cost_us, CACHE)
        return result

    # ------------------------------------------------------------------------
    # Flushing (write-back through the elevator)
    # ------------------------------------------------------------------------

    def flush(self) -> int:
        """Write back every dirty sector, serviced in elevator order.

        Returns the number of sectors written.  A failure (power, torn
        write, check mismatch) propagates with the unserviced tail still
        queued -- exactly the state a crashed controller leaves behind.
        """
        flushed = 0
        with self.clock.obs.span("disk.cache.flush", "disk") as span:
            while True:
                address = self.scheduler.next_address(self.timer.cylinder)
                if address is None:
                    break
                self.flush_address(address)
                flushed += 1
            span.annotate(drained=flushed)
        self._drain_hist.observe(flushed)
        return flushed

    def flush_address(self, address: int) -> None:
        """Write back one sector now (no-op if it is not dirty)."""
        entry = self._entries.get(address)
        if entry is None or not entry.dirty:
            self.scheduler.discard(address)
            return
        DiskDrive._command(self, address, (
            ("label", Action.CHECK, list(entry.label)),
            ("value", Action.WRITE, list(entry.value)),
        ))
        entry.dirty = False
        self.scheduler.mark_serviced(address)
        self.cache_stats.flushes += 1

    def dirty_addresses(self) -> List[int]:
        return self.scheduler.pending()

    # ------------------------------------------------------------------------
    # Pinning and invalidation
    # ------------------------------------------------------------------------

    def pin(self, address: int) -> None:
        """Exempt a sector from eviction (refcounted).  Hot singletons --
        the disk descriptor leader, the root directory -- stay resident."""
        self.shape.check_address(address)
        entry = self._entries.get(address)
        if entry is None:
            entry = self._insert(address)
        entry.pins += 1

    def unpin(self, address: int) -> None:
        entry = self._entries.get(address)
        if entry is not None and entry.pins > 0:
            entry.pins -= 1

    def invalidate(self, address: int) -> None:
        """Drop a sector from the cache, buffered data and all.

        For sectors whose contents became moot (a freed page) or whose
        cached copy is suspected stale (a hint-failure retry path).
        """
        if self._drop(address):
            self.cache_stats.invalidations += 1

    def invalidate_all(self) -> None:
        """Drop everything, *including unflushed writes* -- what a power
        failure does.  Live callers wanting durability flush first (see
        :meth:`flush_and_invalidate`).  Pin counts survive as empty
        placeholders: pinning is a residency promise, not cached data."""
        self.cache_stats.invalidations += len(self._entries)
        pinned = {a: e.pins for a, e in self._entries.items() if e.pins > 0}
        self._entries.clear()
        for address, pins in pinned.items():
            placeholder = CacheEntry()
            placeholder.pins = pins
            self._entries[address] = placeholder
        for address in self.scheduler.pending():
            self.scheduler.discard(address)

    def flush_and_invalidate(self) -> None:
        """Make the platter absolute again: write everything back, then
        forget it.  The scavenger calls this before sweeping."""
        self.flush()
        self.invalidate_all()

    # ------------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------------

    def cached_sectors(self) -> int:
        return len(self._entries)

    def cache_counters(self) -> Dict[str, object]:
        """Cache + scheduler counters in one dict (for benchmarks/JSON)."""
        out = {f"cache_{k}": v for k, v in self.cache_stats.snapshot().items()}
        out.update({f"queue_{k}": v for k, v in self.scheduler.stats.snapshot().items()})
        out["cached_sectors"] = len(self._entries)
        return out

    # ------------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------------

    def _require_uncrashed(self) -> None:
        """Memory-served commands must still die with the machine."""
        injector = self.fault_injector
        if injector is not None and getattr(injector, "crashed", False):
            raise PowerFailure(
                f"machine is down ({injector.crash_reason}); revive() to reboot"
            )

    def _touch(self, address: int) -> None:
        self._entries.move_to_end(address)

    def _drop(self, address: int) -> bool:
        """Forget a sector's cached parts; a pin survives as a placeholder."""
        entry = self._entries.pop(address, None)
        self.scheduler.discard(address)
        if entry is not None and entry.pins > 0:
            placeholder = CacheEntry()
            placeholder.pins = entry.pins
            self._entries[address] = placeholder
        return entry is not None

    def _insert(self, address: int) -> CacheEntry:
        entry = self._entries.get(address)
        if entry is not None:
            self._touch(address)
            return entry
        # Evict down to capacity (pins may have held us above it earlier).
        while len(self._entries) >= self.cache_sectors:
            if not self._evict_one():
                break
        entry = CacheEntry()
        self._entries[address] = entry
        return entry

    def _evict_one(self) -> bool:
        """Evict the least recently used unpinned entry, flushing it first
        if dirty.  All pinned: grow past capacity rather than deadlock."""
        for address, entry in self._entries.items():
            if entry.pins == 0:
                if entry.dirty:
                    self.flush_address(address)
                del self._entries[address]
                self.scheduler.discard(address)
                self.cache_stats.evictions += 1
                return True
        self.cache_stats.overflows += 1
        return False

    def _install(self, address: int, parts, result: TransferResult) -> None:
        """Refresh the cache from a completed disk command: READ/CHECK
        parts from the transfer result, written parts from the platter."""
        entry = self._insert(address)
        wrote = False
        for part, action, _ in parts:
            if action is Action.WRITE:
                wrote = True
                setattr(entry, part, self._platter_words(address, part))
            else:
                setattr(entry, part, list(getattr(result, part)))
        if wrote:
            entry.dirty = False
            self.scheduler.discard(address)

    def _platter_words(self, address: int, part: str) -> List[int]:
        """A fresh copy of a part's packed words straight from the platter
        (the cache entry owns its lists, so it must not alias the sector's)."""
        sector = self.image.peek(address)
        if part == "header":
            return list(sector.header_words())
        if part == "label":
            return list(sector.label_words())
        return list(sector.value)

    # ------------------------------------------------------------------------
    # The current-value hook (see DiskDrive.current_value)
    # ------------------------------------------------------------------------

    def current_value(self, address: int) -> List[int]:
        """The logically current data words: buffered copy if one is
        pending, else the platter."""
        entry = self._entries.get(address)
        if entry is not None and entry.dirty and entry.value is not None:
            return list(entry.value)
        return list(self.image.peek(address).value)
