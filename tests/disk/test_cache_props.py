"""Properties of the write-back sector cache at the drive-command level.

The contract under test: a :class:`CachedDrive` is observationally
equivalent to a plain :class:`DiskDrive` -- every command returns the same
result, and after ``flush()`` the platter is byte-identical -- while
serving repeated traffic from memory.  Hypothesis drives random command
interleavings; a stateful machine exercises the LRU/pinning/dirty
machinery against a model.
"""

import pytest

from repro.disk import (
    Action,
    CachedDrive,
    DiskDrive,
    DiskImage,
    Label,
    PartCommand,
    RequestScheduler,
    tiny_test_disk,
)
from repro.disk.sector import VALUE_WORDS
from repro.errors import LabelCheckError

try:
    from hypothesis import given, settings, strategies as st
    from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")

ADDRESSES = list(range(24))
SERIAL = 0x4000_0001


def page_label(idx: int, length: int = 512) -> Label:
    return Label(serial=SERIAL, version=1, page_number=idx + 1, length=length)


def value_for(seed: int):
    return [(seed * 7 + i) & 0xFFFF for i in range(VALUE_WORDS)]


# An op is (kind, address-index, seed); the interpreter below applies it to
# any drive, tracking claimed-ness itself so both drives see the same ops.
op_strategy = st.tuples(
    st.sampled_from(["claim", "write", "read", "check_read", "relabel", "free"]),
    st.sampled_from(range(len(ADDRESSES))),
    st.integers(min_value=0, max_value=999),
)


def apply_ops(drive, ops):
    """Run the op list; returns (observations, claimed-set)."""
    claimed = {}
    observations = []
    for kind, idx, seed in ops:
        address = ADDRESSES[idx]
        if kind == "claim" and idx not in claimed:
            drive.check_label_then_rewrite(
                address, Label.free(), page_label(idx), value_for(seed)
            )
            claimed[idx] = page_label(idx)
        elif kind == "write" and idx in claimed:
            drive.check_label_write_value(address, claimed[idx], value_for(seed))
        elif kind == "read" and idx in claimed:
            result = drive.check_label_read_value(address, claimed[idx])
            observations.append((kind, idx, tuple(result.value)))
        elif kind == "check_read" and idx in claimed:
            # Wildcard check: zeros match anything; yields the true label.
            wildcard = [SERIAL >> 16, SERIAL & 0xFFFF, 0, 0, 0, 0, 0]
            result = drive.transfer(address, label=PartCommand(Action.CHECK, wildcard))
            observations.append((kind, idx, tuple(result.label)))
        elif kind == "relabel" and idx in claimed:
            new = page_label(idx, length=seed % 513)
            drive.check_label_then_rewrite(address, claimed[idx], new)
            claimed[idx] = new
        elif kind == "free" and idx in claimed:
            from repro.words import ones_words

            drive.check_label_then_rewrite(
                address, claimed[idx], Label.free(), ones_words(VALUE_WORDS)
            )
            del claimed[idx]
    return observations, claimed


def images_identical(a: DiskImage, b: DiskImage) -> bool:
    return all(
        s1.header.pack() == s2.header.pack()
        and s1.label.pack() == s2.label.pack()
        and list(s1.value) == list(s2.value)
        for s1, s2 in zip(a.sectors(), b.sectors())
    )


class TestCommandEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(op_strategy, min_size=1, max_size=40),
           capacity=st.sampled_from([0, 2, 5, 128]))
    def test_cached_drive_observationally_equals_plain(self, ops, capacity):
        """Same commands, same results; after flush(), same platter --
        at every cache size including pathologically small and off."""
        plain_image = DiskImage(tiny_test_disk())
        cached_image = DiskImage(tiny_test_disk())
        plain = DiskDrive(plain_image)
        cached = CachedDrive(cached_image, cache_sectors=capacity)

        plain_obs, _ = apply_ops(plain, ops)
        cached_obs, _ = apply_ops(cached, ops)
        assert plain_obs == cached_obs

        cached.flush()
        assert images_identical(plain_image, cached_image)
        assert len(cached.scheduler) == 0

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(op_strategy, min_size=1, max_size=30))
    def test_cached_drive_never_writes_more_label_commands(self, ops):
        """Label writes are write-through, never amplified: the cached run
        issues exactly the label writes the plain run issues."""
        plain = DiskDrive(DiskImage(tiny_test_disk()))
        cached = CachedDrive(DiskImage(tiny_test_disk()))
        apply_ops(plain, ops)
        apply_ops(cached, ops)
        cached.flush()
        assert cached.stats.label_writes == plain.stats.label_writes
        assert cached.stats.value_writes <= plain.stats.value_writes
        assert cached.clock.now_us <= plain.clock.now_us

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(op_strategy, min_size=1, max_size=30),
           seed=st.integers(min_value=0, max_value=999))
    def test_current_value_tracks_buffered_writes(self, ops, seed):
        drive = CachedDrive(DiskImage(tiny_test_disk()))
        _, claimed = apply_ops(drive, ops)
        for idx, label in claimed.items():
            address = ADDRESSES[idx]
            drive.check_label_write_value(address, label, value_for(seed))
            assert drive.current_value(address) == value_for(seed)
        drive.flush()
        for idx in claimed:
            address = ADDRESSES[idx]
            assert drive.current_value(address) == list(
                drive.image.sector(address).value
            )


class CacheMachine(RuleBasedStateMachine):
    """Eviction/pinning state machine against a shadow model.

    The model is the logical content of each claimed sector (what a read
    must return) plus the pin ledger; the invariants pin down the LRU
    bookkeeping: capacity is respected modulo pins, dirty entries and the
    elevator queue agree, pinned sectors survive any amount of traffic.
    """

    CAPACITY = 4

    def __init__(self):
        super().__init__()
        self.drive = CachedDrive(
            DiskImage(tiny_test_disk()), cache_sectors=self.CAPACITY
        )
        self.labels = {}
        self.contents = {}
        self.pins = {}

    @rule(idx=st.sampled_from(range(12)))
    def claim(self, idx):
        if idx in self.labels:
            return
        self.drive.check_label_then_rewrite(
            ADDRESSES[idx], Label.free(), page_label(idx), value_for(idx)
        )
        self.labels[idx] = page_label(idx)
        self.contents[idx] = value_for(idx)

    @rule(idx=st.sampled_from(range(12)), seed=st.integers(0, 999))
    def write(self, idx, seed):
        if idx not in self.labels:
            return
        self.drive.check_label_write_value(
            ADDRESSES[idx], self.labels[idx], value_for(seed)
        )
        self.contents[idx] = value_for(seed)

    @rule(idx=st.sampled_from(range(12)))
    def read(self, idx):
        if idx not in self.labels:
            return
        result = self.drive.check_label_read_value(ADDRESSES[idx], self.labels[idx])
        assert list(result.value) == self.contents[idx]

    @rule(idx=st.sampled_from(range(12)))
    def pin(self, idx):
        self.drive.pin(ADDRESSES[idx])
        self.pins[idx] = self.pins.get(idx, 0) + 1

    @rule(idx=st.sampled_from(range(12)))
    def unpin(self, idx):
        self.drive.unpin(ADDRESSES[idx])
        self.pins[idx] = max(0, self.pins.get(idx, 0) - 1)

    @rule()
    def flush(self):
        self.drive.flush()
        assert len(self.drive.scheduler) == 0

    @rule(idx=st.sampled_from(range(12)))
    def invalidate_clean(self, idx):
        # Only model-safe invalidation: flush first so no write is lost.
        self.drive.flush()
        self.drive.invalidate(ADDRESSES[idx])

    @invariant()
    def reads_always_see_the_model(self):
        for idx, label in self.labels.items():
            result = self.drive.check_label_read_value(ADDRESSES[idx], label)
            assert list(result.value) == self.contents[idx], f"sector {idx}"

    @invariant()
    def dirty_set_equals_elevator_queue(self):
        dirty = {
            address
            for address, entry in self.drive._entries.items()
            if entry.dirty
        }
        assert dirty == set(self.drive.scheduler.pending())

    @invariant()
    def capacity_respected_modulo_pins(self):
        # Pins can force the cache past capacity (it grows rather than
        # deadlocks), but never by more than one unpinned entry beyond the
        # peak pinned population; absent pin pressure it stays at CAPACITY.
        pinned = sum(
            1 for e in self.drive._entries.values() if e.pins > 0
        )
        self.max_pinned = max(getattr(self, "max_pinned", 0), pinned)
        assert self.drive.cached_sectors() <= max(
            self.CAPACITY, self.max_pinned + 1
        )

    @invariant()
    def pin_ledger_matches(self):
        for idx, count in self.pins.items():
            if count > 0:
                entry = self.drive._entries.get(ADDRESSES[idx])
                assert entry is not None and entry.pins == count


CacheMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)
TestCacheMachine = CacheMachine.TestCase


class TestScheduler:
    @settings(max_examples=50, deadline=None)
    @given(addresses=st.lists(st.integers(0, 719), unique=True, min_size=1, max_size=40),
           start=st.integers(0, 29))
    def test_elevator_services_everything_exactly_once(self, addresses, start):
        shape = tiny_test_disk(cylinders=30)
        scheduler = RequestScheduler(shape)
        for address in addresses:
            scheduler.enqueue(address)
        order = []
        cylinder = start
        while True:
            nxt = scheduler.next_address(cylinder)
            if nxt is None:
                break
            order.append(nxt)
            cylinder, _, _ = shape.decompose(nxt)
            scheduler.mark_serviced(nxt)
        assert sorted(order) == sorted(addresses)
        assert scheduler.stats.serviced == len(addresses)

    @settings(max_examples=50, deadline=None)
    @given(addresses=st.lists(st.integers(0, 719), unique=True, min_size=2, max_size=40),
           start=st.integers(0, 29))
    def test_elevator_never_reverses_mid_sweep(self, addresses, start):
        """Cylinder deltas change sign at most once per direction reversal,
        and reversals only happen when nothing lies ahead -- SCAN, not
        shortest-seek starvation."""
        shape = tiny_test_disk(cylinders=30)
        scheduler = RequestScheduler(shape)
        for address in addresses:
            scheduler.enqueue(address)
        cylinder = start
        reversals = 0
        direction = 1  # the scheduler starts ascending
        while True:
            nxt = scheduler.next_address(cylinder)
            if nxt is None:
                break
            target, _, _ = shape.decompose(nxt)
            delta = target - cylinder
            if delta * direction < 0:
                reversals += 1
                direction = -direction
            cylinder = target
            scheduler.mark_serviced(nxt)
        assert reversals <= 1 + scheduler.stats.sweeps


class TestStaleCleanEntries:
    def test_stale_clean_entry_is_dropped_and_platter_wins(self):
        """A second writer mutates the platter beneath the cache; the next
        guarded command whose check disagrees with the stale copy must fall
        through to the platter, not fail from memory (the cache is a
        hint)."""
        image = DiskImage(tiny_test_disk())
        cached = CachedDrive(image)
        cached.check_label_then_rewrite(5, Label.free(), page_label(5), value_for(1))
        cached.check_label_read_value(5, page_label(5))  # warms a clean entry

        # A foreign (uncached) writer relabels the sector directly.
        foreign = DiskDrive(image, clock=cached.clock)
        new_label = page_label(5, length=100)
        foreign.check_label_then_rewrite(5, page_label(5), new_label, value_for(2))

        # Checking against the NEW label fails on the stale cached copy,
        # drops it, and succeeds against the platter.
        result = cached.check_label_read_value(5, new_label)
        assert list(result.value) == value_for(2)

        # Checking against the OLD label now fails for real.
        with pytest.raises(LabelCheckError):
            cached.check_label_read_value(5, page_label(5))


class TestReadAroundBufferedWrite:
    def test_full_sector_read_returns_the_buffered_value(self):
        """A read the cache cannot serve (here: the header was never
        cached) must not go around a buffered write: the platter copy is
        stale until the entry is written back, and the buffered data must
        survive the read."""
        image = DiskImage(tiny_test_disk())
        cached = CachedDrive(image)
        cached.check_label_then_rewrite(5, Label.free(), page_label(5), value_for(1))
        cached.check_label_write_value(5, page_label(5), value_for(2))  # buffered
        assert list(cached.read_sector(5).value) == value_for(2)
        cached.flush()
        assert list(image.peek(5).value) == value_for(2)
