"""Identical command sequences through the fast drive and the reference drive.

:func:`repro.reference.make_reference_drive` builds a ``DiskDrive`` subclass
whose per-part loops are the original word-at-a-time forms (its overrides
switch off the drive's inlined part access).  These tests replay one script
on both and require the complete observable record to match: return
values, exception types and messages, counter snapshots, simulated
microseconds, and the pack digest.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.clock import SimClock
from repro.disk import DiskDrive, DiskImage, FaultPlan, tiny_test_disk
from repro.disk.sector import Label
from repro.errors import (
    LabelCheckError,
    SectorChecksumError,
    TornWriteError,
)
from repro.reference import make_reference_drive
from repro.words import WORD_MASK

#: The numpy_mode fixture just toggles a global flag -- identical for
#: every generated example -- so the function-scoped-fixture check is moot.
eq_settings = settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)


def make_pair(cylinders=6, fault_seed=None):
    """Two factory-fresh packs with their fast and reference drives."""
    pairs = []
    for build in (lambda img, plan: DiskDrive(img, fault_injector=plan),
                  lambda img, plan: make_reference_drive(img, fault_injector=plan)):
        image = DiskImage(tiny_test_disk(cylinders=cylinders))
        plan = FaultPlan(image, seed=fault_seed) if fault_seed is not None else None
        pairs.append(build(image, plan))
    return pairs


def observe(fn):
    """Run *fn*; capture (kind, value) where kind is 'ok' or 'raise'."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - parity includes any exception
        return ("raise", type(exc).__name__, str(exc))


def run_script(drive, script):
    """Replay *script* (a list of op tuples) and record every outcome."""
    outcomes = []
    for op in script:
        kind, args = op[0], op[1:]
        if kind == "write":
            address, label, value = args
            outcomes.append(observe(lambda: drive.write_label_value(address, label, value)))
        elif kind == "check_write":
            address, expected, value = args
            outcomes.append(observe(
                lambda: drive.check_label_write_value(address, expected, value)))
        elif kind == "check_rewrite":
            address, expected, new_label = args
            outcomes.append(observe(
                lambda: drive.check_label_then_rewrite(address, expected, new_label)))
        elif kind == "read":
            address, = args
            result = observe(lambda: drive.read_sector(address))
            if result[0] == "ok":
                r = result[1]
                result = ("ok", (r.header, r.label, tuple(r.value)))
            outcomes.append(result)
        elif kind == "read_label":
            address, = args
            outcomes.append(observe(lambda: drive.read_label(address)))
        elif kind == "check":
            address, expected = args
            result = observe(lambda: drive.check_label(address, expected))
            if result[0] == "ok":
                result = ("ok", tuple(result[1].label))
            outcomes.append(result)
        outcomes.append(drive.clock.now_us)
    return outcomes


def assert_identical(fast, reference, script):
    fast_record = run_script(fast, script)
    reference_record = run_script(reference, script)
    assert fast_record == reference_record
    assert fast.clock.now_us == reference.clock.now_us
    assert fast.stats.snapshot() == reference.stats.snapshot()
    assert fast.image.digest() == reference.image.digest()


def in_use_label(serial=0x1000, version=1, page=0, length=512, nl=WORD_MASK, pl=WORD_MASK):
    return Label(serial=serial, version=version, page_number=page,
                 length=length, next_link=nl, prev_link=pl)


class TestScriptedParity:
    def test_write_check_read_cycle(self, numpy_mode):
        fast, reference = make_pair()
        label = in_use_label()
        script = [
            ("write", 3, label, list(range(256))),
            ("check", 3, label),
            ("read", 3),
            ("check_write", 3, label, [WORD_MASK] * 256),
            ("check_rewrite", 3, label, in_use_label(version=2)),
            ("read_label", 3),
            ("read", 3),
        ]
        assert_identical(fast, reference, script)

    def test_failed_check_aborts_identically(self, numpy_mode):
        fast, reference = make_pair()
        label = in_use_label()
        wrong = in_use_label(serial=0x2000)
        script = [
            ("write", 5, label, [7] * 256),
            # Mismatched serial: LabelCheckError, and the scheduled write
            # after the check must not have happened on either drive.
            ("check_write", 5, wrong, [9] * 256),
            ("read", 5),
        ]
        assert_identical(fast, reference, script)
        assert fast.stats.label_check_failures == 1

    def test_wildcard_zero_matches_anything(self, numpy_mode):
        fast, reference = make_pair()
        label = in_use_label(serial=0x1234, version=5, page=3)
        wildcard = Label(serial=0, version=0, page_number=3,
                         length=0, next_link=0, prev_link=0)
        script = [
            ("write", 2, label, [1] * 256),
            ("check", 2, wildcard),
            ("check_write", 2, wildcard, [2] * 256),
            ("check_rewrite", 2, wildcard, in_use_label(version=6)),
            ("read", 2),
        ]
        assert_identical(fast, reference, script)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_arbitrary_scripts(self, numpy_mode, data):
        fast, reference = make_pair(cylinders=4)
        total = fast.shape.total_sectors()
        addresses = st.integers(min_value=0, max_value=total - 1)
        serials = st.sampled_from([0x1000, 0x2000, 0])  # 0: wildcard/free
        rng = random.Random(17)

        script = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            kind = data.draw(st.sampled_from(
                ["write", "check", "check_write", "read", "read_label"]))
            address = data.draw(addresses)
            label = Label(serial=data.draw(serials), version=data.draw(st.integers(0, 3)),
                          page_number=0, length=512,
                          next_link=WORD_MASK, prev_link=WORD_MASK)
            value = [rng.randrange(WORD_MASK + 1) for _ in range(256)]
            if kind == "write":
                script.append(("write", address, label, value))
            elif kind == "check":
                script.append(("check", address, label))
            elif kind == "check_write":
                script.append(("check_write", address, label, value))
            else:
                script.append((kind, address))
        assert_identical(fast, reference, script)


class TestFaultParity:
    def test_torn_write_and_checksum_bad_sector(self, numpy_mode):
        fast, reference = make_pair(fault_seed=1979)
        label = in_use_label()
        records = []
        for drive in (fast, reference):
            drive.write_label_value(1, label, [3] * 256)
            # Tear the next (3rd) part write: the label of the second
            # command lands, the value write is interrupted mid-sector.
            drive.fault_injector.tear_at_write(3)
            with pytest.raises(TornWriteError) as torn:
                drive.check_label_write_value(1, label, [4] * 256)
            drive.fault_injector.revive()
            # The torn part never got its checksum: reads fail until rewritten.
            with pytest.raises(SectorChecksumError):
                drive.read_sector(1)
            records.append((str(torn.value), drive.clock.now_us,
                            drive.stats.snapshot(), drive.image.digest(),
                            sorted(drive.image.checksum_bad)))
        assert records[0] == records[1]

    def test_transient_read_retries(self, numpy_mode):
        fast, reference = make_pair(fault_seed=7)
        label = in_use_label()
        records = []
        for drive in (fast, reference):
            drive.write_label_value(0, label, [1] * 256)
            drive.fault_injector.schedule_transient_reads(times=2)
            result = drive.read_sector(0)
            records.append((tuple(result.value), drive.clock.now_us,
                            drive.stats.snapshot(), drive.image.digest()))
        assert records[0] == records[1]
        assert records[0][2]["transient_read_errors"] == 2


class TestSharedClockParity:
    def test_reference_drive_with_explicit_clock(self, numpy_mode):
        # Both drives on caller-supplied clocks: parity must not depend on
        # the default-clock path.
        records = []
        for build in (DiskDrive, make_reference_drive):
            clock = SimClock()
            image = DiskImage(tiny_test_disk(cylinders=5))
            drive = build(image, clock)
            label = in_use_label()
            drive.write_label_value(4, label, list(range(256)))
            with pytest.raises(LabelCheckError):
                drive.check_label(4, in_use_label(serial=0x3000))
            records.append((clock.now_us, drive.image.digest(),
                            drive.stats.snapshot()))
        assert records[0] == records[1]
