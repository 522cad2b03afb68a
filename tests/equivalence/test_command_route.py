"""Each convenience command is exactly its ``transfer(PartCommand...)`` form.

The drive's nine convenience commands are shorthands for one per-part
sector command (section 3.3: "read, check or write actions independently
on each of these parts").  These tests replay the same scripted
operations on two identical drives -- one through the convenience command,
one through the equivalent ``transfer`` call -- and require the complete
observable record to match after every operation: return value or
exception type, the drive's counters (and the cache's, where there is
one), the simulated clock, the pack digest, and, with tracing on, every
recorded span with its arguments.

The grid covers the plain :class:`~repro.disk.drive.DiskDrive`, a
:class:`~repro.disk.cache.CachedDrive` with no cache and with a warm
128-sector cache, and the word-at-a-time reference drive, each with and
without a :class:`~repro.disk.faults.FaultPlan` (transient reads, an
exhausted retry budget, and a torn write that downs the machine).
"""

import pytest

from repro.disk import (
    Action,
    CachedDrive,
    DiskDrive,
    DiskImage,
    FaultPlan,
    MAX_READ_RETRIES,
    PartCommand,
    tiny_test_disk,
)
from repro.disk.sector import Header, Label
from repro.reference import make_reference_drive

SERIAL = 0x4000_0123
FILE_PAGES = 6  # addresses 1..6 hold pages 1..6 of one file


def page_label(page, serial=SERIAL, length=512):
    return Label(serial=serial, version=1, page_number=page, length=length,
                 next_link=page + 1 if page < FILE_PAGES else 0,
                 prev_link=page - 1)


def page_value(seed):
    return [(seed * 131 + i * 7) & 0xFFFF for i in range(256)]


#: Same serial and page, every other word a 0-wildcard.
WILDCARD = Label(serial=SERIAL, version=0, page_number=0, length=0,
                 next_link=0, prev_link=0)
WRONG = page_label(3, serial=0x4000_0999)

DRIVES = {
    "plain": lambda image, plan: DiskDrive(image, fault_injector=plan),
    "cached0": lambda image, plan: CachedDrive(image, fault_injector=plan,
                                               cache_sectors=0),
    "cached128": lambda image, plan: CachedDrive(image, fault_injector=plan,
                                                 cache_sectors=128),
    "reference": lambda image, plan: make_reference_drive(
        image, fault_injector=plan),
}

R = PartCommand(Action.READ)


def C(data):
    return PartCommand(Action.CHECK, data)


def W(data):
    return PartCommand(Action.WRITE, list(data))


def _result(r):
    return None if r is None else (r.header, r.label, r.value)


#: name -> (convenience call, transfer form, argument tuples).  Every call
#: returns something comparable; commands that return None stay None.
COMMANDS = {
    "read_sector": (
        lambda d, a: _result(d.read_sector(a)),
        lambda d, a: _result(d.transfer(a, header=R, label=R, value=R)),
        [(1,), (2,), (4,), (9,), (10**6,)],
    ),
    "read_label": (
        lambda d, a: d.read_label(a),
        lambda d, a: d.transfer(a, label=R).label_object(),
        [(1,), (4,), (9,), (-1,)],
    ),
    "read_label_value": (
        lambda d, a: _result(d.read_label_value(a)),
        lambda d, a: _result(d.transfer(a, label=R, value=R)),
        [(2,), (4,), (9,), (10**6,)],
    ),
    "check_label": (
        lambda d, a, e: _result(d.check_label(a, e)),
        lambda d, a, e: _result(d.transfer(a, label=C(e.pack()))),
        [(1, page_label(1)), (4, WILDCARD), (3, WRONG), (2, page_label(2)),
         (10**6, page_label(1))],
    ),
    "write_label_value": (
        lambda d, a, l, v: d.write_label_value(a, l, v),
        lambda d, a, l, v: (d.transfer(a, label=W(l.pack()),
                                       value=W(v)), None)[1],
        [(9, page_label(1, serial=0x4000_0777), page_value(90)),
         (4, page_label(4), page_value(91)),
         (5, page_label(5), [1, 2, 3]),
         (10**6, page_label(1), page_value(92))],
    ),
    "check_label_read_value": (
        lambda d, a, e: _result(d.check_label_read_value(a, e)),
        lambda d, a, e: _result(d.transfer(a, label=C(e.pack()), value=R)),
        [(1, page_label(1)), (4, WILDCARD), (2, WRONG), (3, page_label(3)),
         (10**6, page_label(1))],
    ),
    "check_label_write_value": (
        lambda d, a, e, v: _result(d.check_label_write_value(a, e, v)),
        lambda d, a, e, v: _result(d.transfer(a, label=C(e.pack()),
                                              value=W(v))),
        [(2, page_label(2), page_value(20)), (4, WILDCARD, page_value(21)),
         (3, WRONG, page_value(22)), (2, page_label(2), page_value(23)),
         (5, page_label(5), [7] * 3), (6, page_label(6), page_value(24))],
    ),
    "check_label_then_rewrite": (
        lambda d, a, e, n, v: d.check_label_then_rewrite(a, e, n, v),
        lambda d, a, e, n, v: _rewrite_by_transfer(d, a, e, n, v),
        [(4, page_label(4), page_label(4, length=100), None),
         (6, WILDCARD, Label.free(), page_value(60)),
         (3, WRONG, Label.free(), None),
         (2, page_label(2), page_label(2, length=7), None),
         (10**6, page_label(1), Label.free(), None)],
    ),
    "write_header_label_value": (
        lambda d, a, h, l, v: d.write_header_label_value(a, h, l, v),
        lambda d, a, h, l, v: (d.transfer(a, header=W(h.pack()),
                                          label=W(l.pack()),
                                          value=W(v)), None)[1],
        [(9, Header(1, 9), page_label(1, serial=0x4000_0555), page_value(9)),
         (4, Header(1, 4), page_label(4), page_value(44)),
         (7, Header(1, 7), Label.free(), [0] * 5),
         (10**6, Header(1, 0), Label.free(), page_value(1))],
    ),
}


def _rewrite_by_transfer(drive, address, expected, new_label, value):
    drive.transfer(address, label=C(expected.pack()))
    drive.transfer(address, label=W(new_label.pack()),
                   value=W(value if value is not None
                           else drive.current_value(address)))


def build(kind, faults, tracing):
    """A formatted pack holding one file, warmed the same way every time."""
    image = DiskImage(tiny_test_disk(cylinders=4))
    plan = FaultPlan(image, seed=17) if faults else None
    drive = DRIVES[kind](image, plan)
    if tracing:
        drive.clock.obs.enable_tracing()
    for page in range(1, FILE_PAGES + 1):
        drive.write_header_label_value(page, Header(1, page), page_label(page),
                                       page_value(page))
    # Warm the cache: pages 1-4 resident, page 2 with a buffered write.
    for page in range(1, 5):
        drive.check_label_read_value(page, page_label(page))
    drive.check_label_write_value(2, page_label(2), page_value(200))
    if plan is not None:
        plan.schedule_transient_reads(2, address=4)
        plan.schedule_transient_reads(MAX_READ_RETRIES + 1, address=9)
        plan.tear_at_write(plan.writes_seen + 4)
    return drive


def observe(call):
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - parity covers any exception
        return ("raise", type(exc).__name__)


def record(drive):
    """Everything a caller could observe about the drive after one op."""
    cache = drive.cache_counters() if isinstance(drive, CachedDrive) else None
    spans = [(s.name, s.category, s.args, s.start_us, s.end_us, s.depth)
             for s in drive.clock.obs.tracer.spans()]
    return (drive.stats.snapshot(), cache, drive.clock.now_us,
            drive.image.digest(), spans)


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("faults", [False, True], ids=["healthy", "faulted"])
@pytest.mark.parametrize("kind", sorted(DRIVES))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_equals_its_transfer_form(command, kind, faults, tracing):
    convenience, by_transfer, cases = COMMANDS[command]
    short, full = build(kind, faults, tracing), build(kind, faults, tracing)
    assert record(short) == record(full)
    for args in cases:
        got = observe(lambda: convenience(short, *args))
        want = observe(lambda: by_transfer(full, *args))
        assert got == want, (command, args)
        assert record(short) == record(full), (command, args)
