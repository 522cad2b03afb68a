"""Incremental scavenge/compaction: bounded slices, verified boundaries.

The offline tools own the pack for a full run; :class:`OnlineMaintenance`
must do the same repairs in budgeted slices *while the file system stays
live* -- so the tests check three things the offline suite cannot: that
work actually arrives in bounded pieces, that every boundary passes the
consistency check, and that a server interleaving slices with request
service corrupts nothing.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
from repro.disk import FaultPlan
from repro.disk.sector import Label
from repro.errors import ReproError
from repro.fs.descriptor import BOOT_PAGE_ADDRESS
from repro.fs.fsck import check_image
from repro.fs.online import (
    _CROSS_CHECK_EVERY,
    DEFAULT_BUDGET_US,
    MaintenanceInvariantError,
    OnlineMaintenance,
    PHASE_DONE,
    PHASE_SWEEP,
)
from repro.server.replica import apply_record

GARBAGE_LABEL = Label(serial=0x0042, version=1, page_number=1, length=0)


def build_fs(files=3, cylinders=8):
    fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk(cylinders))))
    for i in range(files):
        fs.create_file(f"f{i}.dat").write_data(bytes([i]) * (600 + 100 * i))
    return fs


def plant_garbage(fs, count=3):
    """Stamp in-use-but-unparseable labels on free sectors near the top."""
    image = fs.drive.image
    planted = []
    for address in range(image.shape.total_sectors() - 1, 1, -1):
        if len(planted) == count:
            break
        if address == BOOT_PAGE_ADDRESS or not fs.allocator.is_free(address):
            continue
        sector = image.sector(address)
        if not Label.unpack(sector.label_words()).is_free:
            continue
        sector.set_label_words(GARBAGE_LABEL.pack())
        planted.append(address)
    assert len(planted) == count
    return planted


def test_clean_pack_finishes_with_verified_boundaries():
    fs = build_fs()
    maint = OnlineMaintenance(fs)
    report = maint.run_to_completion()
    assert maint.phase == PHASE_DONE
    assert report.passes == 1
    assert report.slices == report.checks_passed   # every boundary verified
    assert report.sectors_audited == fs.drive.shape.total_sectors()
    assert not check_image(fs.drive.image).issues


def test_slices_are_time_bounded():
    fs = build_fs()
    maint = OnlineMaintenance(fs, budget_us=5_000)
    before = fs.drive.clock.now_us
    assert maint.step()
    elapsed = fs.drive.clock.now_us - before
    # One slice: the budget, plus at most one overshooting work unit and
    # the boundary flush -- never a whole-pack pause.
    assert elapsed < 20 * 5_000
    assert maint.report.slices == 1


def test_sweep_repairs_map_drift_in_both_directions():
    fs = build_fs()
    allocator = fs.allocator
    # A lost page: the map says busy, the label says free.
    lost = next(a for a in range(2, fs.drive.shape.total_sectors())
                if allocator.is_free(a) and a != BOOT_PAGE_ADDRESS)
    allocator.mark_busy(lost)
    # The other drift: the map says free, the label says in use.
    used = next(a for a in range(2, fs.drive.shape.total_sectors())
                if not allocator.is_free(a)
                and fs.drive.read_label(a).in_use)
    allocator.mark_free(used)
    report = OnlineMaintenance(fs).run_to_completion()
    assert report.map_freed >= 1
    assert report.map_busied >= 1
    assert allocator.is_free(lost)
    assert not allocator.is_free(used)


def test_sweep_frees_garbage_labels_and_tolerates_them_as_baseline():
    fs = build_fs()
    planted = plant_garbage(fs, count=3)
    assert any(i.kind == "garbage-label" for i in check_image(fs.drive.image).issues)
    # "garbage-label" is NOT in the tolerated kinds -- only the baseline
    # capture keeps the first boundary from declaring the patrol guilty
    # of damage it merely inherited.
    report = OnlineMaintenance(fs).run_to_completion()
    assert report.garbage_labels_freed == 3
    for address in planted:
        assert fs.allocator.is_free(address)
    assert not check_image(fs.drive.image).issues


def test_new_damage_past_the_baseline_is_fatal():
    fs = build_fs()
    maint = OnlineMaintenance(fs)
    assert maint.step()                       # baseline captured clean
    plant_garbage(fs, count=1)                # damage appears *after* it
    with pytest.raises(MaintenanceInvariantError):
        maint.run_to_completion()


def test_compaction_moves_pages_down_without_breaking_files():
    fs = build_fs(files=6)
    # Free the low end of the pack so the top has somewhere to go.
    for i in range(3):
        fs.delete_file(f"f{i}.dat")
    maint = OnlineMaintenance(fs)
    report = maint.run_to_completion()
    assert report.pages_moved > 0
    for i in range(3, 6):
        assert fs.open_file(f"f{i}.dat").read_data() == bytes([i]) * (600 + 100 * i)
    assert not check_image(fs.drive.image).issues


def test_continuous_patrol_restarts_after_done():
    fs = build_fs()
    maint = OnlineMaintenance(fs, continuous=True)
    slices = 0
    while maint.report.passes < 2:
        assert maint.step()                   # a patrol never reports done
        slices += 1
        assert slices < 10_000
    assert maint.report.passes == 2
    assert maint.report.sectors_audited >= 2 * fs.drive.shape.total_sectors()


def test_one_shot_maintenance_stays_done():
    fs = build_fs()
    maint = OnlineMaintenance(fs)
    maint.run_to_completion()
    assert maint.step() is False
    assert maint.report.passes == 1


def test_maintenance_interleaves_with_request_service():
    from repro.net import PacketNetwork
    from repro.server import FileClient, FileServer

    fs = build_fs(files=0)
    plant_garbage(fs, count=2)
    net = PacketNetwork(clock=fs.drive.clock)
    net.attach("fileserver")
    net.attach("ws")
    server = FileServer(fs, net)
    server.maintenance = OnlineMaintenance(fs)
    client = FileClient(net, "ws", pump=server.poll)
    # Requests are served while slices run between poll cycles.
    for i in range(4):
        client.write_file(f"live{i}.txt", bytes([0x40 + i]) * 900)
    while server.maintenance.step():
        pass
    for i in range(4):
        assert client.read_file(f"live{i}.txt") == bytes([0x40 + i]) * 900
    report = server.maintenance.report
    assert report.garbage_labels_freed == 2
    assert report.checks_passed > 0
    assert not check_image(fs.drive.image).issues


def test_maintenance_counters_count_verdicts_and_full_scans():
    fs = build_fs()
    maint = OnlineMaintenance(fs)
    report = maint.run_to_completion()
    stats = fs.drive.clock.obs.stats()
    assert stats["fs.maint.slice_checks"] == report.checks_passed == report.slices
    assert stats["fs.maint.full_checks"] == report.full_checks
    # Most slices of a pass read labels and write nothing: their boundary
    # reuses the last scan's verdict.
    assert 0 < report.full_checks < report.checks_passed


# ----------------------------------------------------------------------------
# Reused verdicts: the memo must always equal a fresh check_image
# ----------------------------------------------------------------------------

def _fatal(maint, report):
    return [issue for issue in report.issues
            if issue.kind not in maint.tolerated
            and (issue.kind, issue.address) not in maint._baseline]


def _assert_verdict_is_fresh(maint, raised):
    """The verdict the last boundary used equals a fresh full check."""
    fresh = check_image(maint.drive.image)
    verdict = maint._verdict
    assert Counter(verdict.issues) == Counter(fresh.issues)
    assert ((verdict.files, verdict.directories, verdict.free_pages,
             verdict.bad_pages)
            == (fresh.files, fresh.directories, fresh.free_pages,
                fresh.bad_pages))
    assert raised == bool(_fatal(maint, fresh))


_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["create", "write", "shrink", "delete"]),
              st.integers(0, 3), st.integers(0, 1500)),
    # corrupt: flip bit (y % 16) of label word (y % 7) at address x
    st.tuples(st.just("corrupt"), st.integers(0, 191), st.integers(0, 111)),
    st.tuples(st.just("step"), st.integers(1, 6), st.just(0)),
), max_size=25)


@settings(max_examples=30, deadline=None)
@given(ops=_OPS)
@example(ops=[("step", 2, 0), ("corrupt", 5, 14), ("step", 1, 0)])
def test_reused_verdict_always_equals_a_fresh_check(ops):
    """Random file operations and FaultPlan label corruptions interleaved
    with slices: after every step the maintainer's verdict -- reused or
    rescanned -- is exactly what a full check of the pack says now, and
    the step raised iff that check holds damage past the baseline."""
    fs = build_fs(files=2)
    image = fs.drive.image
    plan = FaultPlan(image, seed=0)
    maint = OnlineMaintenance(fs, continuous=True)
    for kind, x, y in ops:
        if kind == "step":
            for _ in range(x):
                try:
                    maint.step()
                    raised = False
                except MaintenanceInvariantError:
                    raised = True
                _assert_verdict_is_fresh(maint, raised)
                if raised:
                    return
        elif kind == "corrupt":
            plan.flip_bits(x, "label", y % 7, 1 << (y % 16))
        else:
            name = f"p{x}.dat"
            try:
                if kind == "create":
                    fs.create_file(name).write_data(bytes([x]) * y)
                elif kind == "write":
                    fs.open_file(name).write_data(bytes([y & 0xFF]) * y)
                elif kind == "shrink":
                    handle = fs.open_file(name)
                    handle.write_data(handle.read_data()[: y % 600])
                else:
                    fs.delete_file(name)
            except ReproError:
                pass  # missing file, full pack, or a corrupted neighbour


# ----------------------------------------------------------------------------
# Every route that changes a sector forces a rescan
# ----------------------------------------------------------------------------

def _garbage_via_sector(image, address):
    image.sector(address).set_label_words(GARBAGE_LABEL.pack())


def _garbage_via_set_sector(image, address):
    sector = image.peek(address).copy()
    sector.set_label_words(GARBAGE_LABEL.pack())
    image.set_sector(address, sector)


def _garbage_via_restore(image, address):
    snapshot = image.snapshot()
    snapshot.sector(address).set_label_words(GARBAGE_LABEL.pack())
    image.restore(snapshot)


def _garbage_via_replica_record(image, address):
    apply_record(image, address, "label", GARBAGE_LABEL.pack())


def _garbage_via_fault_plan(image, address):
    plan = FaultPlan(image, seed=0)
    old = image.peek(address).label_words()
    for word, (have, want) in enumerate(zip(old, GARBAGE_LABEL.pack())):
        plan.flip_bits(address, "label", word, have ^ want)


def _idle_patrol():
    """A maintainer two slices into its sweep (baseline captured, last
    verdict reused) and a free sector far above the sweep cursor."""
    fs = build_fs(cylinders=30)
    maint = OnlineMaintenance(fs)
    maint.step()
    maint.step()
    address = fs.drive.shape.total_sectors() - 2
    assert fs.drive.image.peek(address).label.is_free
    assert maint.report.full_checks == 1 and maint.report.checks_passed == 2
    return fs, maint, address


@pytest.mark.parametrize("route", [
    _garbage_via_sector,
    _garbage_via_set_sector,
    _garbage_via_restore,
    _garbage_via_replica_record,
    _garbage_via_fault_plan,
], ids=lambda route: route.__name__.replace("_garbage_via_", ""))
def test_every_mutation_route_forces_a_full_scan(route):
    fs, maint, address = _idle_patrol()
    route(fs.drive.image, address)
    with pytest.raises(MaintenanceInvariantError,
                       match=rf"slice 3\) is inconsistent: "
                             rf"\[garbage-label @{address}\]"):
        maint.step()
    assert maint.report.full_checks == 2


def test_a_write_the_generation_misses_fails_the_cross_check():
    fs, maint, address = _idle_patrol()
    image = fs.drive.image
    sector = image.peek(address).copy()
    sector.set_label_words(GARBAGE_LABEL.pack())
    image._sectors[address] = sector            # no accessor: generation misses it
    with pytest.raises(MaintenanceInvariantError, match="reused verdict is stale"):
        for _ in range(_CROSS_CHECK_EVERY):
            maint.step()
    assert maint.report.full_checks == 2        # only the audit rescanned
    assert maint.report.slices <= 2 + _CROSS_CHECK_EVERY
