"""The recovery-invariant checker itself (repro.fs.check).

The crash sweeps in tests/integration lean entirely on this module, so its
own primitives -- prefix consistency, file snapshots, the per-crash check,
and sweep determinism -- get pinned here first.
"""

from repro.fs import (
    Change,
    check_recovery,
    prefix_consistent,
    snapshot_files,
)
from repro.fs.check import SYSTEM_NAMES
from repro.words import PAGE_DATA_BYTES


PAGE = PAGE_DATA_BYTES  # 512


def pages(*fills_and_sizes):
    """Bytes built page-by-page: pages((b"a", 512), (b"b", 100)) etc."""
    return b"".join(fill * size for fill, size in fills_and_sizes)


class TestPrefixConsistent:
    def test_exact_matches(self):
        old, new = b"old contents", b"new contents, longer"
        assert prefix_consistent(old, old, new)
        assert prefix_consistent(new, old, new)
        assert prefix_consistent(b"", b"", new)

    def test_chunkwise_mix_of_old_and_new(self):
        old = pages((b"o", PAGE), (b"o", PAGE), (b"o", 100))
        new = pages((b"n", PAGE), (b"n", PAGE), (b"n", 300))
        # First page already new, rest still old: a legitimate crash state.
        assert prefix_consistent(new[:PAGE] + old[PAGE:], old, new)
        # Old first page, new tail: also reachable (pages land in any order
        # the file code issues them).
        assert prefix_consistent(old[:PAGE] + new[PAGE:], old, new)

    def test_zero_page_is_grown_but_unfilled(self):
        old = b""
        new = pages((b"n", PAGE), (b"n", 200))
        assert prefix_consistent(b"\x00" * PAGE + new[PAGE:], old, new)

    def test_garbage_chunk_rejected(self):
        old = pages((b"o", PAGE * 2))
        new = pages((b"n", PAGE * 2))
        assert not prefix_consistent(b"x" * PAGE + old[PAGE:], old, new)

    def test_overlong_rejected(self):
        old = b"o" * 100
        new = b"n" * 200
        too_long = new + b"\x00" * (PAGE + 1)
        assert not prefix_consistent(too_long, old, new)

    def test_none_means_absent(self):
        new = b"created from nothing"
        assert prefix_consistent(new, None, new)
        assert prefix_consistent(b"", None, new)
        # Deletion in flight: only the old contents are legitimate.
        old = b"being deleted"
        assert prefix_consistent(old, old, None)
        assert not prefix_consistent(b"something else!", old, None)


class TestSnapshotFiles:
    def test_snapshot_skips_system_names_and_directories(self, populated_fs):
        snap = snapshot_files(populated_fs)
        for system in SYSTEM_NAMES:
            assert system not in snap
        assert "Sub" not in snap  # directories are not file contents
        for name, payload in populated_fs.payloads.items():
            if name == "nested.txt":
                continue  # lives inside Sub, not at root
            assert snap[name] == payload


class TestCheckRecovery:
    def test_clean_pack_passes(self, populated_fs):
        before = snapshot_files(populated_fs)
        report = check_recovery(populated_fs.drive.image, before)
        assert report.ok, report.problems
        assert report.files_verified == len(before)
        assert report.files_in_flight == 0

    def test_detects_untouched_file_changed(self, populated_fs):
        before = snapshot_files(populated_fs)
        populated_fs.open_file("file00.dat").write_data(b"sneaky overwrite")
        populated_fs.sync()
        report = check_recovery(populated_fs.drive.image, before)
        assert not report.ok
        assert any("contents changed" in p for p in report.problems)

    def test_detects_untouched_file_lost(self, populated_fs):
        before = snapshot_files(populated_fs)
        populated_fs.delete_file("file01.dat")
        populated_fs.sync()
        report = check_recovery(populated_fs.drive.image, before)
        assert not report.ok
        assert any("unreachable" in p for p in report.problems)

    def test_in_flight_change_tolerated(self, populated_fs):
        before = snapshot_files(populated_fs)
        old = before["file02.dat"]
        populated_fs.open_file("file02.dat").write_data(b"mid-rewrite!")
        populated_fs.sync()
        changes = {"file02.dat": Change(before=old, after=b"mid-rewrite!")}
        report = check_recovery(populated_fs.drive.image, before, changes)
        assert report.ok, report.problems
        assert report.files_in_flight == 1

    def test_rename_found_under_either_name(self, populated_fs):
        before = snapshot_files(populated_fs)
        old = before["file04.dat"]
        populated_fs.rename_file("file04.dat", "moved.dat")
        populated_fs.sync()
        changes = {
            "file04.dat": Change(before=old, after=old, renamed_to="moved.dat")
        }
        report = check_recovery(populated_fs.drive.image, before, changes)
        assert report.ok, report.problems


class TestSweepDeterminism:
    def test_small_sweep_is_deterministic(self, crash_sweeper):
        points = [5, 20, 35]
        first = crash_sweeper(points=points)
        second = crash_sweeper(points=points)
        assert first.total_writes == second.total_writes
        assert [r.crash_reason for r in first.reports] == [
            r.crash_reason for r in second.reports
        ]
        assert [r.problems for r in first.reports] == [
            r.problems for r in second.reports
        ]
        assert first.ok and second.ok
