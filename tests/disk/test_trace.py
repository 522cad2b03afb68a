"""Every sector command records one ``disk.transfer`` span; the arm's
access pattern, read off those spans."""

import pytest

from repro.disk import DiskDrive, DiskImage, Label, tiny_test_disk, value_words
from repro.fs import FileSystem


def transfers(drive):
    """The ``disk.transfer`` spans recorded so far: one per sector command."""
    return drive.clock.obs.tracer.find("disk.transfer")


def traced_addresses(drive):
    """Turn span collection on; returns a function listing the addresses
    of every sector command the drive has run since."""
    drive.clock.obs.enable_tracing()
    return lambda: [span.args["address"] for span in transfers(drive)]


@pytest.fixture
def traced():
    drive = DiskDrive(DiskImage(tiny_test_disk(cylinders=20)))
    drive.clock.obs.enable_tracing()
    return drive


def in_use(page=1):
    return Label(serial=0x4000_0001, version=1, page_number=page, length=0)


def sequentiality(addresses):
    """Fraction of consecutive commands hitting address+1 -- 1.0 for a
    perfect sweep, ~0.0 for random access."""
    if len(addresses) < 2:
        return 1.0
    hits = sum(1 for previous, current in zip(addresses, addresses[1:])
               if current == previous + 1)
    return hits / (len(addresses) - 1)


class TestRecording:
    def test_records_commands(self, traced):
        traced.read_sector(0)
        traced.read_label(5)
        spans = transfers(traced)
        assert [span.args["address"] for span in spans] == [0, 5]
        assert spans[1].args["parts"] == "label:read"

    def test_records_part_actions(self, traced):
        traced.check_label_then_rewrite(4, Label.free(), in_use(), value_words([]))
        assert [span.args["parts"] for span in transfers(traced)] == [
            "label:check", "label:write,value:write"]

    def test_timing_is_unchanged_by_tracing(self):
        plain = DiskDrive(DiskImage(tiny_test_disk(cylinders=20)))
        traced_drive = DiskDrive(DiskImage(tiny_test_disk(cylinders=20)))
        traced_drive.clock.obs.enable_tracing()
        for drive in (plain, traced_drive):
            for address in (0, 30, 7, 200):
                drive.read_sector(address)
        assert plain.clock.now_us == traced_drive.clock.now_us
        assert len(transfers(traced_drive)) == 4


class TestSummaries:
    def test_arm_travel_and_seeks(self, traced):
        per_cyl = traced.shape.sectors_per_cylinder()
        traced.read_sector(0)                # cylinder 0
        traced.read_sector(5 * per_cyl)      # cylinder 5
        traced.read_sector(2 * per_cyl)      # cylinder 2
        cylinders = [span.args["cylinder"] for span in transfers(traced)]
        moves = [abs(b - a) for a, b in zip(cylinders, cylinders[1:])]
        assert sum(1 for move in moves if move) == 2
        assert sum(moves) == 8

    def test_sequentiality(self, traced):
        for address in range(10):
            traced.read_sector(address)
        addresses = [span.args["address"] for span in transfers(traced)]
        assert sequentiality(addresses) == 1.0
        traced.read_sector(100)
        addresses = [span.args["address"] for span in transfers(traced)]
        assert sequentiality(addresses) < 1.0


class TestTraceOnRealWorkloads:
    def test_scavenge_sweep_is_sequential(self):
        """The spans confirm the sweep's physical-order access pattern."""
        from repro.fs import Scavenger

        image = DiskImage(tiny_test_disk(cylinders=20))
        fs = FileSystem.format(DiskDrive(image))
        fs.create_file("a.dat").write_data(b"z" * 2000)
        fs.sync()
        drive = DiskDrive(image)
        addresses = traced_addresses(drive)
        Scavenger(drive).scavenge()
        sweep = addresses()[: image.shape.total_sectors()]
        assert sweep == sorted(sweep)
        assert sequentiality(addresses()) > 0.8

    def test_scattered_vs_compacted_read_patterns(self):
        from repro.fs import Compactor

        image = DiskImage(tiny_test_disk(cylinders=30))
        fs = FileSystem.format(DiskDrive(image))
        fs.create_file("seq.dat").write_data(b"q" * 4000)
        Compactor(fs.drive).compact()
        fs2 = FileSystem.mount(DiskDrive(image))
        addresses = traced_addresses(fs2.drive)
        fs2.open_file("seq.dat").read_data()
        assert sequentiality(addresses()) > 0.5  # consecutive pages, few jumps
