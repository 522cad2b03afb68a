"""Unit tests for the platter state."""

import pytest

from repro.disk import DiskImage, Label, Sector, tiny_test_disk
from repro.errors import AddressOutOfRange


@pytest.fixture
def image():
    return DiskImage(tiny_test_disk())


class TestAccess:
    def test_every_sector_fresh(self, image):
        assert len(image) == image.shape.total_sectors()
        assert all(s.label.is_free for s in image.sectors())

    def test_headers_match_addresses(self, image):
        for address in image.shape.addresses():
            assert image.sector(address).header.address == address

    def test_out_of_range(self, image):
        with pytest.raises(AddressOutOfRange):
            image.sector(len(image))

    def test_set_sector(self, image):
        sector = Sector.fresh(image.pack_id, 3)
        sector.value[0] = 42
        image.set_sector(3, sector)
        assert image.sector(3).value[0] == 42


class TestSnapshots:
    def test_snapshot_is_independent(self, image):
        snap = image.snapshot()
        image.sector(0).value[0] = 123
        assert snap.sector(0).value[0] == 0xFFFF

    def test_restore(self, image):
        snap = image.snapshot()
        image.sector(5).label = Label(serial=0x4000_0001, version=1, page_number=1, length=0)
        image.bad_media.add(7)
        image.restore(snap)
        assert image.sector(5).label.is_free
        assert not image.bad_media

    def test_restore_rejects_different_shape(self, image):
        other = DiskImage(tiny_test_disk(cylinders=9))
        with pytest.raises(ValueError):
            image.restore(other)


class TestStatistics:
    def test_counts(self, image):
        total = len(image)
        assert image.count_free() == total
        image.sector(0).label = Label(serial=0x4000_0001, version=1, page_number=1, length=0)
        image.sector(1).label = Label.bad()
        assert image.count_in_use() == 1
        assert image.count_bad() == 1
        assert image.count_free() == total - 2

    def test_labels_by_serial(self, image):
        for address, pn in ((0, 1), (4, 2)):
            image.sector(address).label = Label(
                serial=0x4000_0009, version=1, page_number=pn, length=0
            )
        grouped = image.labels_by_serial()
        assert len(grouped) == 1
        assert len(grouped[0x4000_0009]) == 2


class TestGeneration:
    """``generation`` moves on every route that can change a sector, and
    only on those."""

    def test_mutable_accessors_bump(self, image):
        start = image.generation
        image.sector(3)
        assert image.generation == start + 1
        image.set_sector(4, Sector.fresh(image.pack_id, 4))
        assert image.generation == start + 2
        before = image.generation
        for _ in image.sectors():
            pass
        assert image.generation == before + len(image)

    def test_read_only_views_do_not_bump(self, image):
        start = image.generation
        image.peek(3)
        list(image.scan())
        image.digest()
        image.count_free()
        assert image.generation == start

    def test_drive_part_writes_bump_and_reads_do_not(self, image):
        from repro.disk import DiskDrive

        drive = DiskDrive(image)
        label = Label(serial=0x4000_0001, version=1, page_number=1, length=0)
        start = image.generation
        drive.write_label_value(7, label, [1] * len(image.peek(7).value))
        assert image.generation == start + 2          # label + value parts
        wrote = image.generation
        drive.read_sector(7)
        drive.read_label(8)
        drive.check_label_read_value(7, label)
        assert image.generation == wrote

    def test_cached_drive_bumps_when_the_flush_reaches_the_platter(self, image):
        from repro.disk import CachedDrive

        drive = CachedDrive(image)
        label = Label(serial=0x4000_0001, version=1, page_number=1, length=0)
        words = len(image.peek(7).value)
        start = image.generation
        drive.write_label_value(7, label, [1] * words)    # written through
        assert image.generation == start + 2
        through = image.generation
        drive.check_label_write_value(7, label, [2] * words)  # buffered
        drive.check_label_read_value(7, label)            # a cache hit
        assert image.generation == through
        assert drive.flush() == 1
        assert image.generation > through
        assert image.peek(7).value == [2] * words

    def test_check_image_does_not_bump(self, fs):
        from repro.fs.fsck import check_image

        image = fs.drive.image
        start = image.generation
        check_image(image)
        assert image.generation == start

    def test_snapshot_counter_is_independent_and_restore_bumps(self, image):
        image.sector(0)
        snap = image.snapshot()
        source, copy = image.generation, snap.generation
        image.sector(1)
        assert snap.generation == copy
        snap.sector(2)
        assert image.generation == source + 1
        before = image.generation
        image.restore(snap)
        assert image.generation == before + 1
