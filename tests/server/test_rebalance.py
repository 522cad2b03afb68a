"""Crash-safe slot shipping: the protocol, its recovery, and the sweep.

The shipping invariant is the cluster's durability story: after any
crash during a rebalance, every moving name is intact on exactly one
pack, all moving names share that pack, bystanders are untouched, and no
protocol residue (``!ship`` temps, manifests) survives recovery.  The
exhaustive sweep crashes at every part-write across *both* packs -- the
same sweep ``python -m repro crashtest --scenario rebalance`` runs.
"""

import pytest

from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
from repro.disk.faults import sweep
from repro.server.rebalance import (
    MANIFEST_NAME,
    MANIFEST_SHADOW,
    SHIP_SUFFIX,
    Shipment,
    ShippingScenario,
    recover_shipment,
    ship_names,
)


def fresh_fs(cylinders=20):
    return FileSystem.format(DiskDrive(DiskImage(tiny_test_disk(cylinders))))


def test_ship_names_moves_files_and_spares_bystanders():
    source, target = fresh_fs(), fresh_fs()
    moving = {f"move{i}.dat": bytes([i]) * (200 + 300 * i) for i in range(3)}
    for name, data in moving.items():
        source.create_file(name).write_data(data)
    source.create_file("stay.dat").write_data(b"source bystander")
    target.create_file("resident.dat").write_data(b"target bystander")

    shipment = ship_names(source, target, sorted(moving), slot=5,
                          source=0, target=1)

    assert sorted(shipment.names) == sorted(moving)
    assert (shipment.slot, shipment.source, shipment.target) == (5, 0, 1)
    for name, data in moving.items():
        assert name not in source.list_files()
        assert target.open_file(name).read_data() == data
    assert source.open_file("stay.dat").read_data() == b"source bystander"
    assert target.open_file("resident.dat").read_data() == b"target bystander"
    # No protocol residue on either pack.
    for name in source.list_files() + target.list_files():
        assert SHIP_SUFFIX not in name.lower()
        assert not name.lower().startswith(MANIFEST_NAME.lower())


def test_recover_rolls_back_staged_temps_without_a_manifest():
    """Before the commit rename the shipment legally never happened."""
    source, target = fresh_fs(), fresh_fs()
    source.create_file("cargo.dat").write_data(b"original")
    target.create_file("cargo.dat" + SHIP_SUFFIX).write_data(b"staged copy")
    target.create_file(MANIFEST_SHADOW).write_data(b"uncommitted")
    target.flush()

    assert recover_shipment(source, target) is None
    assert source.open_file("cargo.dat").read_data() == b"original"
    assert "cargo.dat" not in target.list_files()
    for name in target.list_files():
        assert SHIP_SUFFIX not in name.lower()
        assert not name.lower().startswith(MANIFEST_NAME.lower())


def test_recover_rolls_forward_a_committed_manifest():
    """After the commit rename the shipment legally happened: finish it."""
    source, target = fresh_fs(), fresh_fs()
    source.create_file("cargo.dat").write_data(b"payload")
    target.create_file("cargo.dat" + SHIP_SUFFIX).write_data(b"payload")
    manifest = Shipment(slot=9, source=0, target=1, names=["cargo.dat"])
    target.create_file(MANIFEST_NAME).write_data(manifest.encode())
    target.flush()

    recovered = recover_shipment(source, target)
    assert recovered is not None
    assert recovered.slot == 9 and recovered.names == ["cargo.dat"]
    assert target.open_file("cargo.dat").read_data() == b"payload"
    assert "cargo.dat" not in source.list_files()
    assert MANIFEST_NAME not in target.list_files()


def test_recovery_is_idempotent():
    """Recovering twice (a crash during recovery) changes nothing more."""
    source, target = fresh_fs(), fresh_fs()
    source.create_file("cargo.dat").write_data(b"payload")
    target.create_file("cargo.dat" + SHIP_SUFFIX).write_data(b"payload")
    manifest = Shipment(slot=2, source=0, target=1, names=["cargo.dat"])
    target.create_file(MANIFEST_NAME).write_data(manifest.encode())
    target.flush()

    assert recover_shipment(source, target) is not None
    names_after_first = sorted(target.list_files())
    assert recover_shipment(source, target) is None      # nothing in flight
    assert sorted(target.list_files()) == names_after_first
    assert target.open_file("cargo.dat").read_data() == b"payload"


def test_torn_manifest_is_treated_as_uncommitted():
    """A manifest that does not parse cannot have been committed."""
    source, target = fresh_fs(), fresh_fs()
    source.create_file("cargo.dat").write_data(b"original")
    target.create_file("cargo.dat" + SHIP_SUFFIX).write_data(b"staged")
    target.create_file(MANIFEST_NAME).write_data(b"\xff\xfe garbage")
    target.flush()

    assert recover_shipment(source, target) is None
    assert source.open_file("cargo.dat").read_data() == b"original"
    assert "cargo.dat" not in target.list_files()


def test_shipment_manifest_roundtrip():
    shipment = Shipment(slot=17, source=2, target=5,
                        names=["a.dat", "b with space.txt"])
    assert Shipment.decode(shipment.encode()) == shipment
    with pytest.raises(ValueError):
        Shipment.decode(b"too short")


def test_full_crash_sweep_recovers_every_point():
    """Every part-write crash across both packs recovers to the invariant."""
    result = sweep(ShippingScenario(seed=1979, cylinders=20))
    assert result.points_tested == result.total_writes > 0
    assert result.ok, "\n".join(str(r) for r in result.failures)
    # Both roll directions must actually be exercised by the sweep.
    assert any(r.rolled == "forward" for r in result.reports)
    assert any(r.rolled == "back" for r in result.reports)


def test_full_crash_sweep_recovers_with_torn_writes():
    """The crashing write lands half-old half-new; recovery still holds."""
    result = sweep(ShippingScenario(seed=1979, cylinders=20), tear=True)
    assert result.points_tested == result.total_writes > 0
    assert result.ok, "\n".join(str(r) for r in result.failures)
