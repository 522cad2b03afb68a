"""Router tests: routing, handle virtualization, scatter-gather LIST,
backpressure, PR-5 observational equivalence, rebalancing, recovery.

The promise under test: sharding is invisible to clients except as
throughput.  A client speaking the unmodified wire protocol to the
unmodified ``"fileserver"`` host sees the same statuses, bytes, handle
sequences, and LIST contents at any shard count.
"""

import pytest

from repro.errors import RequestFailed, ServerError
from repro.server import (
    FileClient,
    FileServer,
    ST_BAD_HANDLE,
    ST_BAD_REQUEST,
    ST_BUSY,
    build_cluster,
    build_system,
    merge_names,
)
from repro.server.router import ShardRouter


def make_cluster(clients=1, shards=2, seed=1979, **kw):
    system = build_cluster(clients=clients, shards=shards, seed=seed,
                           tiny=True, **kw)
    for client in system.clients:
        client.pump = system.router.poll
    return system


def raw_transact(system, client, request, rounds=400):
    """Submit one frame and return the raw Response -- no busy backoff,
    no retry -- so router-generated ST_BUSY is observable."""
    pending = client.submit(request)
    for _ in range(rounds):
        system.router.poll()
        response = client._check_arrivals(pending)
        if response is not None:
            return response
        system.clock.advance_us(1_000, "server.client.wait")
    raise AssertionError(f"no response to {request.op_name}")


# -- merge_names --------------------------------------------------------------


def test_merge_names_unions_sorts_and_dedupes():
    merged = merge_names([{"b.txt", "SysDir", "DiskDescriptor"},
                          {"A.txt", "SysDir", "DiskDescriptor"},
                          {"a2.txt"}])
    assert merged == ["A.txt", "a2.txt", "b.txt", "DiskDescriptor", "SysDir"]
    assert merge_names([]) == []
    # Case-insensitive order, but distinct spellings both survive (the
    # exact-name tiebreaker keeps the order total and deterministic).
    assert merge_names([{"B.txt"}, {"b.txt"}]) == ["B.txt", "b.txt"]


# -- routing and the client-visible contract ---------------------------------


def test_files_land_on_the_shard_the_map_names():
    system = make_cluster(shards=4)
    [client] = system.clients
    names = [f"file{i:02d}.dat" for i in range(12)]
    for index, name in enumerate(names):
        client.write_file(name, bytes([index]) * 300)
    for name in names:
        owner = system.router.shard_map.shard_of(name)
        for index, shard in enumerate(system.shards):
            assert (name in shard.fs.list_files()) == (index == owner)
        assert client.read_file(name) == bytes([names.index(name)]) * 300


def test_list_scatter_gathers_the_union_of_all_shards():
    system = make_cluster(shards=3)
    [client] = system.clients
    names = [f"doc{i}.txt" for i in range(9)]
    for name in names:
        client.write_file(name, name.encode())
    listed = client.listdir()
    assert listed == sorted(set(listed), key=lambda n: (n.lower(), n))
    for name in names:
        assert name in listed
    # Per-pack bookkeeping files appear once despite existing on every pack.
    assert listed.count("SysDir") == 1
    assert listed.count("DiskDescriptor") == 1
    assert system.router.stats()["router.scatters"] == 1


def test_handles_are_virtualized_in_one_client_sequence():
    system = make_cluster(shards=4)
    [client] = system.clients
    names = [f"h{i}.dat" for i in range(6)]
    for name in names:
        client.write_file(name, b"x" * 100)
    handles = [client.open(name)[0] for name in names]
    # Router-issued handles are sequential regardless of owning shard,
    # exactly like a single server's grant order.
    assert handles == list(range(handles[0], handles[0] + len(names)))
    assert len({system.router.shard_map.shard_of(n) for n in names}) > 1
    for handle in handles:
        client.close(handle)


def test_bogus_handle_and_empty_name_fail_at_the_router():
    system = make_cluster(shards=2)
    [client] = system.clients
    with pytest.raises(RequestFailed) as excinfo:
        client.transact(client.build_read(42, 1, 1))
    assert excinfo.value.status == ST_BAD_HANDLE
    with pytest.raises(RequestFailed) as excinfo:
        client.transact(client.build_open(""))
    assert excinfo.value.status == ST_BAD_REQUEST
    # Router-local errors never touch a shard.
    assert system.router.stats()["router.forwarded"] == 0


def test_closed_vhandle_is_rejected_without_forwarding():
    system = make_cluster(shards=2)
    [client] = system.clients
    client.write_file("f.dat", b"data")
    handle, _ = client.open("f.dat")
    client.close(handle)
    forwarded = system.router.stats()["router.forwarded"]
    with pytest.raises(RequestFailed) as excinfo:
        client.transact(client.build_close(handle))
    assert excinfo.value.status == ST_BAD_HANDLE
    assert system.router.stats()["router.forwarded"] == forwarded


# -- backpressure -------------------------------------------------------------


def test_router_pending_window_answers_busy():
    system = make_cluster(shards=2, max_pending=0)
    [client] = system.clients
    response = raw_transact(system, client, client.build_list())
    assert response.status == ST_BUSY
    stats = system.router.stats()
    assert stats["router.rejected"] == 1
    assert stats["router.forwarded"] == 0


def test_per_shard_window_answers_busy():
    system = make_cluster(shards=2, per_shard_window=0)
    [client] = system.clients
    response = raw_transact(system, client, client.build_open("f", create=True))
    assert response.status == ST_BUSY
    assert system.router.stats()["router.rejected"] == 1
    # Busy is never cached: the retry is admitted fresh, not replayed.
    assert system.router.stats()["router.replayed"] == 0


def test_busy_resolves_through_client_backoff():
    """With a tiny per-shard window the client's retry discipline still
    completes every request -- busy is flow control, not failure."""
    system = make_cluster(clients=3, shards=2, per_shard_window=1)
    for index, client in enumerate(system.clients):
        name = f"slow{index}.dat"
        client.write_file(name, bytes([index]) * 600)
    for index, client in enumerate(system.clients):
        assert client.read_file(f"slow{index}.dat") == bytes([index]) * 600


# -- observational equivalence with the PR-5 single server -------------------


def drive_workload(client):
    """One deterministic mixed workload; returns every visible outcome."""
    visible = []
    for index in range(4):
        name = f"eq{index}.dat"
        data = bytes((index * 7 + j) % 256 for j in range(150 + 400 * index))
        visible.append(client.write_file(name, data))
        visible.append(client.read_file(name))
    handle, size = client.open("eq1.dat")
    visible.append((handle, size))
    client.close(handle)
    try:
        client.open("missing.dat")
    except RequestFailed as exc:
        visible.append(("open-missing", exc.status))
    try:
        client.transact(client.build_read(99, 1, 1))
    except RequestFailed as exc:
        visible.append(("bogus-read", exc.status))
    # LIST equivalence is set-level: the single server lists in directory
    # order, the cluster's scatter-gather merge sorts deterministically.
    visible.append(sorted(client.listdir()))
    return visible


def test_one_shard_cluster_is_observationally_equivalent_to_pr5_server():
    plain = build_system(clients=1, tiny=True)
    [plain_client] = plain.clients
    plain_client.pump = plain.server.poll
    cluster = make_cluster(clients=1, shards=1, seed=11)

    assert drive_workload(plain_client) == drive_workload(cluster.clients[0])


def test_shard_count_does_not_change_what_clients_see():
    outcomes = [drive_workload(make_cluster(shards=n).clients[0])
                for n in (1, 2, 4)]
    assert outcomes[0] == outcomes[1] == outcomes[2]


# -- rebalancing --------------------------------------------------------------


def pick_file_and_target(system, names):
    """A served name plus a shard it does not live on."""
    name = names[0]
    source = system.router.shard_map.shard_of(name)
    target = (source + 1) % len(system.shards)
    return name, source, target


def test_rebalance_ships_a_slot_and_serving_continues():
    system = make_cluster(shards=2)
    [client] = system.clients
    names = [f"r{i}.dat" for i in range(6)]
    contents = {n: n.encode() * 40 for n in names}
    for name in names:
        client.write_file(name, contents[name])
    name, source, target = pick_file_and_target(system, names)
    slot = system.router.shard_map.slot_of(name)
    epoch = system.router.shard_map.epoch

    plan = system.router.start_rebalance(slot, target)
    assert (plan.slot, plan.target) == (slot, target)
    system.router.poll()                 # nothing holds the slot: ships now

    assert not system.router.rebalancing
    assert system.router.shard_map.slot_shard(slot) == target
    assert system.router.shard_map.epoch == epoch + 1
    moved = [n for n in names if system.router.shard_map.slot_of(n) == slot]
    for n in moved:
        assert n in system.shards[target].fs.list_files()
        assert n not in system.shards[source].fs.list_files()
    # Every file still serves, through the new placement.
    for n in names:
        assert client.read_file(n) == contents[n]
    assert sorted(set(client.listdir())) == sorted(client.listdir())


def test_one_rebalance_counts_once_in_the_cluster_snapshot():
    """The merged view (what ``repro stats --serve --shards`` prints) sees
    the router's one rebalance once, not again on the target shard."""
    system = make_cluster(shards=2)
    [client] = system.clients
    names = [f"r{i}.dat" for i in range(6)]
    for name in names:
        client.write_file(name, name.encode() * 40)
    name, _, target = pick_file_and_target(system, names)
    slot = system.router.shard_map.slot_of(name)
    moved = [n for n in names if system.router.shard_map.slot_of(n) == slot]
    system.router.start_rebalance(slot, target)
    system.router.poll()
    for view in (system.router.stats(), system.stats()):
        assert view["router.rebalances"] == 1
        assert view["router.shipped_names"] == len(moved)


def test_rebalance_waits_for_open_handles_and_pauses_new_opens():
    system = make_cluster(shards=2)
    [client] = system.clients
    client.write_file("held.dat", b"held" * 50)
    slot = system.router.shard_map.slot_of("held.dat")
    source = system.router.shard_map.slot_shard(slot)
    target = 1 - source

    handle, _ = client.open("held.dat")
    system.router.start_rebalance(slot, target)
    system.router.poll()
    # The open handle pins the slot: nothing ships, the map is unchanged.
    assert system.router.rebalancing
    assert system.router.shard_map.slot_shard(slot) == source

    # A new OPEN of a paused name answers busy (and is not cached).
    response = raw_transact(system, client, client.build_open("held.dat"))
    assert response.status == ST_BUSY
    assert system.router.stats()["router.paused"] >= 1

    client.close(handle)
    system.router.poll()                 # drained: ships and applies
    assert not system.router.rebalancing
    assert system.router.shard_map.slot_shard(slot) == target
    assert "held.dat" in system.shards[target].fs.list_files()
    assert client.read_file("held.dat") == b"held" * 50


def test_only_one_rebalance_at_a_time():
    system = make_cluster(shards=2)
    [client] = system.clients
    client.write_file("a.dat", b"a")
    handle, _ = client.open("a.dat")     # pin, so the first move stays live
    slot = system.router.shard_map.slot_of("a.dat")
    system.router.start_rebalance(slot, 1 - system.router.shard_map.slot_shard(slot))
    with pytest.raises(ServerError):
        system.router.start_rebalance((slot + 1) % 64, 0)
    client.close(handle)


# -- restart and recovery -----------------------------------------------------


def restart_router(system, seed=1979):
    """A new router over the same shard file systems -- the restart path."""
    from repro.net import PacketNetwork
    from repro.server import FileServer

    network = PacketNetwork()
    shards = []
    for index, old in enumerate(system.shards):
        host = f"shard{index:02d}"
        network.attach(host, queue_limit=4096, clock=old.fs.drive.clock)
        shards.append(FileServer(old.fs, network, host=host))
    router = ShardRouter(shards, network, seed=seed)
    network.attach("ws000")
    client = FileClient(network, "ws000", pump=router.poll)
    return router, client


def test_restarted_router_adopts_placement_from_the_packs():
    system = make_cluster(shards=2)
    [client] = system.clients
    names = [f"adopt{i}.dat" for i in range(5)]
    for name in names:
        client.write_file(name, name.encode() * 30)
    name, source, target = pick_file_and_target(system, names)
    slot = system.router.shard_map.slot_of(name)
    system.router.start_rebalance(slot, target)
    system.router.poll()
    moved_placement = system.router.shard_map.placement(names)

    router, client2 = restart_router(system)
    assert router.recover() == []        # no shipment was in flight
    # The fresh map re-learned the moved slot from where the files live.
    assert router.shard_map.placement(names) == moved_placement
    for n in names:
        assert client2.read_file(n) == n.encode() * 30


def test_recover_finishes_a_committed_shipment_on_restart():
    from repro.server.rebalance import MANIFEST_NAME, SHIP_SUFFIX, Shipment

    system = make_cluster(shards=2)
    [client] = system.clients
    client.write_file("mid.dat", b"mid-flight" * 20)
    slot = system.router.shard_map.slot_of("mid.dat")
    source = system.router.shard_map.slot_shard(slot)
    target = 1 - source
    # Forge the crash state one write after the commit point: staged copy
    # plus committed manifest, originals still on the source.
    data = system.shards[source].fs.open_file("mid.dat").read_data()
    target_fs = system.shards[target].fs
    target_fs.create_file("mid.dat" + SHIP_SUFFIX).write_data(data)
    manifest = Shipment(slot=slot, source=source, target=target,
                        names=["mid.dat"])
    target_fs.create_file(MANIFEST_NAME).write_data(manifest.encode())
    target_fs.flush()

    router, client2 = restart_router(system)
    shipments = router.recover()
    assert [s.slot for s in shipments] == [slot]
    assert router.shard_map.slot_shard(slot) == target
    assert "mid.dat" not in system.shards[source].fs.list_files()
    assert client2.read_file("mid.dat") == b"mid-flight" * 20


def test_adopt_placement_rejects_a_split_slot():
    system = make_cluster(shards=2)
    [client] = system.clients
    client.write_file("twin.dat", b"twin")
    slot = system.router.shard_map.slot_of("twin.dat")
    other = 1 - system.router.shard_map.slot_shard(slot)
    # Outside interference: a second copy of the slot on the other pack.
    system.shards[other].fs.create_file("twin.dat").write_data(b"imposter")
    with pytest.raises(ServerError):
        system.router.adopt_placement()


# -- construction errors ------------------------------------------------------


def test_router_rejects_empty_or_mismatched_clusters():
    from repro.net import PacketNetwork
    from repro.server import ShardMap

    with pytest.raises(ServerError):
        ShardRouter([], PacketNetwork())
    system = make_cluster(shards=2)
    from repro.net import PacketNetwork as PN
    net = PN()
    for index, shard in enumerate(system.shards):
        net.attach(f"shard{index:02d}")
    with pytest.raises(ServerError):
        ShardRouter(system.shards, net, host="front2",
                    shard_map=ShardMap(shards=3))
