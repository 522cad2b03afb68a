"""Regression: a retry arriving *after* a rebalance must still hit the
at-most-once cache.

The gap this pins: the per-shard replay caches are keyed by the proxy
session, so if retries were routed by re-hashing the name, a retry whose
file moved shards between the original execution and the retry would
land on a shard that never saw the request id -- and re-execute it,
breaking at-most-once.  The router closes the gap two ways, both tested
here: completed requests answer from the router's *own* per-client
replay cache (which no rebalance touches), and unanswered in-flight
requests stay pinned to the shard recorded at admission epoch instead of
being re-hashed.
"""

from repro.server import ST_OK, build_cluster


def make_cluster(shards=2, seed=1979):
    system = build_cluster(clients=1, shards=shards, seed=seed, tiny=True)
    system.clients[0].pump = system.router.poll
    return system


def wait_for(system, client, pending, rounds=400):
    for _ in range(rounds):
        system.router.poll()
        response = client.step(pending)
        if response is not None:
            return response
        system.clock.advance_us(1_000, "server.client.wait")
    raise AssertionError("request never completed")


def lose_response(system, client, request):
    """Run *request* to completion on the server side but drop every
    response packet before the client sees it -- the classic lost-ACK."""
    pending = client.submit(request)
    system.router.poll()                       # executes and responds
    while system.network.receive(client.host) is not None:
        pass                                   # the wire eats the answer
    return pending


def test_retry_after_rebalance_hits_the_replay_cache():
    system = make_cluster()
    [client] = system.clients
    router = system.router
    client.write_file("moving.dat", b"precious" * 64)

    # A CLOSE executes on its shard, but the response is lost.
    handle, _ = client.open("moving.dat")
    pending = lose_response(system, client, client.build_close(handle))
    executed = router.stats()["router.relayed"]

    # The slot rebalances away while the client is still waiting.
    slot = router.shard_map.slot_of("moving.dat")
    source = router.shard_map.slot_shard(slot)
    router.start_rebalance(slot, 1 - source)
    system.router.poll()
    assert not router.rebalancing, "slot should drain: the CLOSE completed"
    assert router.shard_map.slot_shard(slot) == 1 - source

    # The client's timeout retry must be answered from the router's
    # replay cache -- not forwarded anywhere, and above all not
    # re-executed on the new shard (which never saw the id).
    replayed_before = router.stats()["router.replayed"]
    response = wait_for(system, client, pending)
    assert response.status == ST_OK
    stats = router.stats()
    assert stats["router.replayed"] == replayed_before + 1
    assert stats["router.relayed"] == executed, \
        "the retry must not re-execute on any shard"
    assert client.read_file("moving.dat") == b"precious" * 64


def test_unanswered_retry_stays_pinned_to_its_admission_shard():
    """A retry of a request still in flight re-forwards to the shard
    pinned at admission -- never re-hashed through the current map."""
    system = make_cluster()
    [client] = system.clients
    router = system.router

    # Admit an OPEN but stop before any poll: it is in flight, unanswered.
    request = client.build_open("pinned.dat", create=True)
    pending = client.submit(request)
    router._ingest()
    key = (client.host, request.request_id)
    ctx = router._inflight[key]
    pinned_shard = ctx.shard
    assert ctx.epoch == router.shard_map.epoch

    # The map changes under it: move the name's slot (it is empty on
    # disk, so draining is not the obstacle -- but this ctx pins it, so
    # flip the assignment directly as a worst-case epoch bump).
    slot = router.shard_map.slot_of("pinned.dat")
    router.shard_map.assignment[slot] = 1 - pinned_shard
    router.shard_map.epoch += 1

    # A wire retry of the same id re-forwards to the pinned shard.
    retransmits_before = router.stats()["router.retransmits"]
    for packet in pending.packets:
        system.network.send(packet)
    router._ingest()
    assert router.stats()["router.retransmits"] == retransmits_before + 1
    assert router._inflight[key].shard == pinned_shard

    # Put the map back; the request completes normally end to end.
    router.shard_map.assignment[slot] = pinned_shard
    response = wait_for(system, client, pending)
    assert response.status == ST_OK


def test_duplicate_of_a_completed_write_is_not_reapplied():
    system = make_cluster()
    [client] = system.clients
    client.write_file("w.dat", b"A" * 512)
    handle, _ = client.open("w.dat")
    write = client.build_write(handle, 1, b"B" * 512)
    pending = lose_response(system, client, write)
    # Duplicate arrives (timeout retry); answered from cache, applied once.
    response = wait_for(system, client, pending)
    assert response.status == ST_OK
    client.close(handle)
    assert client.read_file("w.dat") == b"B" * 512
    assert system.router.stats()["router.replayed"] >= 1
