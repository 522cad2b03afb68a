"""What every client session carries, at the engine and at the router alike:
a 16-deep at-most-once replay cache and 16-bit handles that wrap to 1.

Both front doors keep one :class:`~repro.server.session.Session` per
client, so one wire-level test runs against a single :class:`FileServer`
and against a two-shard :class:`ShardRouter`.
"""

import pytest

from repro.server import build_cluster, build_system

#: OPENs per poll while marching the handle counter up to its wrap.
BATCH = 30


def make_front(front):
    if front == "engine":
        system = build_system(clients=1, tiny=True)
        servers = [system.server]
    else:
        system = build_cluster(clients=1, shards=2, tiny=True)
        servers = system.shards
    [client] = system.clients
    client.pump = system.server.poll
    return system, servers, client


def open_many(system, client, count):
    """OPEN ``f.dat`` *count* times, pipelined; returns the handles."""
    handles = []
    while len(handles) < count:
        batch = [client.submit(client.build_open("f.dat"))
                 for _ in range(min(BATCH, count - len(handles)))]
        system.server.poll()
        for pending in batch:
            response = client.step(pending)
            assert response is not None and response.ok
            handles.append(response.handle)
    return handles


@pytest.mark.parametrize("front", ["engine", "router"])
def test_session_replays_sixteen_deep_and_wraps_handles(front, monkeypatch):
    system, servers, client = make_front(front)
    client.write_file("f.dat", b"x")

    # The cache holds the last 16 answers, the retried request's own among
    # them: a retry behind 15 newer requests is replayed (same handle
    # back), behind 16 it re-executes (a new handle).
    first = client.build_open("f.dat")
    handle = client.transact(first).handle
    for _ in range(15):
        client.listdir()
    assert client.transact(first).handle == handle
    client.listdir()
    assert client.transact(first).handle == handle + 1

    # The directory lookup is not under test: reuse the opened file so
    # the march to the wrap stays cheap.
    for server in servers:
        if "f.dat" in server.fs.list_files():
            opened = server.fs.open_file("f.dat")
            monkeypatch.setattr(server.fs, "open_file",
                                lambda name, opened=opened: opened)
    handles = open_many(system, client, 0xFFFF - handle)
    assert handles[-2:] == [0xFFFF, 1]
