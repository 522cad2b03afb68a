"""The engine's maintenance cadence: one patrol slice per poll cycle.

A :class:`~repro.fs.online.OnlineMaintenance` attached to a
:class:`~repro.server.engine.FileServer` runs exactly one bounded slice
at the end of every ``poll()``, after the cycle's write-back flush and
before the ``_after_cycle`` hook (where a replicated primary ships the
cycle's journal, slice writes included).  A patrol also keeps its shard
awake: the router never skips a shard that has one, and a server
without one is idle when nothing is queued.
"""

from repro.disk import DiskDrive, DiskImage, tiny_test_disk
from repro.fs import FileSystem
from repro.fs.online import OnlineMaintenance
from repro.net import PacketNetwork
from repro.server import FileClient, FileServer, build_cluster


class RecordingServer(FileServer):
    """Logs the end-of-cycle hook."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.log = []

    def _after_cycle(self) -> None:
        self.log.append("after")


class RecordingPatrol(OnlineMaintenance):
    """Logs each slice and marks the flushes it does itself."""

    def __init__(self, fs, log) -> None:
        super().__init__(fs)
        self.log = log
        self.in_slice = False

    def step(self) -> bool:
        self.log.append("slice")
        self.in_slice = True
        try:
            return super().step()
        finally:
            self.in_slice = False


def make_served(server_cls=FileServer):
    fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk(cylinders=8))))
    network = PacketNetwork(clock=fs.drive.clock)
    network.attach("fileserver", queue_limit=4096)
    network.attach("ws")
    server = server_cls(fs, network)
    return fs, server, FileClient(network, "ws", pump=server.poll)


def slices(fs) -> int:
    return fs.drive.clock.obs.stats().get("fs.maint.slices", 0)


def test_one_slice_per_poll_while_work_remains():
    fs, server, client = make_served()
    maint = OnlineMaintenance(fs).attach(server)
    assert server.maintenance is maint
    polls = 0
    while maint.phase != "done":
        before = slices(fs)
        if polls % 3 == 0:
            client.submit(client.build_list())          # busy and idle polls
        server.poll()
        polls += 1
        assert slices(fs) == before + 1
        assert polls < 2_000
    assert polls > 1
    # A finished (non-continuous) pass is still stepped, but does nothing.
    done = slices(fs)
    server.poll()
    assert slices(fs) == done


def test_cycle_order_is_flush_then_slice_then_after_cycle():
    fs, server, client = make_served(RecordingServer)
    handle, _ = client.open("cadence.txt", create=True)
    patrol = RecordingPatrol(fs, server.log)
    patrol.attach(server)
    real_flush = fs.flush

    def flush():
        if not patrol.in_slice:
            server.log.append("flush")
        return real_flush()

    fs.flush = flush
    server.log.clear()
    client.submit(client.build_write(handle, 1, b"cadence"))
    server.poll()                                       # a cycle that wrote
    assert server.log == ["flush", "slice", "after"]
    server.log.clear()
    server.poll()                                       # an idle cycle
    assert server.log == ["slice", "after"]


def test_router_never_skips_a_shard_with_a_patrol():
    system = build_cluster(clients=1, shards=2, tiny=True)
    patrolled = system.shards[0]
    OnlineMaintenance(patrolled.fs, continuous=True).attach(patrolled)
    router = system.router
    for poll in range(1, 9):
        before = slices(patrolled.fs)
        router.poll()
        # Shard 1 is idle and skipped; shard 0 runs its slice every cycle.
        assert router.stats()["router.shards_skipped"] == poll
        assert slices(patrolled.fs) == before + 1


def test_server_without_a_patrol_is_idle_when_nothing_is_queued():
    fs, server, client = make_served()
    assert not server.has_work()
    client.write_file("idle.txt", b"served, then asleep")
    assert not server.has_work()
    OnlineMaintenance(fs).attach(server)
    assert server.has_work()                            # a patrol keeps it awake
