"""E16 -- Always-on service: incremental scavenge pauses and failover time.

Section 3.5's scavenger "takes about a minute" -- and for that minute the
Alto is down.  A 24/7 file server cannot take the minute, so two new
numbers are pinned here:

* **E16.incremental_scavenge_max_pause** -- the worst client-visible
  request latency while :class:`~repro.fs.online.OnlineMaintenance`
  sweeps and compacts the *same* pack an offline scavenge would freeze.
  The regression-tracked quantity is that worst pause (simulated
  seconds); the offline scavenge of an identical pack rides along as a
  metric, and the claim is the gap between them: the pause is bounded by
  one maintenance slice, two-plus orders of magnitude below the offline
  downtime.

* **E16.failover_promotion** -- killing the replicated primary
  mid-workload at a fixed crash point and promoting the hot standby:
  replay the journal tail, scavenge the standby pack, mount, swap the
  shard.  The regression-tracked quantity is the simulated promotion
  time; the replayed-tail length and the acked-page count (all verified
  intact -- the drill fails the bench otherwise) ride along.
"""

from repro.disk import DiskDrive, DiskShape, sweep
from repro.fs import OnlineMaintenance, Scavenger
from repro.net import PacketNetwork
from repro.server import FailoverScenario, FileClient, FileServer

from paper import populated_disk, report

SEED = 1979

#: Pack sizes per profile (cylinders, populated files, read rounds).
#: The full profile is the paper's own disk (E1's "about a minute"
#: scavenge); smoke is a fast proxy with the same mechanics.
FULL_SCALE = (203, 150, 2)
SMOKE_SCALE = (24, 10, 2)

#: How far below the offline freeze the worst pause must stay.  The
#: pause is near-O(1) -- one slice: at worst a single page move (whose
#: seeks grow only with pack *diameter*) plus the request's own disk
#: work -- while offline downtime grows with every sector on the pack,
#: so the demanded gap widens with scale.
FULL_PAUSE_FACTOR = 12
SMOKE_PAUSE_FACTOR = 3

#: Absolute ceiling on any single request's latency during maintenance
#: (one worst-case compaction move's writes and seeks, budget overshoot
#: included -- never a whole-pack stall).
PAUSE_CEILING_S = 2.5

#: The crash point the promotion row pins (mid-workload; the sweep in CI
#: covers every point, the bench tracks one representative's cost).
CRASH_POINT = 45


class _TimedClient(FileClient):
    """A FileClient that tracks its worst single-request latency.

    One protocol request is the unit a user-visible pause is charged to:
    a whole-file read is many requests, each individually delayed (or
    not) by whatever maintenance slice its poll cycle ran.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.worst_request_us = 0
        self.timed_requests = 0

    def transact(self, request):
        started = self.clock.now_us
        response = super().transact(request)
        elapsed = self.clock.now_us - started
        self.worst_request_us = max(self.worst_request_us, elapsed)
        self.timed_requests += 1
        return response


def incremental_pause_run(cylinders: int, files: int, rounds: int):
    """Serve reads while maintenance patrols; returns (max_pause_s, offline_s,
    requests, maintenance report)."""
    shape = DiskShape(name=f"e16_{cylinders}cyl", cylinders=cylinders)
    # The offline yardstick: scavenging a snapshot of this very pack.
    image, fs, payloads = populated_disk(shape=shape, files=files, seed=SEED,
                                         deletions=files // 4)
    offline_image = image.snapshot()
    offline_s = Scavenger(DiskDrive(offline_image)).scavenge().elapsed_s

    net = PacketNetwork(clock=fs.drive.clock)
    net.attach("fileserver")
    net.attach("ws")
    server = FileServer(fs, net)
    server.maintenance = OnlineMaintenance(fs)
    client = _TimedClient(net, "ws", pump=server.poll, read_batch_pages=4)

    names = sorted(payloads)
    reads = 0
    round_index = 0
    # Read the pack end to end until maintenance finishes its pass (and
    # at least `rounds` times, so requests overlap every phase).
    while round_index < rounds or server.maintenance.phase != "done":
        name = names[reads % len(names)]
        data = client.read_file(name)
        assert data == payloads[name], f"{name} corrupted mid-maintenance"
        reads += 1
        if reads % len(names) == 0:
            round_index += 1
    return (client.worst_request_us / 1e6, offline_s,
            client.timed_requests, server.maintenance.report)


def promotion_run():
    """The drill at the pinned crash point; returns its report."""
    drill = sweep(FailoverScenario(seed=SEED), points=[CRASH_POINT]).reports[0]
    assert drill.ok, f"failover drill failed: {drill.problems}"
    assert drill.promotion_us > 0
    return drill


def test_incremental_pause_is_orders_below_offline_downtime():
    max_pause_s, offline_s, requests, maint = incremental_pause_run(*SMOKE_SCALE)
    assert maint.repairs_made() >= 0 and maint.checks_passed > 0
    assert requests > 0
    # The whole point: no request ever waits anything like the offline
    # scavenge's full-pack freeze.
    assert max_pause_s < offline_s / SMOKE_PAUSE_FACTOR
    # ... and the pause is absolutely bounded too (one slice + one
    # request's own disk work, not an unbounded stall).
    assert max_pause_s < PAUSE_CEILING_S


def test_promotion_preserves_every_acked_write():
    drill = promotion_run()
    assert not drill.problems
    assert drill.crash_point == CRASH_POINT


def bench(profile: str = "full"):
    """Structured entries for ``python -m repro bench``."""
    scale = SMOKE_SCALE if profile == "smoke" else FULL_SCALE
    factor = SMOKE_PAUSE_FACTOR if profile == "smoke" else FULL_PAUSE_FACTOR
    max_pause_s, offline_s, requests, maint = incremental_pause_run(*scale)
    assert max_pause_s < offline_s / factor, (
        f"incremental maintenance stalled a request {max_pause_s:.3f}s "
        f"(offline scavenge: {offline_s:.1f}s)")
    assert max_pause_s < PAUSE_CEILING_S
    rows = [
        report(
            "E16",
            "(sec 3.5) scavenging freezes the machine for about a minute; "
            "an always-on server must not stop",
            f"worst request pause {max_pause_s * 1000:.1f}ms across "
            f"{requests} requests served during a full sweep+compact pass "
            f"(offline scavenge of the same pack: {offline_s:.1f}s)",
            name="E16.incremental_scavenge_max_pause",
            simulated_seconds=max_pause_s,
            cached=False,
            offline_scavenge_s=offline_s,
            requests=requests,
            slices=maint.slices,
            pages_moved=maint.pages_moved,
            boundary_checks=maint.checks_passed,
        )
    ]
    drill = promotion_run()
    rows.append(
        report(
            "E16",
            "single-machine service stops when the machine does; a hot "
            "standby bounds the outage by promotion, not repair",
            f"promotion in {drill.promotion_us / 1e6:.2f} simulated s at "
            f"crash point {drill.crash_point} ({drill.tail_records} journal "
            f"records replayed, {drill.acked_pages} acked pages verified)",
            name="E16.failover_promotion",
            simulated_seconds=drill.promotion_us / 1e6,
            cached=False,
            tail_records=drill.tail_records,
            acked_pages=drill.acked_pages,
        )
    )
    return rows
