"""The benchmark's three workloads, driven through the public ``repro`` API.

Every workload is one *round*: :meth:`setup` builds a fresh simulated
machine room from the seed (format, populate, bootstrap, warm up),
:meth:`drive` runs the measured window, and :meth:`verify` runs the
output checks that need the window to be over.  A round is a pure
function of its seed: the same seed gives the same requests, the same
simulated clock readings and the same counter values, whatever the host.

Every station is a simulated host on the simulated wire (a
:class:`~repro.server.client.FileClient`), never an OS thread or socket.
The drivers here are the benchmark's own: they do not call
``repro.server.loadgen`` or ``benchmarks/``, so optimising those cannot
change what is measured.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.disk.cache import CachedDrive
from repro.disk.drive import DiskDrive
from repro.disk.geometry import DiskShape, diablo31
from repro.disk.image import DiskImage
from repro.errors import RequestTimeout
from repro.fs.file import FULL_PAGE
from repro.fs.filesystem import FileSystem
from repro.fs.fsck import check_image
from repro.fs.online import OnlineMaintenance
from repro.net.network import PacketNetwork
from repro.obs import merge_stats
from repro.server import (
    MAX_BATCH_PAGES,
    FileClient,
    FileServer,
    ReplicaStandby,
    ReplicatedFileServer,
    Request,
    Response,
    ShardRouter,
    ST_OK,
)
from repro.words import bytes_to_words, random_bytes, words_to_bytes, words_to_string

#: Words of file data per page.
PAGE_WORDS = FULL_PAGE // 2

#: Simulated microseconds a driver waits when no station progressed (the
#: client's own poll interval).
IDLE_STEP_US = 1_000

#: Driver rounds without progress before a round is declared stalled.
STALL_LIMIT = 20_000

#: Stations (simulated workstations) per workload.
STATIONS = 8

#: Each workload's shape -- arrival schedule, file sizes, pack layout --
#: is drawn from this fixed seed; the run's ``--seed`` draws every byte
#: stored and a small jitter on each size and instant.  Tail latencies at
#: 90% load or a worst pause hinge on one rare coincidence, so drawing
#: the shape itself per seed would swing them by a quarter from seed to
#: seed; this way every seed is a different input of the same shape.
LAYOUT_SEED = 1979


class Tally:
    """Requests attempted and failed in one round, with named failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.problems: Dict[str, int] = {}

    def fail(self, check: str) -> None:
        self.failed += 1
        self.problems[check] = self.problems.get(check, 0) + 1

    def expect(self, ok: bool, check: str) -> bool:
        if not ok:
            self.fail(check)
        return ok

    def check(self, ok: bool, check: str) -> None:
        """An end-of-round output check: one attempted operation."""
        self.attempted += 1
        self.expect(ok, check)


def nearest_rank(sorted_values: List[int], percent: int) -> int:
    """The rank-``ceil(percent / 100 * n)`` sample of an ascending list."""
    rank = max(1, -(-percent * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def latency_summary(latencies_us: List[int], elapsed_us: int,
                    completed: int) -> Dict[str, float]:
    """The simulated end-to-end numbers of one latency sample."""
    ordered = sorted(latencies_us)
    if not ordered:
        return {"sim_p50_ms": 0.0, "sim_p99_ms": 0.0, "sim_max_ms": 0.0,
                "sim_ops_per_s": 0.0, "sim_samples": 0}
    return {
        "sim_p50_ms": nearest_rank(ordered, 50) / 1000.0,
        "sim_p99_ms": nearest_rank(ordered, 99) / 1000.0,
        "sim_max_ms": ordered[-1] / 1000.0,
        "sim_ops_per_s": completed * 1_000_000 / elapsed_us if elapsed_us else 0.0,
        "sim_samples": len(ordered),
    }


def page_chunks(data: bytes) -> List[Tuple[int, bytes]]:
    """An upload: full pages, then the (possibly empty) tail page."""
    n_full = len(data) // FULL_PAGE
    chunks = [(page, data[(page - 1) * FULL_PAGE: page * FULL_PAGE])
              for page in range(1, n_full + 1)]
    chunks.append((n_full + 1, data[n_full * FULL_PAGE:]))
    return chunks


def parse_names(response: Response) -> List[str]:
    """The file names a LIST response carries."""
    words, names, index = list(response.payload), [], 0
    while index < len(words):
        count = words[index]
        names.append(words_to_string(words[index + 1: index + 1 + count]))
        index += 1 + count
    return names


Script = Generator[Request, Response, None]


def read_whole(client: FileClient, name: str, expect: bytes, batch: int,
               tally: Tally) -> Script:
    """OPEN, batched READs, CLOSE; checks every byte against *expect*."""
    response = yield client.build_open(name)
    if not tally.expect(response.status == ST_OK, "open-existing"):
        return
    handle = response.handle
    size = (response.result0 << 16) | response.result1
    tally.expect(size == len(expect), "open-size")
    out = bytearray()
    pages = max(1, -(-size // FULL_PAGE))
    page = 1
    while page <= pages:
        response = yield client.build_read(handle, page,
                                           min(batch, pages - page + 1))
        got = response.result0
        if not tally.expect(response.status == ST_OK and got > 0, "read"):
            break
        words = response.payload
        for index in range(got):
            take = min(FULL_PAGE, size - len(out))
            out += words_to_bytes(
                words[index * PAGE_WORDS:(index + 1) * PAGE_WORDS], nbytes=take)
        page += got
    tally.expect(bytes(out) == expect, "read-back-bytes")
    response = yield client.build_close(handle)
    tally.expect(response.status == ST_OK, "close")


# ----------------------------------------------------------------------------
# The drivers
# ----------------------------------------------------------------------------

def closed_loop(clock, cycle: Callable[[], object],
                scripts: Dict[FileClient, Script], tally: Tally,
                latencies_us: List[int],
                think_us: Optional[Callable[[], int]] = None) -> None:
    """Each station sends its next request only once the last one answered
    (and, with *think_us*, once that many microseconds have passed).

    Latency runs from the request's first send to its matching response,
    on *clock* -- the one clock every station and the serving machine
    share.  A station whose request times out is stopped and counted.
    """
    responses: Dict[FileClient, Optional[Response]] = {s: None for s in scripts}
    ready_at: Dict[FileClient, int] = {s: 0 for s in scripts}
    pending = {}
    active = dict(scripts)
    stalls = 0
    while active or pending:
        for station in list(active):
            if station in pending or ready_at[station] > clock.now_us:
                continue
            try:
                request = active[station].send(responses[station])
            except StopIteration:
                del active[station]
                continue
            pending[station] = station.submit(request)
            tally.attempted += 1
        if not pending:
            if active:
                # Every station is thinking: nothing is on the wire, so
                # the machine room idles until the first one wakes.
                wake = min(ready_at[station] for station in active)
                clock.advance_us(wake - clock.now_us, "bench.think")
            continue
        cycle()
        progressed = False
        for station in list(pending):
            entry = pending[station]
            try:
                response = station.step(entry)
            except RequestTimeout:
                tally.fail("request-timeout")
                del pending[station]
                active.pop(station, None)
                continue
            if response is None:
                continue
            progressed = True
            del pending[station]
            latencies_us.append(clock.now_us - entry.first_sent_us)
            tally.completed += 1
            responses[station] = response
            if think_us is not None:
                ready_at[station] = clock.now_us + think_us()
        if progressed:
            stalls = 0
            continue
        stalls += 1
        if stalls > STALL_LIMIT:
            tally.fail("driver-stalled")
            return
        clock.advance_us(IDLE_STEP_US, "server.client.wait")


def poisson_arrivals(layout: random.Random, rng: random.Random,
                     start_us: int, rate_rps: float, duration_s: float,
                     jitter_us: int) -> List[int]:
    """A Poisson schedule at exactly *rate_rps* over *duration_s* seconds.

    The arrival count is fixed at ``rate * duration`` and the instants are
    independent uniform draws from *layout* -- a Poisson process
    conditioned on its count.  *rng* (the run's seed) then moves each
    arrival later by up to *jitter_us*.
    """
    span_us = duration_s * 1_000_000
    count = round(rate_rps * duration_s)
    return sorted(start_us + int(layout.random() * span_us)
                  + rng.randrange(jitter_us) for _ in range(count))


def open_loop(clock, cycle: Callable[[], object], stations: List[FileClient],
              make_request: Callable[[FileClient], Request],
              check: Callable[[FileClient, Response], bool],
              arrivals: List[int], tally: Tally,
              lags_us: List[int]) -> List[Optional[int]]:
    """Arrivals on a fixed schedule, round-robin over the stations.

    A station holds one request in flight; arrivals due while it is busy
    queue at the station.  Returns each arrival's completion instant
    (None if it never completed); latency is that minus the *scheduled*
    arrival, so time spent queued behind a stall counts.  ``lags_us[i]``
    becomes how late arrival *i* was actually sent.
    """
    count = len(stations)
    backlog = [deque() for _ in stations]
    pending: List[Optional[tuple]] = [None] * count
    done: List[Optional[int]] = [None] * len(arrivals)
    in_flight = queued = 0
    next_arrival = 0
    stalls = 0
    while next_arrival < len(arrivals) or in_flight or queued:
        now = clock.now_us
        while next_arrival < len(arrivals) and arrivals[next_arrival] <= now:
            backlog[next_arrival % count].append(next_arrival)
            next_arrival += 1
            queued += 1
        for index in range(count):
            if pending[index] is None and backlog[index]:
                arrival = backlog[index].popleft()
                queued -= 1
                lags_us[arrival] = now - arrivals[arrival]
                station = stations[index]
                pending[index] = (station.submit(make_request(station)),
                                  arrival)
                in_flight += 1
                tally.attempted += 1
        cycle()
        progressed = False
        for index in range(count):
            entry = pending[index]
            if entry is None:
                continue
            station = stations[index]
            try:
                response = station.step(entry[0])
            except RequestTimeout:
                tally.fail("request-timeout")
                pending[index] = None
                in_flight -= 1
                continue
            if response is None:
                continue
            progressed = True
            pending[index] = None
            in_flight -= 1
            done[entry[1]] = clock.now_us
            tally.completed += 1
            tally.expect(check(station, response), "read-answer")
        if progressed:
            stalls = 0
            continue
        stalls += 1
        if stalls > STALL_LIMIT:
            tally.fail("driver-stalled")
            break
        step = IDLE_STEP_US
        if not in_flight and not queued and next_arrival < len(arrivals):
            step = max(step, arrivals[next_arrival] - clock.now_us)
        clock.advance_us(step, "server.client.wait")
    return done


def attach_stations(network: PacketNetwork, count: int) -> List[FileClient]:
    stations = []
    for index in range(count):
        host = f"ws{index:03d}"
        network.attach(host)
        stations.append(FileClient(network, host))
    return stations


# ----------------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------------

class Workload:
    """One round of one workload; subclasses fill in the three phases."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tally = Tally()
        self.latencies_us: List[int] = []
        self.lags_us: List[int] = []
        #: Bytes clients asked the service to store in the window.
        self.user_bytes = 0
        self.sim: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def drive(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """Output checks that need the window to be over."""

    def clocks(self) -> list:
        """Every simulated machine's clock (the stats sources)."""
        raise NotImplementedError

    def serving_clock(self):
        """The clock the serving machine's elapsed time lives on."""
        raise NotImplementedError

    def stats(self) -> Dict:
        seen, snapshots = set(), []
        for clock in self.clocks():
            if id(clock) not in seen:
                seen.add(id(clock))
                snapshots.append(clock.obs.stats())
        return merge_stats(snapshots)

    def check_one_clock(self, stations: List[FileClient]) -> None:
        """Every client latency must be read from the serving clock."""
        self.tally.check(all(s.clock is self.serving_clock() for s in stations),
                         "one-clock")


class ReadHot(Workload):
    """Open-loop 1-page READs of warm per-station files on a 4-shard cluster."""

    name = "read-hot"
    SHARDS = 4
    CACHE_SECTORS = 512
    FILE_BYTES = 256
    #: ~90% of the ~1,780 req/s plateau measured for E17.
    OFFERED_RPS = 1600.0
    OFFERED_S = 2.5
    JITTER_US = 100
    #: Far above capacity: the achieved rate is the plateau.
    SATURATE_RPS = 6400.0
    SATURATE_S = 0.4

    def setup(self) -> None:
        self.layout = random.Random(LAYOUT_SEED)
        rng = self.rng = random.Random(f"read-hot:{self.seed}")
        network = PacketNetwork()
        shards = []
        for index in range(self.SHARDS):
            drive = CachedDrive(DiskImage(diablo31()),
                                cache_sectors=self.CACHE_SECTORS)
            fs = FileSystem.format(drive)
            host = f"shard{index:02d}"
            network.attach(host, queue_limit=4096, clock=drive.clock)
            shards.append(FileServer(fs, network, host=host, max_pending=128))
        self.network = network
        self.shards = shards
        self.router = ShardRouter(shards, network, seed=LAYOUT_SEED,
                                  max_pending=128, per_shard_window=32)
        self.stations = attach_stations(network, STATIONS)
        self.handles: Dict[FileClient, int] = {}
        self.expect: Dict[FileClient, tuple] = {}
        for station in self.stations:
            data = random_bytes(rng, self.FILE_BYTES)
            station.pump = self.router.poll
            station.write_file(f"hot-{station.host}.dat", data)
            handle, _ = station.open(f"hot-{station.host}.dat")
            station.pump = None
            self.handles[station] = handle
            self.expect[station] = tuple(bytes_to_words(data))
        self.check_one_clock(self.stations)

    def clocks(self) -> list:
        return ([self.network.clock, self.router.front_clock]
                + [shard.clock for shard in self.shards])

    def serving_clock(self):
        return self.router.clock

    def _request(self, station: FileClient) -> Request:
        return station.build_read(self.handles[station], 1, 1)

    def _check(self, station: FileClient, response: Response) -> bool:
        expect = self.expect[station]
        return (response.status == ST_OK and response.result0 == 1
                and response.payload[:len(expect)] == expect)

    def drive(self) -> None:
        # One schedule, two rates: the offered phase, then -- straight on,
        # with the offered phase's stragglers still queued -- a burst far
        # above capacity, whose completion rate is the plateau.
        clock = self.network.clock
        start = clock.now_us
        offered = poisson_arrivals(self.layout, self.rng, start,
                                   self.OFFERED_RPS, self.OFFERED_S,
                                   self.JITTER_US)
        switch = start + int(self.OFFERED_S * 1_000_000)
        burst = poisson_arrivals(self.layout, self.rng, switch,
                                 self.SATURATE_RPS, self.SATURATE_S,
                                 self.JITTER_US)
        arrivals = offered + burst
        lags_us = [0] * len(arrivals)
        done = open_loop(clock, self.router.poll, self.stations,
                         self._request, self._check, arrivals, self.tally,
                         lags_us)
        # Generator lateness is a property of the offered phase; in the
        # burst every station is backlogged by design.
        self.lags_us = lags_us[:len(offered)]
        self.tally.check(None not in done, "every-arrival-completes")
        served = [(index, at) for index, at in enumerate(done) if at is not None]
        first = [(index, at) for index, at in served if index < len(offered)]
        self.latencies_us = [at - arrivals[index] for index, at in first]
        self.sim = latency_summary(
            self.latencies_us, max((at for _, at in first), default=start) - start,
            len(first))
        last = max((at for index, at in served if index >= len(offered)),
                   default=switch)
        self.sim["sim_capacity_rps"] = ((len(served) - len(first)) * 1_000_000
                                        / max(1, last - switch))


class WriteReplicated(Workload):
    """Closed-loop upload / read-back / LIST / delete on a replicated pack."""

    name = "write-replicated"
    CACHE_SECTORS = 512
    #: ~48 KB per station: 8 stations' files outgrow the 256 KB cache.
    #: The layout draws each file's page count; the seed moves it by up to
    #: one page and draws the bytes, tail page included.
    MIN_PAGES = 78
    MAX_PAGES = 110
    ITERATIONS = 3
    #: Pages a delete frees per request (see :meth:`_script`).
    SHRINK_PAGES = 4

    def setup(self) -> None:
        layout = random.Random(LAYOUT_SEED)
        rng = random.Random(f"write-replicated:{self.seed}")
        drive = CachedDrive(DiskImage(diablo31()),
                            cache_sectors=self.CACHE_SECTORS)
        self.fs = fs = FileSystem.format(drive)
        network = PacketNetwork(clock=drive.clock)
        network.attach("fileserver", queue_limit=4096, clock=drive.clock)
        self.network = network
        self.standby = ReplicaStandby(network, diablo31())
        self.server = ReplicatedFileServer(fs, network, self.standby,
                                           max_pending=128)
        self.server.replication.bootstrap()
        # The window starts with a cold cache: nothing from the format.
        drive.flush_and_invalidate()
        self.stations = attach_stations(network, STATIONS)
        self.payloads = {
            station: [random_bytes(rng, FULL_PAGE * (layout.randrange(
                          self.MIN_PAGES, self.MAX_PAGES) + rng.randint(-1, 1))
                          + rng.randrange(1, FULL_PAGE))
                      for _ in range(self.ITERATIONS)]
            for station in self.stations}
        self.check_one_clock(self.stations)

    def clocks(self) -> list:
        return [self.network.clock, self.standby.clock]

    def serving_clock(self):
        return self.server.clock

    def cycle(self) -> None:
        self.server.poll()
        self.standby.poll()

    def _script(self, station: FileClient) -> Script:
        tally = self.tally
        name = f"up-{station.host}.dat"
        for data in self.payloads[station]:
            self.user_bytes += len(data)
            response = yield station.build_open(name, create=True)
            if not tally.expect(response.status == ST_OK, "open-create"):
                return
            handle = response.handle
            for page, chunk in page_chunks(data):
                response = yield station.build_write(handle, page, chunk)
                tally.expect(response.status == ST_OK, "write")
            response = yield station.build_close(handle)
            tally.expect(response.status == ST_OK, "close")
            yield from read_whole(station, name, data, MAX_BATCH_PAGES, tally)
            response = yield station.build_list()
            tally.expect(response.status == ST_OK
                         and name in parse_names(response), "list-names-file")
            # The protocol has no DELETE: a short WRITE is its only way to
            # shrink a file.  The station frees the pages tail first, a few
            # per request.
            response = yield station.build_open(name)
            handle = response.handle
            last = len(page_chunks(data))
            while last > 1:
                keep = max(1, last - self.SHRINK_PAGES)
                response = yield station.build_write(handle, keep, b"")
                tally.expect(response.status == ST_OK
                             and response.result0 == keep, "delete-shrinks")
                last = keep
            response = yield station.build_close(handle)
            tally.expect(response.status == ST_OK, "close")

    def drive(self) -> None:
        clock = self.network.clock
        start = clock.now_us
        closed_loop(clock, self.cycle,
                    {s: self._script(s) for s in self.stations},
                    self.tally, self.latencies_us)
        self.sim = latency_summary(self.latencies_us, clock.now_us - start,
                                   self.tally.completed)
        self.sim["sim_capacity_rps"] = self.sim["sim_ops_per_s"]

    def verify(self) -> None:
        replication = self.server.replication
        for _ in range(STALL_LIMIT):
            if replication.standby_lag == 0 and not self.server.has_work():
                break
            self.cycle()
            self.network.clock.advance_us(IDLE_STEP_US, "server.client.wait")
        self.tally.check(replication.standby_lag == 0, "standby-drained")
        self.tally.check(self.standby.image.digest()
                         == self.fs.drive.image.digest(),
                         "standby-digest-equals-primary")


class MaintPatrol(Workload):
    """One reader verifying every byte while a sweep+compact pass runs."""

    name = "maint-patrol"
    #: Pack size: the per-slice full-pack check makes host time grow with
    #: the square of this, so it is the knob that shows that cost.
    CYLINDERS = 32
    FILES = 24
    MEAN_BYTES = 6000
    READ_BATCH = 4
    #: The seed draws the reader's think time between requests: up to one
    #: sector time, so requests reach the disk at every rotational phase.
    THINK_MAX_US = 3_333

    def setup(self) -> None:
        layout = random.Random(LAYOUT_SEED)
        rng = random.Random(f"maint-patrol:{self.seed}")
        self.rng = rng
        shape = DiskShape(name=f"patrol_{self.CYLINDERS}cyl",
                          cylinders=self.CYLINDERS)
        self.fs = fs = FileSystem.format(DiskDrive(DiskImage(shape)))
        payloads: Dict[str, bytes] = {}
        for index in range(self.FILES):
            size = min(20_000, max(0, int(layout.gauss(self.MEAN_BYTES,
                                                       self.MEAN_BYTES / 2))))
            data = random_bytes(rng, size)
            fs.create_file(f"file{index:04}.dat").write_data(data)
            payloads[f"file{index:04}.dat"] = data
        # Fragment the pack: a quarter of the files go.
        for name in layout.sample(sorted(payloads), self.FILES // 4):
            fs.delete_file(name)
            del payloads[name]
        fs.sync()
        self.payloads = payloads
        network = PacketNetwork(clock=fs.drive.clock)
        network.attach("fileserver")
        self.network = network
        self.server = FileServer(fs, network)
        self.maint = OnlineMaintenance(fs).attach(self.server)
        self.stations = attach_stations(network, 1)
        self.check_one_clock(self.stations)

    def clocks(self) -> list:
        return [self.fs.drive.clock]

    def serving_clock(self):
        return self.server.clock

    def _script(self, station: FileClient) -> Script:
        names = sorted(self.payloads)
        reads = 0
        while reads < len(names) or self.maint.phase != "done":
            name = names[reads % len(names)]
            yield from read_whole(station, name, self.payloads[name],
                                  self.READ_BATCH, self.tally)
            reads += 1

    def drive(self) -> None:
        clock = self.network.clock
        start = clock.now_us
        station = self.stations[0]
        closed_loop(clock, self.server.poll, {station: self._script(station)},
                    self.tally, self.latencies_us,
                    think_us=lambda: self.rng.randrange(self.THINK_MAX_US))
        self.sim = latency_summary(self.latencies_us, clock.now_us - start,
                                   self.tally.completed)
        self.sim["sim_capacity_rps"] = self.sim["sim_ops_per_s"]

    def verify(self) -> None:
        self.tally.check(self.maint.phase == "done", "maintenance-pass-done")
        self.fs.flush()
        report = check_image(self.fs.drive.image)
        self.tally.check(not report.issues, "fsck-clean-after-pass")


WORKLOADS = {cls.name: cls for cls in (ReadHot, WriteReplicated, MaintPatrol)}
