"""The load generator: a deterministic multi-client request schedule.

Builds N clients, gives each a seeded script (upload a private file, read
it back in batched sequential READs, list the directory), and runs them
through :func:`drive`, the one submit/poll/step loop -- all at once
(:meth:`LoadGenerator.run`) or one client at a time
(:meth:`~LoadGenerator.run_sequential`, the baseline that shows what
multiplexing buys).  The open loop and the session storm only build
other scripts, and every mode reports one :class:`LoadResult`.

Everything derives from one seed, so two runs with the same seed and
schedule produce byte-identical disk images and identical metrics
snapshots (``tests/server/test_loadgen.py`` proves it).

>>> from repro.server.loadgen import build_system, LoadGenerator
>>> system = build_system(clients=2)
>>> result = LoadGenerator(system, file_bytes=600, read_rounds=1).run()
>>> result.clients, result.requests > 0, result.errors
(2, True, 0)
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple, Union

from ..disk.cache import CachedDrive
from ..disk.drive import DiskDrive
from ..disk.geometry import diablo31, tiny_test_disk
from ..disk.image import DiskImage
from ..fs.filesystem import FileSystem
from ..net.network import PacketNetwork
from ..obs.metrics import SUB_BUCKET_BITS
from ..words import random_bytes
from .client import FileClient, PendingRequest, page_chunks
from .engine import FileServer
from .protocol import Request, Response, ST_OK

#: Maximum driver rounds with zero progress before declaring livelock.
STALL_LIMIT = 10_000


@dataclass
class ServedSystem:
    """One simulated machine room: server FS, wire, server, clients."""

    fs: FileSystem
    network: PacketNetwork
    server: FileServer
    clients: List[FileClient]

    @property
    def clock(self):
        return self.fs.drive.clock

    def stats(self) -> Dict:
        """The unified flat stats snapshot (one machine, one clock)."""
        return self.clock.obs.stats()


def _format_pack(cached: bool, cache_sectors: int, tiny: bool) -> FileSystem:
    """One server machine's freshly formatted pack, on its own drive (and
    so its own clock)."""
    image = DiskImage(tiny_test_disk(cylinders=40) if tiny else diablo31())
    drive = (CachedDrive(image, cache_sectors=cache_sectors)
             if cached else DiskDrive(image))
    return FileSystem.format(drive)


def _attach_clients(network: PacketNetwork, clients: int) -> List[FileClient]:
    """Workstations ``ws000``, ``ws001``, ... on *network*."""
    stations = []
    for index in range(clients):
        host = f"ws{index:03d}"
        network.attach(host)
        stations.append(FileClient(network, host))
    return stations


def build_system(
    clients: int,
    cached: bool = True,
    cache_sectors: int = 512,
    max_pending: int = 128,
    tiny: bool = False,
) -> ServedSystem:
    """Format a pack and attach a server plus *clients* workstations.

    ``cached=True`` (the default) serves from the write-back
    :class:`~repro.disk.cache.CachedDrive`, which is what gives the
    engine's one-flush-per-poll batching its bite; ``tiny=True`` uses the
    small test geometry for fast unit tests.
    """
    fs = _format_pack(cached, cache_sectors, tiny)
    network = PacketNetwork(clock=fs.drive.clock)
    network.attach("fileserver", queue_limit=4096)
    server = FileServer(fs, network, max_pending=max_pending)
    return ServedSystem(fs, network, server, _attach_clients(network, clients))


@dataclass
class ClusterSystem:
    """One simulated machine room with N shard machines behind a router.

    Quacks like :class:`ServedSystem` where the load generator cares
    (``server`` polls, ``clock`` is elapsed time, ``clients`` drive), so
    the same :func:`drive` runs against both.
    """

    shards: List[FileServer]
    network: PacketNetwork
    router: "ShardRouter"
    clients: List[FileClient]

    @property
    def server(self):
        """The router fronts the cluster: it is what the driver polls."""
        return self.router

    @property
    def clock(self):
        """Cluster elapsed time: the router (network) clock."""
        return self.network.clock

    def stats(self) -> Dict:
        """Counters merged across the router and every shard machine.

        Per-machine clocks mean per-machine registries; the merge sums
        counters (``server.requests`` becomes the cluster total) and
        takes the max of clock positions and high-water gauges.
        """
        from ..obs import merge_stats

        snapshots = [self.clock.obs.stats(), self.router.front_clock.obs.stats()]
        snapshots.extend(shard.clock.obs.stats() for shard in self.shards)
        return merge_stats(snapshots)


def build_cluster(
    clients: int,
    shards: int = 2,
    seed: int = 1979,
    cached: bool = True,
    cache_sectors: int = 512,
    max_pending: int = 128,
    per_shard_window: int = 32,
    tiny: bool = False,
) -> ClusterSystem:
    """Format *shards* packs, each behind its own :class:`FileServer` on
    its own simulated machine (own clock), fronted by a
    :class:`~repro.server.router.ShardRouter` on the ``"fileserver"``
    host -- clients are built exactly as :func:`build_system` builds them
    and cannot tell the difference.

    >>> from repro.server.loadgen import build_cluster
    >>> system = build_cluster(clients=2, shards=2, tiny=True)
    >>> len(system.shards), system.server is system.router
    (2, True)
    """
    from .router import ShardRouter

    network = PacketNetwork()
    servers = []
    for index in range(shards):
        fs = _format_pack(cached, cache_sectors, tiny)
        host = f"shard{index:02d}"
        network.attach(host, queue_limit=4096, clock=fs.drive.clock)
        servers.append(FileServer(fs, network, host=host,
                                  max_pending=max_pending))
    router = ShardRouter(servers, network, seed=seed,
                         max_pending=max_pending,
                         per_shard_window=per_shard_window)
    return ClusterSystem(servers, network, router,
                         _attach_clients(network, clients))


@dataclass
class LoadResult:
    """Aggregate outcome of one load run in any mode (times simulated);
    ``mode`` is ``concurrent``, ``sequential``, ``open-loop`` or ``storm``."""

    mode: str
    clients: int
    requests: int
    errors: int
    elapsed_s: float
    requests_per_sec: float
    p50_ms: float
    p99_ms: float
    #: The same percentiles re-derived from the ``loadgen.request_us``
    #: registry histogram -- reported alongside the raw-list values so a
    #: silent divergence between the two latency paths cannot hide.
    p50_hist_ms: float
    p99_hist_ms: float
    retries: int
    busy_retries: int
    rejected: int
    flushes: int
    sessions: int       #: live server sessions when the run drained
    evicted: int        #: ``server.sessions_evicted``
    wakeups: int        #: ``server.wakeups`` -- only woken sessions cost
    bytes_written: int  #: file bytes the scripts uploaded
    bytes_read: int
    latencies_ms: List[float] = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "latencies_ms"}


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 for empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def check_quantile_agreement(sorted_us: List[int], hist, fraction: float) -> float:
    """Cross-check the histogram's quantile against the raw sample list.

    Returns the histogram estimate after asserting it brackets the true
    ceil-rank sample within the log-bucket relative-error bound (the
    :data:`~repro.obs.metrics.SUB_BUCKET_BITS` contract).  Loadgen keeps
    both latency paths -- raw list and registry histogram -- and this is
    what stops them drifting apart silently.
    """
    estimate = hist.quantile(fraction)
    if not sorted_us:
        assert estimate == 0.0
        return estimate
    rank = min(len(sorted_us), max(1, math.ceil(fraction * len(sorted_us))))
    true_value = sorted_us[rank - 1]
    assert true_value <= estimate <= true_value * (1 + 2 ** -SUB_BUCKET_BITS), (
        f"histogram q{fraction} = {estimate} does not bracket "
        f"rank-{rank} sample {true_value}")
    return estimate


def _latency_histogram(system):
    return system.clock.obs.registry.histogram("loadgen.request_us")


#: One station's workload: yields a request, or a ``(due_us, request)``
#: pair not to be sent before ``due_us``, and is sent each response.
Script = Generator[Union[Request, Tuple[int, Request]], Response, None]


def drive(system, scripts: Dict[FileClient, Script],
          progress: Optional[Callable[[int], None]] = None,
          ) -> Tuple[List[int], int]:
    """Run every station's script to completion, one poll per round.

    Each round, every idle station whose next request is due submits it
    (in *scripts* order), ``system.server`` polls once, and every pending
    request is stepped; a script gets its response, and yields its next
    request, the moment the response lands.  A round that completes
    nothing waits 1 ms, or jumps to the earliest due request when none
    is in flight.  *progress* gets the running completed count after
    every round that completed one.  Returns ``(latencies_us, errors)``:
    latency runs from the due time if the script gave one, else from the
    first send, and is also observed into ``loadgen.request_us``.

    >>> from repro.server.loadgen import build_system, drive
    >>> system = build_system(clients=1, tiny=True)
    >>> station = system.clients[0]
    >>> def listing():
    ...     response = yield station.build_list()
    ...     print(response.status_name)
    >>> latencies_us, errors = drive(system, {station: listing()})
    ok
    >>> len(latencies_us), errors
    (1, 0)
    """
    clock = system.clock
    histogram = _latency_histogram(system)
    latencies: List[int] = []
    errors = 0
    waiting: Dict[FileClient, Tuple[Optional[int], Request]] = {}
    pendings: Dict[FileClient, Tuple[PendingRequest, Optional[int]]] = {}

    def fetch(station: FileClient, response: Optional[Response]) -> None:
        try:
            item = scripts[station].send(response)
        except StopIteration:
            return
        waiting[station] = item if isinstance(item, tuple) else (None, item)

    for station in scripts:
        fetch(station, None)
    stalls = 0
    while waiting or pendings:
        now = clock.now_us
        for station in scripts:
            item = waiting.get(station)
            if item is not None and (item[0] is None or item[0] <= now):
                del waiting[station]
                pendings[station] = (station.submit(item[1]), item[0])
        system.server.poll()
        completed = len(latencies)
        for station in list(pendings):
            pending, due_us = pendings[station]
            response = station.step(pending)
            if response is None:
                continue
            del pendings[station]
            latency_us = clock.now_us - (pending.first_sent_us
                                         if due_us is None else due_us)
            latencies.append(latency_us)
            histogram.observe(latency_us)
            if response.status != ST_OK:
                errors += 1
            fetch(station, response)
        if len(latencies) > completed:
            stalls = 0
            if progress is not None:
                progress(len(latencies))
            continue
        stalls += 1
        if stalls > STALL_LIMIT:
            raise RuntimeError("load driver stalled: no station progressed "
                               "for too many rounds")
        wait_us = 1_000
        if not pendings and waiting:
            wait_us = max(wait_us, min(due_us for due_us, _ in waiting.values())
                          - clock.now_us)
        clock.advance_us(wait_us, "server.client.wait")
    return latencies, errors


def _result(mode: str, system, started_us: int,
            outcomes: List[Tuple[List[int], int]],
            bytes_written: int = 0) -> LoadResult:
    """Fold the :func:`drive` outcomes of one run into a :class:`LoadResult`."""
    stats = system.stats()
    latencies_us = sorted(us for latencies, _ in outcomes for us in latencies)
    latencies_ms = [us / 1000.0 for us in latencies_us]
    elapsed_us = system.clock.now_us - started_us
    elapsed_s = elapsed_us / 1_000_000.0
    histogram = _latency_histogram(system)
    if histogram.count == len(latencies_us):
        # A fresh system: the histogram holds exactly these samples, so
        # its quantiles must bracket the true nearest-rank values.
        p50_hist = check_quantile_agreement(latencies_us, histogram, 0.50)
        p99_hist = check_quantile_agreement(latencies_us, histogram, 0.99)
    else:
        p50_hist = histogram.quantile(0.50)
        p99_hist = histogram.quantile(0.99)
    return LoadResult(
        mode=mode,
        clients=len(system.clients),
        requests=len(latencies_us),
        errors=sum(errors for _, errors in outcomes),
        elapsed_s=round(elapsed_s, 6),
        requests_per_sec=(round(len(latencies_us) / elapsed_s, 3)
                          if elapsed_us else 0.0),
        p50_ms=round(percentile(latencies_ms, 0.50), 3),
        p99_ms=round(percentile(latencies_ms, 0.99), 3),
        p50_hist_ms=round(p50_hist / 1000.0, 3),
        p99_hist_ms=round(p99_hist / 1000.0, 3),
        retries=int(stats.get("server.client.retries", 0)),
        busy_retries=int(stats.get("server.client.busy_retries", 0)),
        rejected=int(stats.get("server.rejected", 0)),
        flushes=int(stats.get("server.flushes", 0)),
        sessions=len(system.server.sessions),
        evicted=int(stats.get("server.sessions_evicted", 0)),
        wakeups=int(stats.get("server.wakeups", 0)),
        bytes_written=bytes_written,
        bytes_read=int(stats.get("server.pages_read", 0)) * 512,
        latencies_ms=latencies_ms,
    )


def run_session_storm(
    clients: int = 10_000,
    shared_files: int = 32,
    seed: int = 1979,
    system: Optional[ServedSystem] = None,
) -> LoadResult:
    """Hold *clients* concurrent sessions open against one server.

    The Diablo 31 pack has nowhere near ten thousand files' worth of
    sectors, so the storm shares ``shared_files`` read-only files among
    all stations: every station OPENs one (creating its server session
    and holding the handle for the rest of the run), then READs one page
    through it.  Stations arrive in waves of half the server's admission
    window (one :func:`drive` per wave), so the storm exercises
    session-table and ready-queue scale, not rejection; with the
    event-driven engine the nine-thousand-odd sessions that are *not* in
    a wave sleep and cost each poll nothing (watch ``wakeups`` against
    ``clients * polls``).

    Pass a prebuilt *system* to reuse a topology (its station count then
    wins over *clients*):

    >>> from repro.server.loadgen import build_system, run_session_storm
    >>> storm = run_session_storm(clients=8, shared_files=2,
    ...                           system=build_system(8, tiny=True))
    >>> storm.sessions, storm.requests, storm.errors, storm.evicted
    (8, 16, 0, 0)
    """
    if system is None:
        system = build_system(clients=clients)
    stations = system.clients
    rng = random.Random(seed)

    # Seed the shared read-only files before the measured window opens.
    names = [f"shared{index:03d}.dat" for index in range(shared_files)]
    uploader = stations[0]
    uploader.pump = system.server.poll
    for name in names:
        uploader.write_file(name, random_bytes(rng, 256))
    uploader.pump = None

    handles: Dict[FileClient, int] = {}

    def hold(index: int, station: FileClient) -> Script:
        response = yield station.build_open(names[index % len(names)])
        handles[station] = response.handle

    def touch(index: int, station: FileClient) -> Script:
        yield station.build_read(handles[station], 1, 1)

    started_us = system.clock.now_us
    wave = max(1, system.server.max_pending // 2)
    outcomes = [
        drive(system, {station: script(base + offset, station)
                       for offset, station
                       in enumerate(stations[base:base + wave])})
        for script in (hold, touch)
        for base in range(0, len(stations), wave)]
    return _result("storm", system, started_us, outcomes)


def client_script(client: FileClient, name: str, data: bytes,
                  read_rounds: int) -> Script:
    """The per-client closed-loop workload: upload *name*, read it back
    *read_rounds* times in batched sequential READs, list the directory."""
    from ..fs.file import FULL_PAGE

    response = yield client.build_open(name, create=True)
    handle = response.handle
    for page, chunk in page_chunks(data):
        yield client.build_write(handle, page, chunk)
    yield client.build_close(handle)

    for _ in range(read_rounds):
        response = yield client.build_open(name)
        handle = response.handle
        size = (response.result0 << 16) | response.result1
        pages = max(1, (size + FULL_PAGE - 1) // FULL_PAGE)
        page = 1
        while page <= pages:
            want = min(client.read_batch_pages, pages - page + 1)
            response = yield client.build_read(handle, page, want)
            page += max(1, response.result0)
        yield client.build_close(handle)
    yield client.build_list()


@dataclass
class LoadGenerator:
    """Builds every client's script from one seed and drives it three ways."""

    system: ServedSystem
    seed: int = 1979
    file_bytes: int = 2048
    read_rounds: int = 2

    def _scripts(self) -> Tuple[Dict[FileClient, Script], int]:
        """Every client's :func:`client_script`, plus the bytes they upload."""
        rng = random.Random(self.seed)
        scripts = {}
        bytes_written = 0
        for index, client in enumerate(self.system.clients):
            size = self.file_bytes + rng.randrange(0, 256)
            scripts[client] = client_script(
                client, f"load{index:03d}.dat", random_bytes(rng, size),
                self.read_rounds)
            bytes_written += size
        return scripts, bytes_written

    def run(self, progress: Optional[Callable[[int], None]] = None) -> LoadResult:
        """Concurrent mode: every client's script in one :func:`drive`
        (*progress* is how ``python -m repro top`` refreshes mid-run)."""
        scripts, bytes_written = self._scripts()
        started_us = self.system.clock.now_us
        outcome = drive(self.system, scripts, progress)
        return _result("concurrent", self.system, started_us, [outcome],
                       bytes_written)

    def run_sequential(self) -> LoadResult:
        """Baseline mode: the same scripts, one :func:`drive` per client."""
        scripts, bytes_written = self._scripts()
        started_us = self.system.clock.now_us
        outcomes = [drive(self.system, {client: script})
                    for client, script in scripts.items()]
        return _result("sequential", self.system, started_us, outcomes,
                       bytes_written)

    def run_open_loop(self, rate_rps: float, duration_s: float) -> LoadResult:
        """Open-loop mode: Poisson arrivals at *rate_rps*, independent of
        completions, for *duration_s* simulated seconds of offered load.

        The closed-loop modes cannot see saturation: each client waits for
        its response before issuing again, so offered load falls exactly
        as the server slows (coordinated omission).  Here the arrival
        schedule is drawn up front from a seeded exponential process and
        **latency is measured from the scheduled arrival time** -- if a
        station is still busy when its next request falls due, the time
        the request spends waiting to even be sent counts.  Past the
        capacity knee that backlog grows without bound and p99 explodes,
        which is precisely the curve benchmark E15 pins.

        Arrivals round-robin over the stations; each is a 1-page READ of a
        small per-station file uploaded (closed-loop) before the measured
        window opens.
        """
        system = self.system
        stations = system.clients
        rng = random.Random(self.seed)

        # Setup phase, unmeasured: each station uploads one small file and
        # re-opens it, so the measured window is pure READ traffic.
        handles: Dict[FileClient, int] = {}
        for index, client in enumerate(stations):
            client.pump = system.server.poll
            name = f"open{index:03d}.dat"
            client.write_file(name, random_bytes(rng, 256))
            handles[client], _ = client.open(name)
            client.pump = None

        # The offered schedule: exponential gaps, one station per arrival.
        started_us = system.clock.now_us
        horizon_us = started_us + int(duration_s * 1_000_000)
        arrivals: List[int] = []
        at_us = started_us + rng.expovariate(rate_rps) * 1_000_000
        while at_us < horizon_us:
            arrivals.append(int(at_us))
            at_us += rng.expovariate(rate_rps) * 1_000_000

        def reads(index: int, station: FileClient) -> Script:
            for due_us in arrivals[index::len(stations)]:
                yield due_us, station.build_read(handles[station], 1, 1)

        outcome = drive(system, {station: reads(index, station)
                                 for index, station in enumerate(stations)})
        return _result("open-loop", system, started_us, [outcome])
