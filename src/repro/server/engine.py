"""The request engine: many client sessions multiplexed onto one FileSystem.

:class:`FileServer` is a deterministic, simulated-time, **event-driven**
server.  ``poll()`` is one cycle of its event loop: drain the wire and
wake the sessions packets arrived for, admit each frame under the
:class:`~repro.server.qos.AdmissionCurve` (rejecting sheds with
``ST_BUSY`` -- backpressure the client's retry/backoff absorbs), run the
**ready queue** -- only sessions with admitted work are visited, in QoS
class rotation with per-class request allowances -- then finish with
**one** write-back flush covering every write the cycle performed and,
when a patrol is attached, one bounded maintenance slice.

Sessions with nothing queued **sleep**: they cost nothing per cycle, so
one server holds ten thousand concurrent sessions and each poll's work
is proportional to the *ready* set, not the session count (benchmark
E17).  The single-flush batching is still where multiplexed serving
beats sequential serving (see ``benchmarks/bench_server.py``), and the
default configuration -- every client ``interactive``, cliff admission
-- services requests in exactly the order the PR-5 round-robin loop did
(:class:`~repro.server.polled.PolledFileServer` keeps that loop alive as
the differential reference; ``tests/server/test_engine_equivalence.py``
proves the equivalence).

Everything is observable: each request runs under a ``server.request``
span, and the engine keeps counters/gauges in the machine's metrics
registry (``server.requests``, ``server.rejected``, ``server.wakeups``,
``server.sessions_evicted``, ``server.queue.depth``,
``server.request_us``, ...; see OBSERVABILITY.md).

>>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
>>> from repro.net import PacketNetwork
>>> from repro.server import FileClient, FileServer
>>> fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
>>> net = PacketNetwork(clock=fs.drive.clock)
>>> net.attach("fileserver"); net.attach("ws")
>>> server = FileServer(fs, net)
>>> client = FileClient(net, "ws", pump=server.poll)
>>> client.write_file("memo.txt", b"an afternoon's user code")
24
>>> client.read_file("memo.txt")
b"an afternoon's user code"
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..errors import (
    DirectoryError,
    DiskFull,
    FileNotFound,
    FileSystemError,
    ServerError,
)
from ..fs.file import FULL_PAGE
from ..net.network import Packet, PacketNetwork
from .protocol import (
    FLAG_CREATE,
    FrameAssembler,
    MAX_BATCH_PAGES,
    OP_CLOSE,
    OP_LIST,
    OP_OPEN,
    OP_READ,
    OP_WRITE,
    Request,
    Response,
    ST_BAD_HANDLE,
    ST_BAD_PAGE,
    ST_BAD_REQUEST,
    ST_BUSY,
    ST_ERROR,
    ST_NAMES,
    ST_NOT_FOUND,
    ST_OK,
    decode_name,
    encode_names,
    encode_response,
    receive_frames,
)
from .qos import (
    DEFAULT_QOS_WEIGHTS,
    QOS_CLASSES,
    QOS_INTERACTIVE,
    AdmissionCurve,
)
from .session import Session

#: Default bound on admitted-but-unserviced requests across all clients.
DEFAULT_MAX_PENDING = 64

#: Simulated CPU cost charged per serviced request (decode + dispatch).
SERVICE_CPU_US = 150

#: Simulated CPU cost charged per ``poll()`` wakeup (queue scan, flush
#: decision) -- the fixed cost that batching amortizes.
POLL_CPU_US = 300


class FileServer:
    """Serves the wire protocol of :mod:`repro.server.protocol` over a
    :class:`~repro.net.network.PacketNetwork` from one
    :class:`~repro.fs.filesystem.FileSystem`.

    The server is passive: it runs only when :meth:`poll` is called, which
    keeps every run deterministic -- the interleaving is exactly the
    caller's schedule.  Scheduling is by QoS class: each visit to a class
    may serve its :data:`~repro.server.qos.DEFAULT_QOS_WEIGHTS` weight in
    requests, one per session wakeup, round-robin over that class's ready
    sessions in first-admission order.  With every client in the default
    ``interactive`` class this degenerates to the PR-5 behaviour exactly:
    one request per client per turn, strict alternation under load.
    """

    def __init__(
        self,
        fs,
        network: PacketNetwork,
        host: str = "fileserver",
        max_pending: int = DEFAULT_MAX_PENDING,
        admission: Optional[AdmissionCurve] = None,
        admission_seed: int = 1979,
    ) -> None:
        self.fs = fs
        self.network = network
        self.host = host
        self.max_pending = max_pending
        #: The admission policy; defaults to the hard cliff at
        #: ``max_pending`` (byte-identical to the PR-5 engine).
        self.admission = (admission if admission is not None
                          else AdmissionCurve.cliff(max_pending))
        self.clock = fs.drive.clock
        self.obs = self.clock.obs
        self.assembler = FrameAssembler()
        #: Optional :class:`repro.fs.online.OnlineMaintenance`: when set,
        #: one bounded slice runs at the end of every poll cycle,
        #: interleaving scavenge/compaction with request service.
        self.maintenance = None
        self.sessions: Dict[str, Session] = {}
        #: Per-client FIFOs of admitted work; a client has an entry only
        #: while it has queued requests (otherwise its session sleeps).
        self._queues: Dict[str, Deque[Tuple[Request, int]]] = {}
        #: First-admission order, the round-robin tie-break: stable for a
        #: client's lifetime so the schedule matches the polled engine.
        self._client_seq: Dict[str, int] = {}
        self._next_client_seq = 0
        #: The ready queue: per-class sets of clients with queued work.
        self._ready: Dict[str, Set[str]] = {cls: set() for cls in QOS_CLASSES}
        #: Per-class scan cursor (last served client's seq; -1 = start).
        self._cursor: Dict[str, int] = {cls: -1 for cls in QOS_CLASSES}
        self._class_cursor = 0
        self._qos: Dict[str, str] = {}
        self._pending = 0
        self._in_cycle = False
        self._rng = random.Random(f"admission:{admission_seed}:{host}")
        registry = self.obs.registry
        self._c_requests = registry.counter("server.requests")
        self._c_rejected = registry.counter("server.rejected")
        self._c_shaped = registry.counter("server.shaped")
        self._c_replayed = registry.counter("server.replayed")
        self._c_errors = registry.counter("server.errors")
        self._c_flushes = registry.counter("server.flushes")
        self._c_polls = registry.counter("server.polls")
        self._c_wakeups = registry.counter("server.wakeups")
        self._c_evicted = registry.counter("server.sessions_evicted")
        self._c_pages_read = registry.counter("server.pages_read")
        self._c_pages_written = registry.counter("server.pages_written")
        self._c_sessions = registry.counter("server.sessions")
        self._g_depth = registry.gauge("server.queue.depth")
        # The latency decomposition: request = queue wait + service, all in
        # simulated microseconds, observed at the same clock read so the
        # identity holds exactly per request.
        self._h_request_us = registry.histogram("server.request_us")
        self._h_queue_us = registry.histogram("server.queue_us")
        self._h_service_us = registry.histogram("server.service_us")

    # ------------------------------------------------------------------------
    # QoS
    # ------------------------------------------------------------------------

    def set_qos(self, client: str, qos: str) -> None:
        """Assign *client* to a QoS class (default ``interactive``).

        Takes effect immediately: queued work moves to the new class's
        ready set, and the next admission decision uses the new class's
        watermarks.

        >>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
        >>> from repro.net import PacketNetwork
        >>> fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
        >>> net = PacketNetwork(clock=fs.drive.clock)
        >>> net.attach("fileserver")
        >>> server = FileServer(fs, net)
        >>> server.set_qos("ws000", "bulk")
        >>> server.qos_of("ws000")
        'bulk'
        """
        if qos not in QOS_CLASSES:
            raise ServerError(f"unknown QoS class {qos!r}")
        old = self._qos.get(client, QOS_INTERACTIVE)
        self._qos[client] = qos
        if old != qos and client in self._ready[old]:
            self._ready[old].discard(client)
            self._ready[qos].add(client)

    def qos_of(self, client: str) -> str:
        """The QoS class *client* is admitted and scheduled under."""
        return self._qos.get(client, QOS_INTERACTIVE)

    # ------------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------------

    def poll(self, budget: Optional[int] = None) -> int:
        """Run one event-loop cycle; returns the number of requests served.

        Ingest (wake sessions packets arrived for) -> admit under the
        curve -> run the ready queue (up to *budget* requests) -> one
        batched flush -> one maintenance slice, if a patrol is attached.
        Requests left unserviced by a budget stay queued for the next
        cycle, and the class/session cursors persist so a budgeted
        backlog drains fairly.
        """
        self._c_polls.inc()
        self._before_cycle()
        self.clock.advance_us(POLL_CPU_US, "server.cpu")
        self._ingest()
        self._in_cycle = True
        try:
            served, wrote = self._run_scheduler(budget)
        finally:
            self._in_cycle = False
        if wrote:
            with self.obs.span("server.flush", "server"):
                self.fs.flush()
            self._c_flushes.inc()
        if self.maintenance is not None:
            self.maintenance.step()
        self._after_cycle()
        return served

    def _before_cycle(self) -> None:
        """Subclass hook run first thing in :meth:`poll` (replication
        pumps standby acknowledgements here)."""

    def _after_cycle(self) -> None:
        """Subclass hook run at the very end of a successful :meth:`poll`
        (replication ships the cycle's journal and sets the barrier
        here).  Not reached when the cycle raises -- a crashed primary
        must not ship a journal tail for work it never acknowledged."""

    def has_work(self) -> bool:
        """True when a poll cycle would do something: packets waiting,
        admitted work queued, or a maintenance patrol attached (it keeps
        its shard polling).  The router skips idle shards on this."""
        return bool(self._pending
                    or self.network.pending(self.host)
                    or self.maintenance is not None)

    def _ingest(self) -> None:
        """Drain the receive queue; admit complete frames or shed busy."""
        for source, frame in receive_frames(self.network, self.host,
                                            self.assembler, Request,
                                            self._c_errors):
            if not self.network.attached(source):
                # The sender unplugged while its frame was on the wire:
                # nothing to answer, and whatever it held is reaped.
                self._evict(source)
                continue
            qos = self._qos.get(source, QOS_INTERACTIVE)
            if not self.admission.admit(self._pending, qos, self._rng):
                self._c_rejected.inc()
                low, high = self.admission.watermarks.get(
                    qos, self.admission.watermarks[QOS_INTERACTIVE])
                if self._pending < high:
                    self._c_shaped.inc()
                self._respond(source, Response(ST_BUSY, frame.request_id))
                continue
            self._enqueue(source, frame, qos)

    def _enqueue(self, client: str, request: Request, qos: str) -> None:
        """Admit one request; wakes the client's session if it slept."""
        queue = self._queues.get(client)
        if queue is None:
            queue = self._queues[client] = deque()
            if client not in self._client_seq:
                self._client_seq[client] = self._next_client_seq
                self._next_client_seq += 1
            self._ready[qos].add(client)
        queue.append((request, self.clock.now_us))
        self._pending += 1
        self._g_depth.set(self._pending)

    def _evict(self, client: str) -> None:
        """Reap a disconnected client: queued work, ready entry, session.

        Called when a wakeup (or an in-flight frame) finds the client's
        host detached from the network -- without it, a dead client's
        admitted requests would pin admission slots forever.
        """
        queue = self._queues.pop(client, None)
        had_state = self.sessions.pop(client, None) is not None
        if queue:
            self._pending -= len(queue)
            self._g_depth.set(self._pending)
            had_state = True
        for cls in QOS_CLASSES:
            ready = self._ready[cls]
            ready.discard(client)
            if not ready:
                self._cursor[cls] = -1
        if had_state:
            self._c_evicted.inc()

    # ------------------------------------------------------------------------
    # The ready-queue scheduler
    # ------------------------------------------------------------------------

    def _run_scheduler(self, budget: Optional[int]) -> Tuple[int, bool]:
        """Serve the ready queue: class rotation, weighted allowances.

        Visits QoS classes round-robin (cursor persists across polls);
        each visit serves up to the class weight in requests from that
        class's ready sessions in first-admission order, one per session
        wakeup.  Cursors reset when a class drains, so a poll
        that empties the backlog leaves the schedule exactly where the
        polled engine's fixed scan would start it.
        """
        served = 0
        wrote = False
        # The cycle's scan order per class: admissions happen only in
        # ingest, so the ready sets can shrink but never grow mid-cycle.
        order: Dict[str, List[str]] = {}
        position: Dict[str, int] = {}
        for cls in QOS_CLASSES:
            if not self._ready[cls]:
                continue
            ranked = sorted(self._ready[cls],
                            key=self._client_seq.__getitem__)
            order[cls] = ranked
            seqs = [self._client_seq[c] for c in ranked]
            position[cls] = bisect_right(seqs, self._cursor[cls]) % len(ranked)
        classes = QOS_CLASSES
        while self._pending and (budget is None or served < budget):
            progressed = False
            for _ in range(len(classes)):
                cls = classes[self._class_cursor]
                self._class_cursor = (self._class_cursor + 1) % len(classes)
                if not self._ready[cls] or cls not in order:
                    continue
                count, class_wrote = self._serve_class(
                    cls, order[cls], position, budget, served)
                served += count
                wrote |= class_wrote
                progressed |= count > 0
                if not self._pending or (budget is not None
                                         and served >= budget):
                    break
            if not progressed:
                # A full rotation served nothing: whatever remained was
                # reaped by eviction (which already dropped the pending
                # count), so there is nothing left to schedule.
                break
        return served, wrote

    def _serve_class(self, cls: str, ranked: List[str],
                     position: Dict[str, int], budget: Optional[int],
                     served_so_far: int) -> Tuple[int, bool]:
        """One class visit: up to the class weight in requests."""
        allowance = DEFAULT_QOS_WEIGHTS[cls]
        ready = self._ready[cls]
        served = 0
        wrote = False
        scanned = 0
        total = len(ranked)
        while ready and served < allowance and scanned < 2 * total:
            if budget is not None and served_so_far + served >= budget:
                break
            index = position[cls] % total
            position[cls] = index + 1
            client = ranked[index]
            scanned += 1
            if client not in ready:
                continue
            scanned = 0
            if not self.network.attached(client):
                self._evict(client)
                continue
            self._c_wakeups.inc()
            queue = self._queues[client]
            request, admitted_us = self._take(client, cls, queue)
            wrote |= self._service(client, request, admitted_us)
            served += 1
            self._cursor[cls] = self._client_seq[client]
            if not ready:
                self._cursor[cls] = -1
        return served, wrote

    def _take(self, client: str, cls: str,
              queue: Deque[Tuple[Request, int]]) -> Tuple[Request, int]:
        """Pop one admitted request; puts a drained session back to sleep."""
        request, admitted_us = queue.popleft()
        self._pending -= 1
        self._g_depth.set(self._pending)
        if not queue:
            del self._queues[client]
            self._ready[cls].discard(client)
        return request, admitted_us

    # ------------------------------------------------------------------------
    # Request service
    # ------------------------------------------------------------------------

    def _service(self, client: str, request: Request, admitted_us: int) -> bool:
        """Execute one admitted request; returns True when it wrote."""
        session = self.sessions.get(client)
        if session is None:
            session = self.sessions[client] = Session(client)
            self._c_sessions.inc()
        cached = session.replay(request.request_id)
        if cached is not None:
            self._c_replayed.inc()
            self._resend(client, request.request_id, cached)
            return False
        start_us = self.clock.now_us
        trace_id = f"{client}#{request.request_id}"
        tracer = self.obs.tracer
        if tracer.enabled:
            # The time this request sat admitted-but-unserviced.  Queue
            # waits overlap (every queued request waits at once), so they
            # are async intervals, not nested spans.
            tracer.complete("server.queue", admitted_us, start_us,
                            category="server", kind="async",
                            args={"trace_id": trace_id, "client": client})
        self.clock.advance_us(SERVICE_CPU_US, "server.cpu")
        with self.obs.span("server.request", "server", op=request.op_name,
                           client=client, rid=request.request_id,
                           trace_id=trace_id) as span:
            wrote = False
            try:
                response, wrote = self._dispatch(session, request)
            except (DiskFull, FileSystemError) as exc:
                self._c_errors.inc()
                response = Response(ST_ERROR, request.request_id)
                span.annotate(error=type(exc).__name__)
            if response.status != ST_OK:
                span.annotate(status=ST_NAMES[response.status])
            self._c_requests.inc()
            packets = self._respond(client, response)
            session.remember(request.request_id, packets)
            end_us = self.clock.now_us
            self._h_queue_us.observe(start_us - admitted_us)
            self._h_service_us.observe(end_us - start_us)
            self._h_request_us.observe(end_us - admitted_us)
            return wrote

    def _respond(self, client: str, response: Response) -> List[Packet]:
        packets = encode_response(response, self.host, client)
        for packet in packets:
            self.network.send(packet)
        return packets

    def _resend(self, client: str, request_id: int, packets: List[Packet]) -> None:
        """Re-send a replay-cached response (a retry of a served request).

        A replicating subclass overrides this to withhold replays whose
        original response is still gated on standby acknowledgement."""
        for packet in packets:
            self.network.send(packet)

    def _dispatch(self, session, request: Request) -> Tuple[Response, bool]:
        if request.op == OP_OPEN:
            return self._do_open(session, request), False
        if request.op == OP_READ:
            return self._do_read(session, request), False
        if request.op == OP_WRITE:
            return self._do_write(session, request)
        if request.op == OP_CLOSE:
            return self._do_close(session, request), False
        if request.op == OP_LIST:
            return self._do_list(request), False
        return Response(ST_BAD_REQUEST, request.request_id), False

    # -- the five operations --------------------------------------------------

    def _do_open(self, session, request: Request) -> Response:
        name = decode_name(request.payload)
        if not name:
            return Response(ST_BAD_REQUEST, request.request_id)
        try:
            file = self.fs.open_file(name)
        except (FileNotFound, DirectoryError):
            if not request.arg0 & FLAG_CREATE:
                return Response(ST_NOT_FOUND, request.request_id)
            file = self.fs.create_file(name)
        handle = session.grant(file, name)
        size = file.byte_length
        return Response(ST_OK, request.request_id, handle=handle,
                        result0=size >> 16, result1=size & 0xFFFF)

    def _do_read(self, session, request: Request) -> Response:
        handle = session.resolve(request.handle)
        if handle is None:
            return Response(ST_BAD_HANDLE, request.request_id)
        first, count = request.arg0, request.arg1
        if first < 1 or not 1 <= count <= MAX_BATCH_PAGES:
            return Response(ST_BAD_REQUEST, request.request_id)
        last = handle.file.last_page_number
        if first > last:
            return Response(ST_OK, request.request_id, handle=request.handle)
        pages = min(count, last - first + 1)
        payload: List[int] = []
        tail_bytes = 0
        for page in range(first, first + pages):
            contents = handle.file.read_page(page)
            payload.extend(contents.value)
            tail_bytes = contents.label.length
        self._c_pages_read.inc(pages)
        return Response(ST_OK, request.request_id, handle=request.handle,
                        result0=pages, result1=tail_bytes,
                        payload=tuple(payload))

    def _do_write(self, session, request: Request) -> Tuple[Response, bool]:
        handle = session.resolve(request.handle)
        if handle is None:
            return Response(ST_BAD_HANDLE, request.request_id), False
        page, nbytes = request.arg0, request.arg1
        words = list(request.payload)
        if page < 1 or nbytes > FULL_PAGE or len(words) * 2 < nbytes:
            return Response(ST_BAD_REQUEST, request.request_id), False
        file = handle.file
        last = file.last_page_number
        try:
            if nbytes == FULL_PAGE:
                # A full page is staged with L=0 when it is (still) the
                # tail; the next append promotes it to an interior L=512
                # page.  Uploads therefore always end with a short page
                # (possibly empty), exactly like AltoFile.write_data.
                if page == last:
                    file.write_last_page(words, 0)
                elif page == last + 1:
                    file.append_page(words, 0)
                elif page < last:
                    file.write_full_page(page, words)
                else:
                    return Response(ST_BAD_PAGE, request.request_id), False
            else:
                if page == last + 1:
                    file.append_page(words, nbytes)
                elif 1 <= page <= last:
                    # A short page is a tail by definition: drop any pages
                    # beyond it (the protocol's only way to shrink a file),
                    # then the change-length write sets L.
                    while file.last_page_number > page:
                        file.truncate_last_page()
                    file.write_last_page(words, nbytes)
                else:
                    return Response(ST_BAD_PAGE, request.request_id), False
        except ValueError:
            return Response(ST_BAD_REQUEST, request.request_id), False
        self._c_pages_written.inc()
        return Response(ST_OK, request.request_id, handle=request.handle,
                        result0=file.last_page_number), True

    def _do_close(self, session, request: Request) -> Response:
        if not session.release(request.handle):
            return Response(ST_BAD_HANDLE, request.request_id)
        return Response(ST_OK, request.request_id)

    def _do_list(self, request: Request) -> Response:
        names = self.fs.list_files()
        return Response(ST_OK, request.request_id, result0=len(names),
                        payload=encode_names(names))

    # ------------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Admitted-but-unserviced requests (the router's window input)."""
        return self._pending

    @property
    def ready_sessions(self) -> int:
        """Sessions with queued work -- what one poll cycle's cost scales
        with (sleeping sessions are free)."""
        return len(self._queues)

    def stats(self) -> Dict[str, int]:
        """The server's own counters out of the unified snapshot."""
        return {name: value for name, value in self.obs.stats().items()
                if name.startswith("server.")}

    def __repr__(self) -> str:
        return (f"FileServer({self.host!r}, sessions={len(self.sessions)}, "
                f"pending={self._pending})")
