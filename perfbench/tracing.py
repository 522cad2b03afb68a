"""The traced run: a span recorder wrapped around each layer's entry points.

Imported only by ``run.py --trace 1``; untraced runs never load it, so
they run the program exactly as shipped.  :func:`install` replaces each
entry point in :data:`ENTRY_POINTS` with a wrapper that records a span
(layer, entry, start, end, parent, request id) on the host clock while
:attr:`SpanRecorder.recording` is set.  Spans nest by call stack, so a
layer's *self* time is its spans' durations minus the time their child
spans cover, and the self times of every layer plus the driver's own sum
to the traced window exactly.  Spans are kept in memory and written out
once the run ends.

The wrappers change no simulated behaviour: they neither read nor
advance any :class:`~repro.clock.SimClock` and leave the program's own
``repro.obs`` tracer off, so every drive takes the same code path as in
an untraced run (``run.py`` checks that both give identical simulated
results).
"""

from __future__ import annotations

import csv
import gzip
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.disk.cache import CachedDrive
from repro.disk.drive import DiskDrive
from repro.fs import online
from repro.fs.file import AltoFile
from repro.fs.filesystem import FileSystem
from repro.fs.online import OnlineMaintenance
from repro.net.network import PacketNetwork
from repro.server import protocol
from repro.server.client import FileClient
from repro.server.engine import FileServer
from repro.server.protocol import FrameAssembler
from repro.server.replica import ReplicaStandby, ReplicationPrimary
from repro.server.router import ShardRouter

#: The layer the benchmark's own driver loop is charged to.
DRIVER = "driver"


def _client_rid(args) -> str:
    return f"{args[0].host}#{args[1].request_id}"


def _step_rid(args) -> str:
    return f"{args[0].host}#{args[1].request.request_id}"


def _request_rid(args) -> str:
    return f"{args[1]}#{args[0].request_id}"


def _response_rid(args) -> str:
    return f"{args[2]}#{args[0].request_id}"


#: ``(layer, owner, attribute, request-id extractor)``.  *owner* is a
#: class, or a module whose function is re-bound in every ``repro``
#: module that imported it by name.  Spans with no extractor inherit
#: their parent's request id.
ENTRY_POINTS: List[Tuple[str, object, str, Optional[Callable]]] = [
    ("protocol", protocol, "encode_request", _request_rid),
    ("protocol", protocol, "encode_response", _response_rid),
    ("protocol", FrameAssembler, "feed", None),
    ("net", PacketNetwork, "send", None),
    ("net", PacketNetwork, "receive", None),
    ("router", ShardRouter, "poll", None),
    ("engine", FileServer, "poll", None),
    ("client", FileClient, "submit", _client_rid),
    ("client", FileClient, "step", _step_rid),
    ("replica", ReplicationPrimary, "ship", None),
    ("replica", ReplicationPrimary, "pump_acks", None),
    ("replica", ReplicaStandby, "poll", None),
    ("cache", CachedDrive, "transfer", None),
    ("cache", CachedDrive, "flush", None),
    # Plain drives dispatch their convenience commands straight to
    # ``_execute`` (the body of ``transfer``), bypassing ``transfer``.
    ("disk", DiskDrive, "transfer", None),
    ("disk", DiskDrive, "_execute", None),
    ("fs", FileSystem, "create_file", None),
    ("fs", FileSystem, "open_file", None),
    ("fs", FileSystem, "delete_file", None),
    ("fs", FileSystem, "list_files", None),
    ("fs", AltoFile, "read_page", None),
    ("fs", AltoFile, "write_full_page", None),
    ("fs", AltoFile, "write_last_page", None),
    ("fs", AltoFile, "append_page", None),
    ("fs", AltoFile, "truncate_last_page", None),
    ("maint", OnlineMaintenance, "step", None),
    # Only the binding fs.online calls: the slice-boundary check.
    ("fsck", online, "check_image", None),
]

#: Every layer a traced run reports, outermost first, then the driver.
LAYERS = ["protocol", "net", "router", "engine", "client", "replica",
          "cache", "disk", "fs", "maint", "fsck", DRIVER]

#: Column order of the written span file.
SPAN_FIELDS = ("id", "parent", "layer", "entry", "start_s", "end_s", "rid")


class SpanRecorder:
    """Spans on the host clock, with running self time per layer."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.entry_calls: Dict[str, int] = {}
        # Open spans: [id, child seconds, request id].
        self._stack: List[list] = []
        self._next_id = 1
        self._undo: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget every span and total (a new round starts)."""
        self.spans.clear()
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.entry_calls = {}
        self._next_id = 1

    def run(self, layer: str, entry: str, fn: Callable, args=(),
            kwargs=None, rid_of: Optional[Callable] = None):
        """Call ``fn(*args, **kwargs)`` inside one recorded span."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if rid_of is not None:
            rid = rid_of(args)
        else:
            rid = parent[2] if parent is not None else ""
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0.0, rid]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.self_s[layer] += duration - frame[1]
            self.calls[layer] += 1
            self.entry_calls[entry] = self.entry_calls.get(entry, 0) + 1
            self.spans.append((span_id, parent[0] if parent else 0, layer,
                               entry, start, end, rid))

    def _wrapper(self, layer: str, entry: str, fn: Callable,
                 rid_of: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            return self.run(layer, entry, fn, args, kwargs, rid_of)

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for layer, owner, attr, rid_of in ENTRY_POINTS:
            original = vars(owner)[attr]
            wrapped = self._wrapper(layer, f"{owner.__name__}.{attr}",
                                    original, rid_of)
            if isinstance(owner, type) or owner is online:
                self._patch(owner, attr, original, wrapped)
                continue
            for name, module in list(sys.modules.items()):
                if (name.split(".")[0] == "repro"
                        and getattr(module, attr, None) is original):
                    self._patch(module, attr, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def inclusive_s(self, layer: str) -> float:
        """Summed duration of *layer*'s outermost spans."""
        ids = {span[0]: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span[2] != layer:
                continue
            parent = ids.get(span[1])
            if parent is not None and parent[2] == layer:
                continue
            total += span[5] - span[4]
        return total

    def write(self, path) -> int:
        """Write the spans as gzipped CSV; returns the span count."""
        with gzip.open(path, "wt", newline="") as out:
            writer = csv.writer(out)
            writer.writerow(SPAN_FIELDS)
            for span in sorted(self.spans):
                writer.writerow((span[0], span[1], span[2], span[3],
                                 repr(span[4]), repr(span[5]), span[6]))
        return len(self.spans)


# ----------------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------------

def window_delta(before: Dict, after: Dict) -> Dict:
    """Every metric's change over the window, except high-water marks and
    histogram extremes, which are read as they stood when it closed."""
    out = {}
    for key, value in after.items():
        if key.endswith(".high_water") or key.endswith((".min", ".max")):
            out[key] = value
        else:
            out[key] = value - before.get(key, 0)
    return out


def _p99_ms(delta: Dict, histogram: str) -> float:
    from repro.obs import snapshot_quantiles

    quantiles = snapshot_quantiles(delta, histogram, (0.99,))
    return quantiles.get("p99", 0.0) / 1000.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, delta: Dict, host_s: float,
                  workload) -> Dict[str, float]:
    """Every per-layer metric of one traced round.

    Host self times come from *recorder*; counts and simulated tallies
    from the obs registry delta over the window (*delta*).
    """
    self_s = recorder.self_s
    get = delta.get
    requests = get("server.requests", 0)
    lags = sorted(workload.lags_us)
    slices = get("fs.maint.slices", 0)
    metrics = {f"{layer}.host_self_s": self_s[layer] for layer in LAYERS}
    metrics.update({
        "protocol.calls": recorder.calls["protocol"],
        "net.packets": recorder.entry_calls.get("PacketNetwork.send", 0),
        "net.sim_wire_s": get("clock.tally.net.wire_us", 0) / 1e6,
        "router.forwarded": get("router.forwarded", 0),
        "router.shards_skipped": get("router.shards_skipped", 0),
        "router.sim_hop_p99_ms": _p99_ms(delta, "router.hop_us"),
        "engine.polls": get("server.polls", 0),
        "engine.wakeups_per_req": _ratio(get("server.wakeups", 0), requests),
        "engine.reqs_per_flush": _ratio(requests, get("server.flushes", 0)),
        "engine.sim_queue_p99_ms": _p99_ms(delta, "server.queue_us"),
        "engine.sim_service_p99_ms": _p99_ms(delta, "server.service_us"),
        "engine.rejected": get("server.rejected", 0),
        "engine.shaped": get("server.shaped", 0),
        "engine.replayed": get("server.replayed", 0),
        "client.retries_per_req": _ratio(get("server.client.retries", 0),
                                         get("server.client.requests", 0)),
        "replica.records": get("replica.records", 0),
        "replica.shipped_words_per_user_byte": _ratio(
            get("replica.shipped_words", 0), workload.user_bytes),
        "replica.lag_high_water": get("replica.standby_lag.high_water", 0),
        "replica.held_high_water": get("server.repl.held.high_water", 0),
        "cache.hit_ratio": _ratio(
            get("disk.cache.hits", 0),
            get("disk.cache.hits", 0) + get("disk.cache.misses", 0)),
        "cache.flushes": get("disk.cache.flushes", 0),
        "cache.write_through": get("disk.cache.write_through", 0),
        "cache.evictions": get("disk.cache.evictions", 0),
        "disk.commands": get("disk.drive.commands", 0),
        "disk.sim_seek_s": get("clock.tally.disk.seek_us", 0) / 1e6,
        "disk.sim_rotation_s": get("clock.tally.disk.rotation_us", 0) / 1e6,
        "disk.sim_transfer_s": get("clock.tally.disk.transfer_us", 0) / 1e6,
        "disk.sched_coalesced": get("disk.sched.coalesced", 0),
        "fs.pages_allocated": get("fs.alloc.allocated", 0),
        "fs.ladder_link_follows": get("fs.ladder.link_follows", 0),
        "maint.slices": slices,
        "maint.pages_moved": get("fs.maint.pages_moved", 0),
        "maint.host_ms_per_slice": _ratio(recorder.inclusive_s("maint") * 1000,
                                          slices),
        "fsck.calls": recorder.calls["fsck"],
        "fsck.host_share": _ratio(self_s["fsck"], host_s),
        "driver.submit_lag_p99_ms": (lags[max(1, -(-99 * len(lags) // 100)) - 1]
                                     / 1000.0 if lags else 0.0),
        "driver.latency_samples": workload.sim.get("sim_samples", 0),
        "trace.host_s": host_s,
    })
    return metrics
