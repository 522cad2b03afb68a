"""``repro.server`` -- the concurrent multi-client file-server subsystem.

Section 5.2's file-server configuration, promoted from an example into a
first-class package: a deterministic, simulated-time, **event-driven**
request engine (:class:`~repro.server.engine.FileServer`) multiplexing
many client sessions over a :class:`~repro.net.network.PacketNetwork`
onto one :class:`~repro.fs.filesystem.FileSystem` -- sessions sleep until
a packet arrives for them, are scheduled under weighted QoS classes
(:mod:`~repro.server.qos`), and are admitted through a graduated curve
(:class:`~repro.server.qos.AdmissionCurve`) rather than a single cliff.
Around the engine: a framed wire protocol with error codes
(:mod:`~repro.server.protocol`), per-session state with at-most-once
retry semantics (:mod:`~repro.server.session`), a client with timeout and
exponential backoff (:class:`~repro.server.client.FileClient`), and a
seeded load generator (:mod:`~repro.server.loadgen`) that can hold ten
thousand concurrent sessions open (:func:`~repro.server.loadgen.run_session_storm`).

See ``SERVER.md`` for the wire-protocol specification and
``ARCHITECTURE.md`` for where the subsystem sits in the layer map.  The
CLI entry point is ``python -m repro serve``.

>>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
>>> from repro.net import PacketNetwork
>>> from repro.server import FileClient, FileServer
>>> fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
>>> net = PacketNetwork(clock=fs.drive.clock)
>>> net.attach("fileserver"); net.attach("ws")
>>> client = FileClient(net, "ws", pump=FileServer(fs, net).poll)
>>> _ = client.write_file("hello.txt", b"served!")
>>> client.read_file("hello.txt")
b'served!'
"""

from .client import FileClient, PendingRequest
from .engine import DEFAULT_MAX_PENDING, FileServer
from .loadgen import (
    ClusterSystem,
    LoadGenerator,
    LoadResult,
    ServedSystem,
    build_cluster,
    build_system,
    run_session_storm,
)
from .polled import PolledFileServer
from .qos import (
    DEFAULT_QOS_WEIGHTS,
    QOS_BULK,
    QOS_CLASSES,
    QOS_INTERACTIVE,
    QOS_MAINTENANCE,
    AdmissionCurve,
)
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
    ST_NOT_FOUND,
    ST_OK,
    ST_TOO_LARGE,
    encode_request,
    encode_response,
)
from .failover import (
    FailoverReport,
    FailoverScenario,
)
from .rebalance import Shipment, recover_shipment, ship_names
from .replica import (
    PromotionReport,
    ReplicaStandby,
    ReplicatedFileServer,
    ReplicationPrimary,
    promote,
)
from .router import ShardRouter, merge_names
from .session import OpenHandle, Session
from .shardmap import RebalancePlan, ShardMap, hash_name

__all__ = [
    "AdmissionCurve",
    "ClusterSystem",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_QOS_WEIGHTS",
    "FLAG_CREATE",
    "FailoverReport",
    "FailoverScenario",
    "FileClient",
    "FileServer",
    "FrameAssembler",
    "LoadGenerator",
    "LoadResult",
    "MAX_BATCH_PAGES",
    "OP_CLOSE",
    "OP_LIST",
    "OP_OPEN",
    "OP_READ",
    "OP_WRITE",
    "OpenHandle",
    "PendingRequest",
    "PolledFileServer",
    "PromotionReport",
    "QOS_BULK",
    "QOS_CLASSES",
    "QOS_INTERACTIVE",
    "QOS_MAINTENANCE",
    "RebalancePlan",
    "ReplicaStandby",
    "ReplicatedFileServer",
    "ReplicationPrimary",
    "Request",
    "Response",
    "ST_BAD_HANDLE",
    "ST_BAD_PAGE",
    "ST_BAD_REQUEST",
    "ST_BUSY",
    "ST_ERROR",
    "ST_NOT_FOUND",
    "ST_OK",
    "ST_TOO_LARGE",
    "ServedSystem",
    "Session",
    "ShardMap",
    "ShardRouter",
    "Shipment",
    "build_cluster",
    "build_system",
    "encode_request",
    "encode_response",
    "hash_name",
    "merge_names",
    "promote",
    "recover_shipment",
    "run_session_storm",
    "ship_names",
]
