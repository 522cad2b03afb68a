"""Per-client session state: open handles and the at-most-once replay cache.

One :class:`Session` per client host, at every tier that answers clients:
the engine keeps one per client of its shard, and the shard router keeps
one per real client at the front door.  A session owns the client's
open-file handles and caches the encoded response of recent requests
keyed by request id -- a retried request id is answered from the cache
without re-executing, which is what makes client retries safe for
non-idempotent operations like page appends.  A client's QoS class is
not session state: the engine admits and schedules by it before a
session exists (see :meth:`repro.server.engine.FileServer.set_qos`).

>>> from repro.server.session import Session
>>> session = Session("workstation")
>>> handle = session.grant(object(), "memo.txt")
>>> handle, session.resolve(handle) is None
(1, False)
>>> _ = session.release(handle)
>>> session.resolve(handle) is None
True
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Cached replies kept per session; a retry storm deeper than this falls
#: back to re-execution, so the cache is sized above the client's retry cap.
REPLAY_CACHE_SIZE = 16

#: Handles cycle within a 16-bit word (the frame's handle field).
MAX_HANDLE = 0xFFFF


@dataclass
class OpenHandle:
    """One open file within a session."""

    #: What the handle resolves to: the :class:`~repro.fs.file.AltoFile`
    #: on a shard, or the ``(shard, shard handle)`` pair at the router.
    file: object
    name: str


class Session:
    """One client's server-side state machine.

    A session is created on the client's first admitted request and lives
    for the server's lifetime.  Its states per handle are simply
    *open* (present in ``handles``) and *closed* (absent); the protocol
    has no half-open states because every request is a complete frame.
    """

    def __init__(self, client: str) -> None:
        self.client = client
        self.handles: Dict[int, OpenHandle] = {}
        self._next_handle = 1
        self._replies: "OrderedDict[int, List]" = OrderedDict()

    # -- handles --------------------------------------------------------------

    def grant(self, file, name: str) -> int:
        """Allocate a handle for *file*; handles are session-scoped."""
        handle = self._next_handle
        self._next_handle = handle % MAX_HANDLE + 1
        self.handles[handle] = OpenHandle(file, name)
        return handle

    def resolve(self, handle: int) -> Optional[OpenHandle]:
        """The open handle, or None (the ``ST_BAD_HANDLE`` path)."""
        return self.handles.get(handle)

    def release(self, handle: int) -> bool:
        """Close a handle; returns False when it was not open."""
        return self.handles.pop(handle, None) is not None

    # -- the replay cache -----------------------------------------------------

    def replay(self, request_id: int) -> Optional[List]:
        """The cached response packets for a request id, or None."""
        return self._replies.get(request_id)

    def remember(self, request_id: int, packets: List) -> None:
        """Cache the encoded response for *request_id* (bounded FIFO)."""
        self._replies[request_id] = packets
        while len(self._replies) > REPLAY_CACHE_SIZE:
            self._replies.popitem(last=False)

    def __repr__(self) -> str:
        return f"Session({self.client!r}, handles={len(self.handles)})"
