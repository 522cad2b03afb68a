"""The PR-5 polling engine, kept alive as a differential reference.

:class:`PolledFileServer` is the round-robin loop the event-driven
engine replaced: every poll scans *all* clients in first-admission
order, serving one request per client per pass until the backlog drains
or the budget runs out.  It shares every other code path with
:class:`~repro.server.engine.FileServer` -- ingest, admission, dispatch,
flush, maintenance -- so the only difference under test is the
scheduler itself.

The point of keeping it is the observational-equivalence property
(``tests/server/test_engine_equivalence.py``): in the default
configuration the event-driven engine must produce the same responses,
the same pack bytes, and the same simulated microseconds as this loop,
per seed.  That property is what let the engine restructure land
without re-litigating every byte-identical proof in the suite.

>>> from repro import DiskDrive, DiskImage, FileSystem, tiny_test_disk
>>> from repro.net import PacketNetwork
>>> from repro.server import FileClient
>>> from repro.server.polled import PolledFileServer
>>> fs = FileSystem.format(DiskDrive(DiskImage(tiny_test_disk())))
>>> net = PacketNetwork(clock=fs.drive.clock)
>>> net.attach("fileserver"); net.attach("ws")
>>> server = PolledFileServer(fs, net)
>>> client = FileClient(net, "ws", pump=server.poll)
>>> _ = client.write_file("memo.txt", b"the reference answer")
>>> client.read_file("memo.txt")
b'the reference answer'
"""

from __future__ import annotations

from typing import Optional, Tuple

from .engine import FileServer
from .qos import QOS_INTERACTIVE


class PolledFileServer(FileServer):
    """The pre-event-engine scheduler: scan everyone, every pass.

    Identical wire behaviour to :class:`~repro.server.engine.FileServer`
    in the default configuration; kept as the reference twin for the
    equivalence property suite.  QoS weights are ignored -- this loop
    predates them -- which is exactly what makes it the control arm for
    the QoS isolation benchmark (E17).
    """

    def _run_scheduler(self, budget: Optional[int]) -> Tuple[int, bool]:
        served = 0
        wrote = False
        while self._pending and (budget is None or served < budget):
            for client in sorted(self._queues,
                                 key=self._client_seq.__getitem__):
                queue = self._queues.get(client)
                if not queue:
                    continue
                if not self.network.attached(client):
                    self._evict(client)
                    continue
                self._c_wakeups.inc()
                if budget is not None and served >= budget:
                    continue
                cls = self._qos.get(client, QOS_INTERACTIVE)
                request, admitted_us = self._take(client, cls, queue)
                wrote |= self._service(client, request, admitted_us)
                served += 1
            if budget is not None and served >= budget:
                break
        return served, wrote

    def __repr__(self) -> str:
        return (f"PolledFileServer({self.host!r}, "
                f"sessions={len(self.sessions)}, pending={self._pending})")
