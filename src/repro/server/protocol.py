"""The file-server wire protocol: explicit request/response framing.

A frame is one header packet (``TYPE_CONTROL``) optionally followed by
continuation packets (``TYPE_DATA``) carrying the rest of the payload
words.  The header packet starts with a fixed seven-word layout:

====  =================  =====================================================
word  name               meaning
====  =================  =====================================================
0     magic              ``MAGIC_REQUEST`` (0x4652) or ``MAGIC_RESPONSE``
                         (0x4653) -- distinguishes the two frame kinds
1     op / status        request opcode (``OP_*``) or response status
                         (``ST_*``)
2     request id         client-chosen, echoed verbatim in the response;
                         the server's at-most-once replay cache is keyed
                         on it, so a retried id never re-executes
3     handle             open-file handle (0 when not applicable)
4     arg0 / result0     OPEN: flags; READ/WRITE: page number;
                         responses: op-specific result (see SERVER.md)
5     arg1 / result1     READ: page count; WRITE: byte length;
                         responses: op-specific result
6     payload words      total payload length in words, across all packets
====  =================  =====================================================

Payload words follow in the same packet (up to the packet limit) and then
in continuation packets.  Frames from one host are reassembled in order by
:class:`FrameAssembler`; frames from different hosts may interleave at
packet granularity.  Every receiver -- engine, router front door, router
proxy hosts -- drains its queue through :func:`receive_frames`.  Names
travel as BCPL strings: one per OPEN payload (:func:`decode_name`), a
``[word count, words...]`` run per name in a LIST payload
(:func:`encode_names` / :func:`decode_names`).  See ``SERVER.md`` for the
full specification.

>>> from repro.net import PacketNetwork
>>> from repro.server.protocol import (FrameAssembler, OP_LIST, Request,
...                                    encode_request)
>>> net = PacketNetwork(); net.attach("ws"); net.attach("srv")
>>> for packet in encode_request(Request(OP_LIST, request_id=7), "ws", "srv"):
...     _ = net.send(packet)
>>> assembler = FrameAssembler()
>>> source, frame = assembler.feed(net.receive("srv"))
>>> source, frame.op == OP_LIST, frame.request_id
('ws', True, 7)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ProtocolError
from ..net.network import MAX_PAYLOAD_WORDS, Packet, TYPE_CONTROL, TYPE_DATA
from ..words import string_to_words, words_to_string

#: Frame-kind discriminators (ASCII "FR" / "FS", both nonzero 16-bit words).
MAGIC_REQUEST = 0x4652
MAGIC_RESPONSE = 0x4653

#: Fixed header words before the payload.
HEADER_WORDS = 7

#: Request opcodes.
OP_OPEN = 1
OP_READ = 2
OP_WRITE = 3
OP_CLOSE = 4
OP_LIST = 5

OP_NAMES = {OP_OPEN: "open", OP_READ: "read", OP_WRITE: "write",
            OP_CLOSE: "close", OP_LIST: "list"}

#: Response status codes.
ST_OK = 0
ST_BAD_REQUEST = 1          #: malformed frame or out-of-range arguments
ST_NOT_FOUND = 2            #: OPEN without ``FLAG_CREATE`` on a missing name
ST_BAD_HANDLE = 3           #: handle unknown to this session
ST_BUSY = 4                 #: admission queue full -- back off and retry
ST_BAD_PAGE = 5             #: READ/WRITE page outside the writable window
ST_TOO_LARGE = 6            #: payload exceeds the protocol limit
ST_ERROR = 7                #: server-side failure (disk full, I/O error)

ST_NAMES = {ST_OK: "ok", ST_BAD_REQUEST: "bad-request", ST_NOT_FOUND: "not-found",
            ST_BAD_HANDLE: "bad-handle", ST_BUSY: "busy", ST_BAD_PAGE: "bad-page",
            ST_TOO_LARGE: "too-large", ST_ERROR: "error"}

#: OPEN flag: create the file when the name does not exist.
FLAG_CREATE = 1

#: Most pages one READ request may ask for (request batching limit).
MAX_BATCH_PAGES = 8

#: Hard payload bound: the count field is one 16-bit word.
MAX_FRAME_PAYLOAD_WORDS = 0xFFFF


@dataclass(frozen=True)
class Request:
    """One decoded request frame.

    >>> Request(OP_READ, request_id=3, handle=1, arg0=1, arg1=4).op == OP_READ
    True
    """

    op: int
    request_id: int
    handle: int = 0
    arg0: int = 0
    arg1: int = 0
    payload: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.op not in OP_NAMES:
            raise ProtocolError(f"unknown opcode {self.op}")
        if not 1 <= self.request_id <= 0xFFFF:
            raise ProtocolError(f"request id must be 1..65535, got {self.request_id}")
        if len(self.payload) > MAX_FRAME_PAYLOAD_WORDS:
            raise ProtocolError(f"payload of {len(self.payload)} words exceeds "
                                f"{MAX_FRAME_PAYLOAD_WORDS}")

    @property
    def op_name(self) -> str:
        return OP_NAMES[self.op]


@dataclass(frozen=True)
class Response:
    """One decoded response frame.

    >>> Response(ST_OK, request_id=3).ok
    True
    >>> Response(ST_BUSY, request_id=3).status_name
    'busy'
    """

    status: int
    request_id: int
    handle: int = 0
    result0: int = 0
    result1: int = 0
    payload: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in ST_NAMES:
            raise ProtocolError(f"unknown status {self.status}")
        if len(self.payload) > MAX_FRAME_PAYLOAD_WORDS:
            raise ProtocolError(f"payload of {len(self.payload)} words exceeds "
                                f"{MAX_FRAME_PAYLOAD_WORDS}")

    @property
    def ok(self) -> bool:
        return self.status == ST_OK

    @property
    def status_name(self) -> str:
        return ST_NAMES[self.status]


def _encode(magic: int, words: List[int], payload: Tuple[int, ...],
            source: str, destination: str) -> List[Packet]:
    if type(payload) is not tuple:
        payload = tuple(payload)
    header = [magic] + words + [len(payload)]
    room = MAX_PAYLOAD_WORDS - len(header)
    packets = [Packet(source, destination, TYPE_CONTROL,
                      tuple(header) + payload[:room])]
    for base in range(room, len(payload), MAX_PAYLOAD_WORDS):
        packets.append(Packet(source, destination, TYPE_DATA,
                              payload[base: base + MAX_PAYLOAD_WORDS]))
    return packets


def encode_request(request: Request, source: str, destination: str) -> List[Packet]:
    """Encode *request* as its packet sequence (header + continuations).

    >>> packets = encode_request(Request(OP_LIST, request_id=1), "ws", "srv")
    >>> len(packets), packets[0].payload[:3]
    (1, (18002, 5, 1))
    """
    return _encode(MAGIC_REQUEST,
                   [request.op, request.request_id, request.handle,
                    request.arg0, request.arg1],
                   request.payload, source, destination)


def encode_response(response: Response, source: str, destination: str) -> List[Packet]:
    """Encode *response* as its packet sequence (header + continuations).

    >>> packets = encode_response(Response(ST_OK, request_id=9), "srv", "ws")
    >>> len(packets), packets[0].payload[1:3]
    (1, (0, 9))
    """
    return _encode(MAGIC_RESPONSE,
                   [response.status, response.request_id, response.handle,
                    response.result0, response.result1],
                   response.payload, source, destination)


def decode_name(payload: Sequence[int]) -> str:
    """The file name an OPEN payload carries, or ``""`` when it does not
    decode (both answer ``ST_BAD_REQUEST``).

    >>> decode_name(string_to_words("memo.txt")), decode_name((0xFF00,))
    ('memo.txt', '')
    """
    try:
        return words_to_string(payload)
    except ValueError:          # a bad length byte, or non-ASCII bytes
        return ""


def encode_names(names: Sequence[str]) -> Tuple[int, ...]:
    """The LIST payload: each name as its word count, then its words.

    >>> decode_names(encode_names(["a.txt", "SysDir"]))
    ['a.txt', 'SysDir']
    """
    payload: List[int] = []
    for name in names:
        words = string_to_words(name)
        payload.append(len(words))
        payload.extend(words)
    return tuple(payload)


def decode_names(payload: Sequence[int]) -> List[str]:
    """The names of a LIST payload built by :func:`encode_names`."""
    names, index = [], 0
    while index < len(payload):
        count = payload[index]
        names.append(words_to_string(payload[index + 1: index + 1 + count]))
        index += 1 + count
    return names


def _decode_header(payload: Tuple[int, ...]):
    if len(payload) < HEADER_WORDS:
        raise ProtocolError(f"header packet has only {len(payload)} words, "
                            f"need {HEADER_WORDS}")
    magic = payload[0]
    if magic not in (MAGIC_REQUEST, MAGIC_RESPONSE):
        raise ProtocolError(f"bad frame magic {magic:#x}")
    return magic, payload[1:HEADER_WORDS], payload[HEADER_WORDS:]


def _build(magic: int, header, payload: Tuple[int, ...]):
    op_or_status, request_id, handle, a0, a1 = header
    if magic == MAGIC_REQUEST:
        return Request(op_or_status, request_id, handle, a0, a1, payload)
    return Response(op_or_status, request_id, handle, a0, a1, payload)


@dataclass
class _Partial:
    magic: int
    header: Tuple[int, ...]
    expected: int
    payload: List[int] = field(default_factory=list)


class FrameAssembler:
    """Reassembles frames from a packet stream, keyed by source host.

    A new header packet from a host discards any incomplete frame from the
    same host (the ``abandoned`` counter records it); packets from
    different hosts may interleave freely.

    >>> from repro.net import PacketNetwork
    >>> net = PacketNetwork(); net.attach("a"); net.attach("srv")
    >>> data = tuple(range(300))                    # forces a continuation
    >>> request = Request(OP_WRITE, request_id=2, handle=1, payload=data)
    >>> packets = [net.receive("srv")
    ...            for p in encode_request(request, "a", "srv")
    ...            if net.send(p)]
    >>> assembler = FrameAssembler()
    >>> frames = [f for f in map(assembler.feed, packets) if f is not None]
    >>> frames[0][1].payload == data
    True
    """

    def __init__(self) -> None:
        self._partials: Dict[str, _Partial] = {}
        #: Frames discarded because a new header arrived mid-frame.
        self.abandoned = 0
        #: Packets ignored because they belong to no frame.
        self.stray = 0

    def feed(self, packet: Packet) -> Optional[Tuple[str, object]]:
        """Consume one packet; return ``(source, frame)`` when one completes."""
        source = packet.source
        if packet.ptype == TYPE_CONTROL:
            if source in self._partials:
                self.abandoned += 1
                del self._partials[source]
            magic, header, first = _decode_header(packet.payload)
            expected = header[-1]  # word 6: the announced payload length
            partial = _Partial(magic, header, expected, list(first))
            if len(partial.payload) > expected:
                raise ProtocolError(
                    f"frame announced {expected} payload words but the header "
                    f"packet already carries {len(partial.payload)}")
            self._partials[source] = partial
        elif packet.ptype == TYPE_DATA:
            partial = self._partials.get(source)
            if partial is None:
                self.stray += 1
                return None
            partial.payload.extend(packet.payload)
            if len(partial.payload) > partial.expected:
                del self._partials[source]
                raise ProtocolError(
                    f"frame from {source!r} overran its announced "
                    f"{partial.expected} payload words")
        else:
            self.stray += 1
            return None
        if len(partial.payload) == partial.expected:
            del self._partials[source]
            return source, _build(partial.magic, partial.header[:5],
                                  tuple(partial.payload))
        return None


def receive_frames(network, host: str, assembler: FrameAssembler,
                   kind: type, errors) -> Iterator[Tuple[str, object]]:
    """Drain *host*'s receive queue, yielding each complete frame of
    *kind* as ``(source, frame)``.

    A packet the assembler rejects, or a complete frame of the other
    kind, counts one on the *errors* counter and is skipped; incomplete
    frames wait in *assembler*.  The queue is read lazily, one packet
    per step, so whatever the caller sends between frames is ordered
    exactly as in a hand-written receive loop.
    """
    while True:
        packet = network.receive(host)
        if packet is None:
            return
        try:
            completed = assembler.feed(packet)
        except ProtocolError:
            errors.inc()
            continue
        if completed is None:
            continue
        if not isinstance(completed[1], kind):
            errors.inc()
            continue
        yield completed
