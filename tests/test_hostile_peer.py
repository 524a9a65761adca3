"""A depot session against a hostile peer: no sender receives another
sender's response, and no malformed stream pushes a session out of step.

One peer of an unstarted ``DepotServer`` sends a pipelined stream of valid
and mutated requests over ``socket.socketpair()``, while an honest peer runs
a session beside it. The oracle walks the same stream by the grammar, one
request at a time, and runs each request through ``dispatch_request`` on a
twin depot that holds the same allocations under the same ids and keys.
"""

from __future__ import annotations

import itertools
import socket
import threading
from unittest import mock

from hypothesis import given, settings, strategies as st

from ebp.capability import Hardness
from ebp.depot import DepotConfig
from ebp.errors import ConnectionLost, EbpError, MalformedFrame
from ebp.server import DepotServer, dispatch_request
from ebp.wire import (
    MAX_HEADER_BYTES,
    ErrResponse,
    LoadRequest,
    ProbeRequest,
    ReleaseRequest,
    RenewRequest,
    StatsRequest,
    StoreRequest,
    encode_request,
    encode_response,
    parse_request_header,
)

ADDR = "127.0.0.1:9"  # never bound: both depots' capabilities name it
MAX_ALLOC = 1024
CAPACITIES = (256, 64, 128)  # the last allocation is the honest peer's


def new_server() -> tuple:
    """An unstarted server on a frozen clock, and its allocations. Every
    server gets the same keys, so a twin's capabilities are the same."""
    config = DepotConfig(total_capacity=1 << 20, max_alloc_size=MAX_ALLOC, listen_addr=ADDR)
    server = DepotServer(config, clock=lambda: 1000.0)
    server.depot.addr = ADDR
    keys = (f"{n:040x}" for n in itertools.count(1))
    with mock.patch("ebp.depot.new_key", lambda: next(keys)):
        sets = [server.depot.allocate(size, 600, Hardness.HARD) for size in CAPACITIES]
    server.depot.store(sets[2].write, 0, b"honest")
    return server, sets


class CutPayload:
    """A STORE payload of ``length`` bytes whose stream ends after ``data``,
    as ``wire.Payload`` is when its peer goes away mid-payload."""

    def __init__(self, data: bytes, length: int):
        self.data, self.length = data, length

    def __len__(self) -> int:
        return self.length

    def readinto(self, view) -> None:
        n = min(len(view), len(self.data))
        view[:n], self.data = self.data[:n], self.data[n:]
        if n < len(view):
            raise ConnectionLost("payload cut off")


def oracle(stream: bytes, twin: DepotServer) -> tuple:
    """(the replies the grammar gives ``stream``, the allocation id of a
    STORE cut off mid-payload or None), each request run on ``twin``."""
    replies, pos = [], 0
    while True:
        nl = stream.find(b"\n", pos, pos + MAX_HEADER_BYTES)
        if nl < 0:  # no LF within a header's room: the session ends
            if len(stream) - pos >= MAX_HEADER_BYTES:
                replies.append(ErrResponse("MalformedFrame", "header too long"))
            return replies, None
        line, pos = stream[pos : nl + 1], nl + 1
        try:
            build, length = parse_request_header(line)
        except MalformedFrame as exc:
            replies.append(ErrResponse(exc.code, exc.message))
            continue
        if length > MAX_ALLOC:
            replies.append(ErrResponse("MalformedFrame", "declared payload exceeds depot limit"))
            return replies, None
        payload, pos = stream[pos : pos + length], pos + length
        if len(payload) < length:
            req = build(CutPayload(payload, length))
            resp = dispatch_request(req, twin)
            return replies, req.cap.alloc_id if resp.code == ConnectionLost.code else None
        replies.append(dispatch_request(build(payload), twin))


def open_session(server: DepotServer, data: bytes) -> tuple:
    """A peer socket that has sent ``data`` and closed its sending side, and
    the thread running the server's session with it."""
    peer, conn = socket.socketpair()
    peer.settimeout(5)  # a session that hangs fails the test instead
    peer.sendall(data)
    peer.shutdown(socket.SHUT_WR)
    with server._sessions_lock:  # as the accept loop registers a session
        server._sessions.add(conn)
    thread = threading.Thread(target=server._session, args=(conn,), daemon=True)
    thread.start()
    return peer, thread


def received(peer: socket.socket) -> bytes:
    """All the peer receives until the session closes."""
    chunks = []
    with peer:
        while True:
            try:
                chunk = peer.recv(65536)
            except ConnectionResetError:  # closed with our bytes unread
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def state(server: DepotServer, sets: list) -> list:
    """What PROBE and a LOAD of the defined range show of each allocation."""
    out = []
    for caps in sets:
        try:
            info = server.depot.probe(caps.manage)
            out.append((info, server.depot.load(caps.read, 0, info.used)))
        except EbpError as exc:
            out.append(exc.code)
    return out


# A request on the hostile peer's allocations: sets -> the request.
caps_of = st.tuples(st.sampled_from((0, 1)), st.sampled_from(("read", "write", "manage"))).map(
    lambda c: lambda sets: getattr(sets[c[0]], c[1])
)
offsets = st.integers(0, 300)
request = st.one_of(
    st.builds(lambda c, o, d: lambda sets: StoreRequest(c(sets), o, d), caps_of, offsets, st.binary(max_size=100)),
    st.builds(lambda c, o, n: lambda sets: LoadRequest(c(sets), o, n), caps_of, offsets, offsets),
    st.builds(lambda c: lambda sets: ProbeRequest(c(sets)), caps_of),
    st.builds(lambda c, e: lambda sets: RenewRequest(c(sets), e), caps_of, st.integers(1, 100)),
    st.builds(lambda c: lambda sets: ReleaseRequest(c(sets)), caps_of),
    st.just(lambda sets: StatsRequest()),
)


def truncated(full: bytes, cut: float) -> bytes:
    """The header of ``full`` cut short, then its LF; no payload."""
    header = full[: full.index(b"\n")]
    return header[: 1 + int(cut * (len(header) - 2))] + b"\n"


def bare_cr(full: bytes) -> bytes:
    """``full`` with a CR where its header's LF was."""
    return full.replace(b"\n", b"\r", 1)


def cut_store(cap, offset: int, data: bytes, keep: float) -> bytes:
    """A STORE of ``data`` whose stream ends before the last payload byte."""
    full = encode_request(StoreRequest(cap, offset, data))
    return full[: len(full) - len(data) + int(keep * (len(data) - 1))]


def padded(cap, over: int) -> bytes:
    """A PROBE line padded to ``over`` bytes past the header limit, LF
    included: refused, and one past the limit ends the session."""
    line = f"PROBE {cap.text()} ".encode()
    return line + b"A" * (MAX_HEADER_BYTES + over - len(line) - 1) + b"\n"


# A step: sets -> the bytes it sends.
step = st.one_of(
    request.map(lambda make: lambda sets: encode_request(make(sets))),
    st.builds(lambda c, over: lambda sets: padded(c(sets), over), caps_of, st.integers(-1, 2)),
    st.builds(lambda make, cut: lambda sets: truncated(encode_request(make(sets)), cut), request, st.floats(0, 1)),
    request.map(lambda make: lambda sets: bare_cr(encode_request(make(sets)))),
    st.sampled_from((0, 1)).map(
        lambda i: lambda sets: f"STORE {sets[i].write.text()} 0 {MAX_ALLOC + 1}\n".encode()
    ),
)
# A step after which nothing is sent: a line with no LF that outgrows the
# header limit, or a STORE whose payload the stream cuts off.
last_step = st.one_of(
    st.just(lambda sets: b"PROBE " + b"A" * (MAX_HEADER_BYTES + 100)),
    st.builds(
        lambda c, o, d, keep: lambda sets: cut_store(c(sets), o, d, keep),
        caps_of, offsets, st.binary(min_size=1, max_size=100), st.floats(0, 1),
    ),
)


def honest_requests(caps) -> list:
    """The honest peer's session, on its own allocation ``caps``: no request
    that changes what STATS counts, which the hostile peer may ask for."""
    return [
        LoadRequest(caps.read, 0, 6),
        ProbeRequest(caps.manage),
        RenewRequest(caps.manage, 30),
        LoadRequest(caps.read, 2, 3),
    ]


@given(steps=st.lists(step, max_size=6), last=st.none() | last_step, cut=st.none() | st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_a_hostile_session_gets_the_grammar_replies_and_no_other(steps, last, cut):
    """``cut``, when given, ends the stream at that fraction of its bytes,
    wherever that falls: in a header, a payload or between requests."""
    server, sets = new_server()
    twin, _ = new_server()
    stream = b"".join(make(sets) for make in steps + [last] * (last is not None))
    if cut is not None:
        stream = stream[: int(cut * len(stream))]
    expected, cut_target = oracle(stream, twin)
    honest_reqs = honest_requests(sets[2])
    honest_expected = [dispatch_request(req, twin) for req in honest_reqs]

    hostile, hostile_thread = open_session(server, stream)
    honest, honest_thread = open_session(server, b"".join(map(encode_request, honest_reqs)))
    got, honest_got = received(hostile), received(honest)
    hostile_thread.join(5)
    honest_thread.join(5)

    assert not hostile_thread.is_alive() and not honest_thread.is_alive()
    assert server._sessions == set()
    assert got == b"".join(map(encode_response, expected))
    assert honest_got == b"".join(map(encode_response, honest_expected))
    assert state(server, sets) == state(twin, sets)
    if cut_target is not None:
        assert server.depot.load(sets[cut_target - 1].read, 0, 0).unknown_state
