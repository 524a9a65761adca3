"""The depot service: binds the wire grammar to a depot and its transform
engine. ``DepotServer`` is the one host ``dispatch_request`` serves, on every
plane. Started, it listens on TCP, with one logical handler per session and
a periodic lease sweeper. Never started, it binds no socket and runs no
thread, and serves the datagram plane and in-process callers.
``dispatch_request`` counts each request it runs in ``verb_counts``, on every
plane. A session answers LOAD itself, from a view the depot lends, and
counts it the same way.

TRANSFER is source-initiated push, run by ``DepotServer.handle_transfer``: a
LOAD of the source range, then a STORE of those bytes, one ``wire.PIECE`` at
a time and always at least one piece, so a zero-length TRANSFER checks both
capabilities as a zero-length STORE does. A source on another depot is
``NotLocal``. A remote destination is stored into through a pooled client
session to its depot, on every plane, and one that cannot be reached is
``RemoteUnreachable``. Each remote piece goes out from a view the depot
lends, as a stream LOAD reply does: the lock is held only while the socket
takes bytes without waiting (see ``ebp.depot``). A local destination gets a
copy of each piece, since storing from a lent view would hold both
allocations' locks, which two opposite local pushes take in opposite
orders; one copied from an unknown-state source is left unknown-state. The
requester never carries payload bytes.

A STORE's payload is not read before dispatch: the handler gets a lazy
``wire.Payload`` and ``Depot.store`` receives it straight into the
allocation, a slice at a time, under the allocation's lock. A STORE refused
before its bytes arrive has them drained afterwards, so the session stays in
sync. A payload cut off mid-stream leaves the target allocation unknown-state
(the write happened "somehow, maybe", which is exactly what the flag means)
and closes the session. Since the sender then holds the allocation lock, the
whole payload must arrive within ``transfer_timeout_ms`` of the depot
starting to receive it; a sender that stalls or trickles past that is
treated as gone.

A client may pipeline requests (``lodn`` sends a tick's PROBEs and RENEWs to
a depot in batches). A reply without a payload is held back while the next
request's whole header line is already buffered, and the held replies go out
together in one write. They are flushed before the session could block: when
no whole header line is buffered, before a STORE payload is read, with a
reply that carries a payload, and when the session ends. A reply is held
only for a request already received, so holding adds no state beyond the
requests in the receive buffer. Sessions set ``TCP_NODELAY``: with Nagle's
algorithm a reply written while an earlier one is still unacknowledged waits
for that ACK, which the client delays by about 40 ms while it sends nothing,
so each write after the first in a batch would stall.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from collections import defaultdict
from contextlib import suppress
from functools import partial
from typing import Optional

from .capability import Hardness
from .client import session
from .depot import Depot, DepotConfig
from .errors import (
    BindFailure,
    ConnectionLost,
    EbpError,
    MalformedFrame,
    NotLocal,
    RemoteUnreachable,
    Timeout,
)
from .nfu import NfuEngine, ResourceBudget, TransformSpec
from .wire import (
    CAP,
    VERB_TABLE,
    ErrResponse,
    Framer,
    LentPayload,
    LoadRequest,
    OkResponse,
    Payload,
    Request,
    Response,
    TransferRequest,
    encode_response,
    parse_request_header,
    pieces,
    send_now,
    send_parts,
)

logger = logging.getLogger("ebp.depot")

SWEEP_PERIOD_S = 1.0


def dispatch_request(req: Request, server: "DepotServer") -> Response:
    """Run one decoded request and encode its OK reply by its ``VERB_TABLE``
    row; count it in ``server.verb_counts``, and log it at DEBUG."""
    try:
        resp = VERB_TABLE[req.verb].ok(_HANDLERS[req.verb](req, server))
    except EbpError as exc:
        resp = ErrResponse(exc.code, exc.message)
    except ValueError as exc:
        resp = ErrResponse("MalformedFrame", str(exc))
    except Exception:  # never crash the session on a handler bug
        logger.exception("internal error handling %s", req.verb)
        resp = ErrResponse("MalformedFrame", "internal error")
    return _counted(req, server, resp)


def _counted(req: Request, server: "DepotServer", resp: Response) -> Response:
    """``resp``, once ``req`` is counted in ``server.verb_counts`` and logged
    at DEBUG with its outcome."""
    server.verb_counts[req.verb] += 1
    if logger.isEnabledFor(logging.DEBUG):
        outcome = "OK" if isinstance(resp, OkResponse) else f"ERR:{resp.code}"
        logger.debug("%s alloc=%s %s", req.verb, _alloc_id_of(req), outcome)
    return resp


# Per-verb handlers: (request, server) -> the values of the OK reply.


def _release(req, server) -> tuple:
    server.depot.release(req.cap)
    return ()


def _transform(req, server) -> tuple:
    params = dict(req.params)
    if len(params) != len(req.params):
        raise MalformedFrame("duplicate transform param keys")
    budget = ResourceBudget(req.max_wall_ms, req.max_scratch_bytes, req.max_io_bytes)
    result = server.engine.execute(TransformSpec(req.op_name, req.inputs, req.outputs, params, budget))
    return result.status, result.io_bytes_used, result.wall_ms_used, result.outputs_state


def _stats(req, server) -> tuple:
    stats = server.depot.stats()
    return (*stats[:4], *(stats.preemptions[tier] for tier in Hardness))


_HANDLERS = {
    "ALLOCATE": lambda req, server: tuple(server.depot.allocate(req.capacity, req.duration, req.tier)),
    "STORE": lambda req, server: (server.depot.store(req.cap, req.offset, req.payload),),
    "LOAD": lambda req, server: server.depot.load(req.cap, req.offset, req.length),
    "RENEW": lambda req, server: (server.depot.renew(req.cap, req.extension),),
    "RELEASE": _release,
    "PROBE": lambda req, server: server.depot.probe(req.cap),
    "TRANSFER": lambda req, server: (server.handle_transfer(req),),
    "TRANSFORM": _transform,
    "STATS": _stats,
}


class DepotServer:
    """One depot and its transform engine; ``start`` puts them behind a
    listening socket, and ``dispatch_request`` serves it a request on any
    plane."""

    def __init__(
        self,
        config: DepotConfig,
        *,
        clock=time.monotonic,
        sweep_period_s: float = SWEEP_PERIOD_S,
        transfer_timeout_ms: int = 5000,
    ):
        self.config = config
        self.depot = Depot(config, clock=clock)
        self.engine = NfuEngine(self.depot)
        self.addr: Optional[str] = None
        # verb -> requests run; a Counter's += costs three times a defaultdict's.
        self.verb_counts: defaultdict = defaultdict(int)
        self._sweep_period_s = sweep_period_s
        self._transfer_timeout_ms = transfer_timeout_ms
        self._sock: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._threads: list = []
        self._sessions: set = set()
        self._sessions_lock = threading.Lock()

    # --------------------------------------------------------------- lifecycle

    def start(self) -> str:
        host, port_text = self.config.listen_addr.rsplit(":", 1)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, int(port_text)))
        except OSError as exc:
            sock.close()
            raise BindFailure(f"cannot bind {self.config.listen_addr}: {exc}") from exc
        sock.listen(64)
        self._sock = sock
        self.addr = f"{host}:{sock.getsockname()[1]}"
        self.depot.addr = self.addr  # capabilities carry the bound address
        self._stop.clear()
        for target in (self._accept_loop, self._sweep_loop):
            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            self._threads.append(thread)
        logger.info("depot listening on %s", self.addr)
        return self.addr

    def stop(self) -> None:
        """Stop accepting; in-flight requests complete, then sessions close."""
        self._stop.set()
        if self._sock is not None:
            _shut(self._sock)  # wakes the blocked accept()
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()
        with self._sessions_lock:
            leftovers = list(self._sessions)
        for conn in leftovers:
            _shut(conn)  # wakes a blocked read or send; the peer sees EOF now

    def serve_forever(self) -> None:
        """Run, once started, until stop() is called from another thread or a
        signal handler."""
        while not self._stop.is_set():
            time.sleep(0.2)

    # ------------------------------------------------------------------ loops

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _peer = self._sock.accept()
            except OSError:
                return  # listener shut down
            # Registered before its thread starts, so stop() always finds it.
            with self._sessions_lock:
                self._sessions.add(conn)
            thread = threading.Thread(target=self._session, args=(conn,), daemon=True)
            thread.start()

    def _sweep_loop(self) -> None:
        while not self._stop.wait(self._sweep_period_s):
            self.depot.sweep_leases()

    # ---------------------------------------------------------------- session

    def _session(self, conn: socket.socket) -> None:
        framer = Framer(conn)
        held: list = []  # encoded replies not yet written
        try:
            with suppress(OSError):  # stop() may have closed it already
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stop.is_set() and self._serve_one(conn, framer, held):
                pass
            _flush(conn, held)
        finally:
            with self._sessions_lock:
                self._sessions.discard(conn)
            conn.close()

    def _serve_one(self, conn: socket.socket, framer: Framer, held: list) -> bool:
        """Read, run and answer one request; False once the session must end.

        One request per call, so its payload and response die with the frame
        instead of staying alive while the session idles. Its reply may be
        left in ``held``; see ``_reply``.
        """
        try:
            line = framer.readline()  # reads the socket only when ``held`` is empty
        except MalformedFrame as exc:
            _flush(conn, held, ErrResponse(exc.code, exc.message))
            return False  # stream cannot be re-synchronized
        except OSError:
            return False
        try:
            build, payload_len = parse_request_header(line)
        except MalformedFrame as exc:
            # Header fully consumed; the stream is still in sync.
            return _reply(conn, framer, held, ErrResponse(exc.code, exc.message))
        if payload_len > self.config.max_alloc_size:
            _flush(conn, held, ErrResponse("MalformedFrame", "declared payload exceeds depot limit"))
            return False
        if not payload_len:
            req = build(b"")
            if isinstance(req, LoadRequest):
                return self._send_load(conn, framer, held, req)
            return _reply(conn, framer, held, dispatch_request(req, self))
        # The client may wait for the held replies before it sends the payload.
        if not _flush(conn, held):
            return False
        # The handler receives the payload straight into the allocation,
        # holding its lock, so a sender that is too slow is cut off as if gone.
        payload = Payload(framer, payload_len, self._transfer_timeout_ms / 1000)
        req = build(payload)
        resp = dispatch_request(req, self)
        with suppress(ConnectionLost):
            payload.drain()  # a refused STORE left its payload unread
        if payload.lost:
            # A write it cut off has poisoned its target already.
            logger.warning("STORE payload cut off; alloc=%s, session closed", req.cap.alloc_id)
            return False
        try:
            conn.settimeout(None)  # receiving left a timeout on it
        except OSError:
            return False  # stop() closed the socket
        return _reply(conn, framer, held, resp)

    def _send_load(self, conn: socket.socket, framer: Framer, held: list, req: LoadRequest) -> bool:
        """Answer a stream LOAD from a view the depot lends: the held
        replies, the header and as much of the view as the socket takes at
        once go out under the allocation's lock, and the rest, copied, once
        it is released. Counted and logged as ``dispatch_request`` does."""
        try:
            with self.depot.lend(req.cap, req.offset, req.length) as (view, unknown):
                resp = VERB_TABLE["LOAD"].ok((view, unknown))
                try:
                    rest = send_now(conn, _parts(held, resp))
                except OSError:
                    rest = None
        except EbpError as exc:
            return _reply(conn, framer, held, _counted(req, self, ErrResponse(exc.code, exc.message)))
        _counted(req, self, resp)
        return rest is not None and _send(conn, rest)

    def handle_transfer(self, req: TransferRequest) -> int:
        """Push the source range into the sink: this depot for a local
        destination, else a pooled client session to the destination's."""
        depot = self.depot
        if req.src.depot_addr != depot.addr:
            raise NotLocal(f"transfer source {req.src.depot_addr} is not this depot")
        if req.dst.depot_addr == depot.addr:
            for done, n in pieces(req.length):
                data, unknown = depot.load(req.src, req.src_offset + done, n)
                depot.store(req.dst, req.dst_offset + done, data)
                if unknown:
                    depot.mark_unknown(req.dst)
            return req.length
        try:
            with session(req.dst.depot_addr, self._transfer_timeout_ms) as sink:
                for done, n in pieces(req.length):
                    lend = partial(depot.lend, req.src, req.src_offset + done, n)
                    # A remote sink cannot carry the unknown-state flag.
                    sink.store(req.dst, req.dst_offset + done, LentPayload(lend, n))
            return req.length
        except (ConnectionLost, Timeout) as exc:
            raise RemoteUnreachable(f"destination {req.dst.depot_addr}: {exc.message}") from exc


def _alloc_id_of(req: Request) -> str:
    """The allocation id of the request's first CAP field, or "-"."""
    for name, kind in VERB_TABLE[req.verb].fields:
        if kind is CAP:
            return str(getattr(req, name).alloc_id)
    return "-"


def _shut(sock: socket.socket) -> None:
    with suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    sock.close()


def _reply(conn: socket.socket, framer: Framer, held: list, resp: Response) -> bool:
    """Answer one request; False once the peer has gone.

    A reply without a payload is held back in ``held`` while the next
    request's header line is already buffered, so a pipelined batch is
    answered in one write; otherwise it goes out now with every held reply.
    """
    if getattr(resp, "payload", b"") or not framer.line_ready():
        return _flush(conn, held, resp)
    held.append(encode_response(resp))
    return True


def _flush(conn: socket.socket, held: list, resp: Optional[Response] = None) -> bool:
    """Best-effort write of the held replies, then ``resp``, in one gathered
    write; a vanished peer is not an error, and returns False."""
    return _send(conn, _parts(held, resp))


def _parts(held: list, resp: Optional[Response]) -> list:
    """The held replies, then ``resp``, as the parts of one gathered write,
    and ``held`` emptied. A payload goes out after its header, never copied
    into one buffer with it."""
    parts = [b"".join(held)] if held else []
    held.clear()
    if resp is not None:
        payload = getattr(resp, "payload", b"")
        if payload:
            parts += (encode_response(OkResponse(resp.tokens)), payload)
        else:
            parts.append(encode_response(resp))
    return parts


def _send(conn: socket.socket, parts: list) -> bool:
    """Write ``parts``; False once the peer has gone."""
    try:
        send_parts(conn, parts)
        return True
    except OSError:
        return False
