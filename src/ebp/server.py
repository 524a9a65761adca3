"""TCP depot service: binds the wire grammar to a depot and its transform
engine, one logical handler per session, plus a periodic lease sweeper.

TRANSFER is source-initiated push: this depot reads the source range locally
and, for a remote destination, borrows a pooled client session to the
destination depot and issues piecewise STOREs. The requester never carries
payload bytes.

A session whose STORE payload is cut off mid-stream marks the target
allocation unknown-state before closing: the write happened "somehow, maybe",
which is exactly what the flag means.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from collections import Counter
from typing import Optional

from .capability import Capability, parse_capability
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
    AllocateRequest,
    ErrResponse,
    LoadRequest,
    MAX_HEADER_BYTES,
    OkResponse,
    ProbeRequest,
    ReleaseRequest,
    RenewRequest,
    Request,
    Response,
    StatsRequest,
    StoreRequest,
    TransferRequest,
    TransformRequest,
    encode_response,
    parse_request_header,
)

logger = logging.getLogger("ebp.depot")

TRANSFER_PIECE = 1024 * 1024
SWEEP_PERIOD_S = 1.0
_SESSION_POLL_S = 0.25


def dispatch_request(req: Request, server: "DepotServer") -> Response:
    """Map one decoded request onto depot/engine calls and wire tokens."""
    depot = server.depot
    try:
        if isinstance(req, AllocateRequest):
            caps = depot.allocate(req.capacity, req.duration, req.tier)
            return OkResponse((caps.read.text(), caps.write.text(), caps.manage.text()))
        if isinstance(req, StoreRequest):
            written = depot.store(req.cap, req.offset, req.payload)
            return OkResponse((str(written),))
        if isinstance(req, LoadRequest):
            result = depot.load(req.cap, req.offset, req.length)
            return OkResponse(
                (str(len(result.data)), "1" if result.unknown_state else "0"), result.data
            )
        if isinstance(req, RenewRequest):
            expiry = depot.renew(req.cap, req.extension)
            return OkResponse((str(_remaining_ms(depot, expiry)),))
        if isinstance(req, ReleaseRequest):
            depot.release(req.cap)
            return OkResponse()
        if isinstance(req, ProbeRequest):
            info = depot.probe(req.cap)
            return OkResponse(
                (
                    str(info.capacity),
                    str(info.used),
                    str(_remaining_ms(depot, info.expiry)),
                    info.hardness.value,
                )
            )
        if isinstance(req, TransferRequest):
            moved = server.handle_transfer(req)
            return OkResponse((str(moved),))
        if isinstance(req, TransformRequest):
            result = server.engine.execute(_transform_spec(req))
            return OkResponse(
                (
                    result.status.value,
                    str(result.io_bytes_used),
                    str(result.wall_ms_used),
                    result.outputs_state.value,
                )
            )
        if isinstance(req, StatsRequest):
            stats = depot.stats()
            pre = stats.preemptions
            return OkResponse(
                tuple(
                    str(n)
                    for n in (
                        stats.sum_hard,
                        stats.sum_soft,
                        stats.bytes_in_use,
                        stats.live_allocations,
                        *(pre[tier] for tier in sorted(pre, key=lambda t: t.rank)),
                    )
                )
            )
        raise MalformedFrame(f"unhandled request type {type(req).__name__}")
    except EbpError as exc:
        return ErrResponse(exc.code, exc.message)
    except ValueError as exc:
        return ErrResponse("MalformedFrame", str(exc))
    except Exception:  # never crash the session on a handler bug
        logger.exception("internal error handling %s", req.verb)
        return ErrResponse("MalformedFrame", "internal error")


def _remaining_ms(depot: Depot, expiry: float) -> int:
    return max(0, int((expiry - depot.now()) * 1000))


def _transform_spec(req: TransformRequest) -> TransformSpec:
    keys = [k for k, _ in req.params]
    if len(set(keys)) != len(keys):
        raise MalformedFrame("duplicate transform param keys")
    try:
        budget = ResourceBudget(req.max_wall_ms, req.max_scratch_bytes, req.max_io_bytes)
    except ValueError as exc:
        raise MalformedFrame(str(exc)) from exc
    return TransformSpec(
        op_name=req.op_name,
        inputs=req.inputs,
        outputs=req.outputs,
        params=dict(req.params),
        budget=budget,
    )


class DepotServer:
    """One depot behind one listening socket."""

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
        self.verb_counts: Counter = Counter()
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
        sock.settimeout(_SESSION_POLL_S)
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
            self._sock.close()
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()
        with self._sessions_lock:
            leftovers = list(self._sessions)
        for conn in leftovers:
            try:
                conn.shutdown(socket.SHUT_RDWR)  # the peer sees EOF now, not at close
                conn.close()
            except OSError:
                pass

    def serve_forever(self) -> None:
        """Run until stop() is called from another thread or a signal handler."""
        if self.addr is None:
            self.start()
        while not self._stop.is_set():
            time.sleep(0.2)

    # ------------------------------------------------------------------ loops

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            thread = threading.Thread(target=self._session, args=(conn,), daemon=True)
            thread.start()

    def _sweep_loop(self) -> None:
        while not self._stop.wait(self._sweep_period_s):
            self.depot.sweep_leases()

    # ---------------------------------------------------------------- session

    def _session(self, conn: socket.socket) -> None:
        conn.settimeout(_SESSION_POLL_S)
        with self._sessions_lock:
            self._sessions.add(conn)
        reader = _Reader(conn, self._stop)
        try:
            while not self._stop.is_set() and self._serve_one(conn, reader):
                pass
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._sessions_lock:
                self._sessions.discard(conn)

    def _serve_one(self, conn: socket.socket, reader: "_Reader") -> bool:
        """Read, run and answer one request; False once the session must end.

        One request per call, so its payload and response die with the frame
        instead of staying alive while the session idles.
        """
        try:
            line = reader.readline()
        except _SessionClosed:
            return False
        if line is None:
            return False  # clean EOF between requests
        if not line.endswith(b"\n"):
            _send(conn, ErrResponse("MalformedFrame", "header too long"))
            return False  # stream cannot be re-synchronized
        try:
            build, payload_len = parse_request_header(line)
        except MalformedFrame as exc:
            # Header fully consumed; the stream is still in sync.
            return _send(conn, ErrResponse(exc.code, exc.message))
        if payload_len > self.config.max_alloc_size:
            _send(conn, ErrResponse("MalformedFrame", "declared payload exceeds depot limit"))
            return False
        payload = b""
        if payload_len:
            try:
                payload = reader.read_exact(payload_len)
            except _SessionClosed:
                self._poison_interrupted_store(line)
                return False
        req = build(payload)
        resp = dispatch_request(req, self)
        self._log(req, resp)
        return _send(conn, resp)

    def _poison_interrupted_store(self, header_line: bytes) -> None:
        # The peer vanished mid-payload: the target's contents are unknown.
        try:
            cap = parse_capability(header_line.split(b" ")[1].decode("utf-8"))
            self.depot.mark_unknown(cap)
            logger.warning("STORE interrupted mid-payload; alloc=%s poisoned", cap.alloc_id)
        except EbpError:
            pass

    def _log(self, req: Request, resp: Response) -> None:
        self.verb_counts[req.verb] += 1
        outcome = "OK" if isinstance(resp, OkResponse) else f"ERR:{resp.code}"
        logger.info("%s alloc=%s %s", req.verb, _alloc_id_of(req), outcome)

    # --------------------------------------------------------------- transfer

    def handle_transfer(self, req: TransferRequest) -> int:
        """Copy source bytes to the destination, pushing remotely if needed."""
        if req.src.depot_addr != self.addr:
            raise NotLocal(f"transfer source {req.src.depot_addr} is not this depot")
        if req.dst.depot_addr == self.addr:
            moved = 0
            while moved < req.length:
                n = min(TRANSFER_PIECE, req.length - moved)
                self.depot.transfer_local(
                    req.src, req.src_offset + moved, req.dst, req.dst_offset + moved, n
                )
                moved += n
            return moved
        moved = 0
        try:
            with session(req.dst.depot_addr, self._transfer_timeout_ms) as remote:
                while moved < req.length:
                    n = min(TRANSFER_PIECE, req.length - moved)
                    data, _unknown = self.depot.load(req.src, req.src_offset + moved, n)
                    remote.store(req.dst, req.dst_offset + moved, data)
                    moved += n
            return moved
        except (ConnectionLost, Timeout) as exc:
            raise RemoteUnreachable(f"destination {req.dst.depot_addr}: {exc.message}") from exc


def _alloc_id_of(req: Request) -> str:
    for attr in ("cap", "src"):
        cap = getattr(req, attr, None)
        if isinstance(cap, Capability):
            return str(cap.alloc_id)
    return "-"


def _send(conn: socket.socket, resp: Response) -> bool:
    """Best-effort response write; a vanished peer is not an error.

    A payload goes out after its header by gathered writes, never copied
    into one buffer with it.
    """
    payload = getattr(resp, "payload", b"")
    try:
        if not payload:
            conn.sendall(encode_response(resp))
            return True
        parts = [memoryview(encode_response(OkResponse(resp.tokens))), memoryview(payload)]
        while parts:
            sent = conn.sendmsg(parts)
            while parts and sent >= len(parts[0]):
                sent -= len(parts.pop(0))
            if parts:
                parts[0] = parts[0][sent:]
        return True
    except OSError:
        return False


class _SessionClosed(Exception):
    """Transport gone (EOF, reset) or server shutting down."""


class _Reader:
    """Buffered socket reader that polls the shutdown flag while blocked."""

    def __init__(self, conn: socket.socket, stop: threading.Event):
        self._conn = conn
        self._stop = stop
        self._buf = bytearray()

    def readline(self) -> Optional[bytes]:
        """One header line including LF; None on clean EOF between requests.

        An over-long line (no LF within the header limit) is returned without
        its terminator so the caller can reject it; the stream cannot be
        re-synchronized after that.
        """
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                line = bytes(self._buf[: nl + 1])
                del self._buf[: nl + 1]
                return line
            if len(self._buf) > MAX_HEADER_BYTES:
                return bytes(self._buf)
            chunk = self._receive(self._conn.recv, 65536)
            if not chunk:
                if self._buf:
                    raise _SessionClosed()
                return None
            self._buf += chunk

    def read_exact(self, n: int) -> bytearray:
        """``n`` payload bytes, received straight into a buffer of that size."""
        out = bytearray(n)
        have = min(n, len(self._buf))
        out[:have] = self._buf[:have]
        del self._buf[:have]
        with memoryview(out) as view:
            while have < n:
                got = self._receive(self._conn.recv_into, view[have:])
                if not got:
                    raise _SessionClosed()
                have += got
        return out

    def _receive(self, receive, arg):
        """``receive(arg)``, waiting out poll timeouts until shutdown."""
        while True:
            if self._stop.is_set():
                raise _SessionClosed()
            try:
                return receive(arg)
            except socket.timeout:
                continue
            except OSError:
                raise _SessionClosed() from None
