"""Typed client for the depot stream protocol.

A session is one TCP connection, one request at a time; callers needing
parallelism open more sessions. Payloads larger than one frame are split into
sequential 1 MiB pieces. There are no hidden retries: a timeout on a
side-effecting verb surfaces as ``Timeout`` and it is the caller's decision
what to do next (retry safety exists only in datagram mode, where the
receiver deduplicates).

``session(addr, timeout_ms)`` lends an exclusive session from a small
per-address pool; ``lors``, ``lodn`` and the depot's TRANSFER push use it so
that a run of short requests shares one connection. A session goes back to
the pool only when its last request ended with ``OK`` or with a depot
``ERR`` line, so the stream is known to be in sync. One that hit
``Timeout``, ``ConnectionLost`` or ``MalformedFrame``, or was interrupted
mid-request, is closed. An idle session that has become readable (the depot
closed it) is closed instead of lent, without a byte sent. Idle sessions are
bounded per address and in total, and closed once idle for
``IDLE_MAX_AGE_S``. The pool never resends a request: a session the depot
drops while it is lent fails its request with ``ConnectionLost``, exactly as
a fresh one would.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from contextlib import contextmanager
from typing import Iterator, NamedTuple, Optional

from .capability import Capability, CapabilitySet, Hardness, parse_capability
from .depot import LoadResult
from .errors import ConnectionLost, MalformedFrame, Timeout, error_for_code
from .nfu import OutputsState, ResourceBudget, TransformResult, TransformStatus
from .wire import (
    AllocateRequest,
    LoadRequest,
    ProbeRequest,
    ReleaseRequest,
    RenewRequest,
    Request,
    StatsRequest,
    StoreRequest,
    TransferRequest,
    TransformRequest,
    encode_request,
    parse_response_header,
)

PIECE_SIZE = 1024 * 1024
DEFAULT_TIMEOUT_MS = 5000
IDLE_PER_ADDR = 4
IDLE_TOTAL = 32
IDLE_MAX_AGE_S = 30.0

# Error codes after which the stream may be out of step with the depot.
_DESYNC_CODES = frozenset(cls.code for cls in (Timeout, ConnectionLost, MalformedFrame))


class ProbeInfo(NamedTuple):
    capacity: int
    used: int
    expires_in_ms: int
    hardness: Hardness


class StatsInfo(NamedTuple):
    sum_hard: int
    sum_soft: int
    bytes_in_use: int
    live_allocations: int
    preemptions: tuple  # (best_effort, soft, hard)


class DepotClient:
    """One stream session against one depot."""

    def __init__(self, addr: str, timeout_ms: int = DEFAULT_TIMEOUT_MS):
        self.addr = addr
        host, port_text = addr.rsplit(":", 1)
        try:
            self._sock = socket.create_connection((host, int(port_text)), timeout=timeout_ms / 1000)
        except socket.timeout as exc:
            raise Timeout(f"connect to {addr} timed out") from exc
        except OSError as exc:
            raise ConnectionLost(f"cannot connect to {addr}: {exc}") from exc
        self._sock.settimeout(timeout_ms / 1000)
        self._buf = bytearray()
        self._in_sync = True  # False from a request's start until its clean end

    # ----------------------------------------------------------------- verbs

    def allocate(self, capacity: int, duration: int, hardness: Hardness) -> CapabilitySet:
        tokens, _ = self._request(AllocateRequest(capacity, duration, hardness), 3)
        read, write, manage = (parse_capability(t) for t in tokens)
        return CapabilitySet(read=read, write=write, manage=manage)

    def store(self, cap: Capability, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset``, split into sequential 1 MiB frames."""
        if not data:
            tokens, _ = self._request(StoreRequest(cap, offset, b""), 1)
            return int(tokens[0])
        written = 0
        while written < len(data):
            piece = data[written : written + PIECE_SIZE]
            tokens, _ = self._request(StoreRequest(cap, offset + written, piece), 1)
            written += int(tokens[0])
        return written

    def load(self, cap: Capability, offset: int, length: int) -> LoadResult:
        """Read ``length`` bytes from ``offset`` in 1 MiB pieces."""
        parts = []
        unknown = False
        fetched = 0
        while True:
            n = min(PIECE_SIZE, length - fetched)
            tokens, payload = self._request(
                LoadRequest(cap, offset + fetched, n), 2, payload_expected=True
            )
            unknown = unknown or tokens[1] == "1"
            parts.append(payload)
            fetched += n
            if fetched >= length:
                return LoadResult(b"".join(parts), unknown)

    def probe(self, cap: Capability) -> ProbeInfo:
        tokens, _ = self._request(ProbeRequest(cap), 4)
        return ProbeInfo(
            capacity=int(tokens[0]),
            used=int(tokens[1]),
            expires_in_ms=int(tokens[2]),
            hardness=Hardness(tokens[3]),
        )

    def renew(self, cap: Capability, extension: int) -> int:
        """Returns the renewed lease's remaining lifetime in milliseconds."""
        tokens, _ = self._request(RenewRequest(cap, extension), 1)
        return int(tokens[0])

    def release(self, cap: Capability) -> None:
        self._request(ReleaseRequest(cap), 0)

    def transfer(
        self, src: Capability, src_offset: int, dst: Capability, dst_offset: int, length: int
    ) -> int:
        """Ask the *source* depot (this session's depot) to push a range."""
        tokens, _ = self._request(TransferRequest(src, src_offset, dst, dst_offset, length), 1)
        return int(tokens[0])

    def transform(
        self,
        op_name: str,
        inputs,
        outputs,
        budget: ResourceBudget,
        params: Optional[dict] = None,
    ) -> TransformResult:
        req = TransformRequest(
            op_name=op_name,
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            max_wall_ms=budget.max_wall_ms,
            max_scratch_bytes=budget.max_scratch_bytes,
            max_io_bytes=budget.max_io_bytes,
            params=tuple((k, _param_text(v)) for k, v in (params or {}).items()),
        )
        tokens, _ = self._request(req, 4)
        return TransformResult(
            status=TransformStatus(tokens[0]),
            io_bytes_used=int(tokens[1]),
            wall_ms_used=int(tokens[2]),
            outputs_state=OutputsState(tokens[3]),
        )

    def stats(self) -> StatsInfo:
        tokens, _ = self._request(StatsRequest(), 7)
        numbers = [int(t) for t in tokens]
        return StatsInfo(*numbers[:4], preemptions=tuple(numbers[4:]))

    # ------------------------------------------------------------- transport

    def _request(self, req: Request, n_tokens: int, payload_expected: bool = False):
        self._in_sync = False
        try:
            self._sock.sendall(encode_request(req))
            line = self._readline()
        except socket.timeout as exc:
            raise Timeout(f"{req.verb} against {self.addr} timed out") from exc
        except OSError as exc:
            raise ConnectionLost(f"{req.verb} against {self.addr}: {exc}") from exc
        kind, parsed = parse_response_header(line)
        if kind == "ERR":
            code, message = parsed
            self._in_sync = code not in _DESYNC_CODES
            raise error_for_code(code, message)
        if len(parsed) != n_tokens:
            raise MalformedFrame(
                f"{req.verb} response carries {len(parsed)} tokens, expected {n_tokens}"
            )
        payload = b""
        if payload_expected:
            try:
                payload = self._read_exact(int(parsed[0]))
            except socket.timeout as exc:
                raise Timeout(f"{req.verb} payload from {self.addr} timed out") from exc
            except OSError as exc:
                raise ConnectionLost(f"{req.verb} payload from {self.addr}: {exc}") from exc
        self._in_sync = True
        return parsed, payload

    def _readline(self) -> bytes:
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                line = bytes(self._buf[: nl + 1])
                del self._buf[: nl + 1]
                return line
            if len(self._buf) > 4096:
                raise MalformedFrame("response header too long")
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionLost(f"server {self.addr} closed the connection")
            self._buf += chunk

    def _read_exact(self, n: int) -> bytearray:
        """``n`` payload bytes, received straight into a buffer of that size."""
        out = bytearray(n)
        have = min(n, len(self._buf))
        out[:have] = self._buf[:have]
        del self._buf[:have]
        with memoryview(out) as view:
            while have < n:
                got = self._sock.recv_into(view[have:])
                if not got:
                    raise ConnectionLost(f"server {self.addr} closed mid-payload")
                have += got
        return out

    def _idle_closed(self) -> bool:
        """True when an idle session has something to read: the depot closed it."""
        if self._buf or self._sock.fileno() < 0:
            return True
        poller = select.poll()
        poller.register(self._sock, select.POLLIN)
        return bool(poller.poll(0))

    # --------------------------------------------------------------- plumbing

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "DepotClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _param_text(value):
    """Transform params travel as tokens; ints go as decimal text."""
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return value


# ---------------------------------------------------------------- session pool


class _SessionPool:
    """Idle sessions by address, oldest first; each is lent to one caller."""

    def __init__(self):
        self.per_addr = IDLE_PER_ADDR
        self.total = IDLE_TOTAL
        self.max_age_s = IDLE_MAX_AGE_S
        self.clock = time.monotonic
        self._lock = threading.Lock()
        self._idle: dict = {}  # addr -> [(idle since, DepotClient)]

    def take(self, addr: str) -> Optional[DepotClient]:
        doomed = []
        found = None
        with self._lock:
            self._expire_locked(doomed)
            idle = self._idle.get(addr, [])
            while idle and found is None:
                _, cli = idle.pop()
                if cli._idle_closed():
                    doomed.append(cli)
                else:
                    found = cli
            if not idle:
                self._idle.pop(addr, None)
        _close_all(doomed)
        return found

    def give(self, cli: DepotClient) -> None:
        doomed = []
        with self._lock:
            self._expire_locked(doomed)
            idle = self._idle.setdefault(cli.addr, [])
            idle.append((self.clock(), cli))
            if len(idle) > self.per_addr:
                self._evict_locked(cli.addr, doomed)
            while sum(len(v) for v in self._idle.values()) > self.total:
                self._evict_locked(min(self._idle, key=lambda a: self._idle[a][0][0]), doomed)
        _close_all(doomed)

    def drain(self) -> None:
        with self._lock:
            doomed = [cli for idle in self._idle.values() for _, cli in idle]
            self._idle.clear()
        _close_all(doomed)

    def idle_counts(self) -> dict:
        with self._lock:
            return {addr: len(idle) for addr, idle in self._idle.items()}

    def _evict_locked(self, addr: str, doomed: list) -> None:
        idle = self._idle[addr]
        doomed.append(idle.pop(0)[1])
        if not idle:
            del self._idle[addr]

    def _expire_locked(self, doomed: list) -> None:
        cutoff = self.clock() - self.max_age_s
        for addr in list(self._idle):
            while addr in self._idle and self._idle[addr][0][0] < cutoff:
                self._evict_locked(addr, doomed)


def _close_all(clients: list) -> None:
    for cli in clients:
        cli.close()


_pool = _SessionPool()


@contextmanager
def session(addr: str, timeout_ms: int = DEFAULT_TIMEOUT_MS) -> Iterator[DepotClient]:
    """An exclusive session to ``addr``: an idle pooled one, else a new one.

    On exit the session returns to the pool if its last request left the
    stream in sync, and is closed otherwise.
    """
    cli = _pool.take(addr)
    if cli is None:
        cli = DepotClient(addr, timeout_ms)
    else:
        cli._sock.settimeout(timeout_ms / 1000)
    try:
        yield cli
    finally:
        if cli._in_sync:
            _pool.give(cli)
        else:
            cli.close()


def drain_pool() -> None:
    """Close every idle pooled session."""
    _pool.drain()
