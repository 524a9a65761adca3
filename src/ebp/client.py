"""Typed client for the depot stream protocol.

A session is one TCP connection. A lone request is written and its reply
read before the next request goes out; callers needing parallelism open more
sessions. Payloads larger than one frame are split into sequential
``wire.PIECE`` pieces, and move in place: a STORE piece is a view of the
caller's data, sent after its header by gathered writes, and a LOAD piece is
received straight into the caller's buffer, or into the one ``bytearray`` the
load returns. A STORE of a ``wire.LentPayload`` (the depot's TRANSFER push)
is one frame sent from a view a depot lends under an allocation's lock: only
what the socket takes at once goes out under the lock, the rest after it.
There are no hidden retries: a timeout on a side-effecting verb surfaces as
``Timeout`` and it is the caller's decision what to do next (retry safety
exists only in datagram mode, where the receiver deduplicates).

One rule keeps replies with their requests: an open session is in step with
its depot. A request that ends with anything but an OK reply read whole or a
depot ``ERR`` line whose code leaves the stream in step closes its session:
after ``Timeout``, ``ConnectionLost`` or ``MalformedFrame`` (a reply line that
cannot be read, a reply of the wrong shape, or such an ``ERR`` line), and
after any exception raised mid-request but one: the refusal of the depot
that lends a ``wire.LentPayload``, which comes before any byte is sent.

``probe_many``, ``renew_many`` and ``load_many`` (of reads up to one
``wire.PIECE`` each) send a batch: up to ``MAX_IN_FLIGHT`` requests in one
write, then their replies read in order, each through the same reply path as
a lone request. They return one result per request, its value or the
``EbpError`` of its ``ERR`` line. Such an error carries no traceback, which
would keep the caller's frames alive until the cyclic collector runs. A
batch that hits ``Timeout`` or ``ConnectionLost`` closes the session, and
each request whose reply was not read gets such an error as its result; the
answered ones keep theirs. A malformed reply raises ``MalformedFrame`` and
closes the session. ``per_depot`` groups items by depot, runs one batch per
group over one session each, and maps each result back to its item.

``session(addr, timeout_ms)`` lends an exclusive session from a small
per-address pool; ``lors``, ``lodn`` and the depot's TRANSFER push use it so
that a run of short requests shares one connection. A session goes back to
the pool only while it is open, so in step. An idle session that has become
readable (the depot closed it) is closed instead of lent, without a byte
sent. Idle sessions are bounded per address and in total, and closed once
idle for ``IDLE_MAX_AGE_S``. The pool never resends a request: a session the
depot drops while it is lent fails its request with ``ConnectionLost``,
exactly as a fresh one would.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Iterator, Optional

from .capability import Capability, CapabilitySet, Hardness
from .depot import DepotStats, LoadResult, ProbeInfo
from .errors import ConnectionLost, EbpError, MalformedFrame, Timeout, error_for_code
from .nfu import ResourceBudget, TransformResult
from .wire import (
    PIECE,
    AllocateRequest,
    Framer,
    LentPayload,
    LoadRequest,
    ProbeRequest,
    ReleaseRequest,
    RenewRequest,
    StatsRequest,
    StoreRequest,
    TransferRequest,
    TransformRequest,
    encode_header,
    encode_request,
    parse_ok,
    parse_response_header,
    pieces,
    send_parts,
)

DEFAULT_TIMEOUT_MS = 5000
IDLE_PER_ADDR = 4
IDLE_TOTAL = 32
IDLE_MAX_AGE_S = 30.0
# Requests a batch writes before it reads their replies. The depot reads on
# while it answers, and the replies of a full window fit in its socket
# buffer, so neither side waits on the other with both buffers full.
MAX_IN_FLIGHT = 64

# Error codes after which the stream may be out of step with the depot.
_DESYNC_CODES = frozenset(cls.code for cls in (Timeout, ConnectionLost, MalformedFrame))


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
        self._framer = Framer(self._sock)
        self._unread: deque = deque()  # written by a batch, reply not yet read

    # ----------------------------------------------------------------- verbs

    def allocate(self, capacity: int, duration: int, hardness: Hardness) -> CapabilitySet:
        args = (capacity, duration, hardness)
        return CapabilitySet(*self._request(AllocateRequest, args))

    def store(self, cap: Capability, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset``: any bytes-like object, in sequential
        ``wire.PIECE`` frames sent from views of it, or a ``wire.LentPayload``,
        in one frame sent as it lends its bytes."""
        if isinstance(data, LentPayload):
            return self._request(StoreRequest, (cap, offset, data), len(data))[0]
        view = memoryview(data).cast("B")
        for done, n in pieces(len(view)):
            self._request(StoreRequest, (cap, offset + done, view[done : done + n]), n)
        return len(view)

    def load(self, cap: Capability, offset: int, length: int, into=None) -> LoadResult:
        """Read ``length`` bytes from ``offset`` in ``wire.PIECE`` pieces,
        each received straight into one buffer, which is the result's
        ``data``: ``into``, a writable buffer of ``length`` bytes, or else a
        new ``bytearray``. After an error the buffer's contents are undefined.
        Every view this makes of the buffer is released on every exit.
        """
        if into is None:
            into = bytearray(length)
        unknown = False
        with memoryview(into).cast("B") as view:
            if len(view) != length:
                raise ValueError(f"buffer of {len(view)} bytes for a load of {length}")
            for done, n in pieces(length):
                with view[done : done + n] as piece:
                    _, flag = self._request(LoadRequest, (cap, offset + done, n), n, piece)
                unknown = unknown or flag
        return LoadResult(into, unknown)

    def probe(self, cap: Capability) -> ProbeInfo:
        return ProbeInfo(*self._request(ProbeRequest, (cap,)))

    def renew(self, cap: Capability, extension: int) -> int:
        """Returns the renewed lease's remaining lifetime in milliseconds."""
        return self._request(RenewRequest, (cap, extension))[0]

    def probe_many(self, caps) -> list:
        """PROBE each of ``caps`` in one batch: a ProbeInfo, or the EbpError
        of its ERR line, per cap, in order."""
        return self._batch([ProbeRequest(cap) for cap in caps], lambda req: self.probe(req.cap))

    def renew_many(self, caps, extension: int) -> list:
        """RENEW each of ``caps`` by ``extension`` in one batch: the remaining
        lifetime in milliseconds, or the EbpError of its ERR line, per cap,
        in order."""
        reqs = [RenewRequest(cap, extension) for cap in caps]
        return self._batch(reqs, lambda req: self.renew(req.cap, extension))

    def load_many(self, reads) -> list:
        """LOAD each ``(cap, offset, length)`` of ``reads``, each at most one
        ``wire.PIECE``, in one batch: a LoadResult, or the EbpError of its ERR
        line, per read, in order."""
        reqs = [LoadRequest(*read) for read in reads]
        if any(req.length > PIECE for req in reqs):
            raise ValueError(f"a batched LOAD reads at most {PIECE} bytes")
        return self._batch(reqs, lambda req: self.load(req.cap, req.offset, req.length))

    def release(self, cap: Capability) -> None:
        self._request(ReleaseRequest, (cap,))

    def transfer(
        self, src: Capability, src_offset: int, dst: Capability, dst_offset: int, length: int
    ) -> int:
        """Ask the *source* depot (this session's depot) to push a range."""
        args = (src, src_offset, dst, dst_offset, length)
        return self._request(TransferRequest, args)[0]

    def transform(
        self,
        op_name: str,
        inputs,
        outputs,
        budget: ResourceBudget,
        params: Optional[dict] = None,
    ) -> TransformResult:
        limits = (budget.max_wall_ms, budget.max_scratch_bytes, budget.max_io_bytes)
        texts = tuple((k, _param_text(v)) for k, v in (params or {}).items())
        args = (op_name, tuple(inputs), tuple(outputs), *limits, texts)
        return TransformResult(*self._request(TransformRequest, args))

    def stats(self) -> DepotStats:
        numbers = self._request(StatsRequest, ())
        return DepotStats(*numbers[:4], preemptions=dict(zip(Hardness, numbers[4:])))

    # ------------------------------------------------------------- transport

    def _request(self, make: type, args: tuple, count: Optional[int] = None, into=None) -> list:
        """Send the request ``make(*args)``, unless a batch has written it
        already, and return its OK reply's values, read as the verb's
        ``VERB_TABLE`` row says. With ``count``, the first value, a STORE's
        or a LOAD's byte count, must equal it, and is checked before ``into``
        receives the reply's payload. The session is closed unless the
        request ends with an OK reply read whole or a depot ERR line whose
        code leaves the stream in step: after anything else, a reply of the
        wrong shape (MalformedFrame) included, it can no longer be trusted."""
        clean = False
        try:
            if self._unread:
                req = self._unread.popleft()  # a batch wrote it; only its reply is left
            else:
                req = make(*args)
                if make is StoreRequest and isinstance(req.payload, LentPayload):
                    try:
                        req.payload.send_after(self._sock, encode_header(req))
                    except EbpError:
                        clean = True  # the lending depot refused; nothing was sent
                        raise
                elif make is StoreRequest:
                    send_parts(self._sock, (encode_header(req), req.payload))
                else:
                    self._sock.sendall(encode_request(req))
            kind, tokens = parse_response_header(self._framer.readline())
            if kind == "ERR":
                code, message = tokens
                clean = code not in _DESYNC_CODES
                raise error_for_code(code, message)
            try:
                values = parse_ok(req.verb, tokens)
                if count is not None and values[0] != count:
                    raise MalformedFrame(f"{values[0]} bytes where {count} were asked for")
            except MalformedFrame as exc:
                raise MalformedFrame(f"{req.verb} reply from {self.addr}: {exc}") from None
            if into is not None:
                self._framer.read_into(into)
            clean = True
        except socket.timeout as exc:
            raise Timeout(f"{make.verb} against {self.addr} timed out") from exc
        except OSError as exc:
            raise ConnectionLost(f"{make.verb} against {self.addr}: {exc}") from exc
        finally:
            if not clean:
                self.close()
        return values

    def _batch(self, reqs: list, answer) -> list:
        """Write ``reqs`` ``MAX_IN_FLIGHT`` at a time, each window in one
        write, and read each reply with ``answer(req)``, the verb's own
        method: ``_request`` finds the request already written and only reads
        its reply. An ERR line becomes that request's result, without its
        traceback, which would hold the caller's frames. After a
        Timeout or ConnectionLost the session is closed and the requests left
        unread get an error of the same kind without waiting; a malformed
        reply raises. A batch that ends with replies unread closes the
        session."""
        results = []
        broken: Optional[EbpError] = None
        try:
            for start in range(0, len(reqs), MAX_IN_FLIGHT):
                window = reqs[start : start + MAX_IN_FLIGHT]
                if broken is None:
                    try:
                        self._sock.sendall(b"".join(map(encode_request, window)))
                        self._unread.extend(window)
                    except socket.timeout:
                        broken = Timeout(f"{window[0].verb} batch against {self.addr} timed out")
                    except OSError as exc:
                        broken = ConnectionLost(f"{window[0].verb} batch against {self.addr}: {exc}")
                for req in window:
                    if broken is not None:  # a Timeout or a ConnectionLost
                        results.append(type(broken)(f"{req.verb} against {self.addr}: no reply"))
                        continue
                    try:
                        results.append(answer(req))
                    except MalformedFrame:
                        raise
                    except EbpError as exc:
                        results.append(exc.with_traceback(None))
                        if exc.code in _DESYNC_CODES:
                            broken = exc
        finally:
            # A window not written whole, or replies left unread by an
            # interrupt between two of them, puts the stream out of step.
            if broken is not None or self._unread:
                self.close()
        return results

    def _idle_closed(self) -> bool:
        """True when an idle session has something to read: the depot closed it."""
        if self._framer.buf or self.closed:
            return True
        poller = select.poll()
        poller.register(self._sock, select.POLLIN)
        return bool(poller.poll(0))

    # --------------------------------------------------------------- plumbing

    @property
    def closed(self) -> bool:
        return self._sock.fileno() < 0

    def close(self) -> None:
        self._unread.clear()
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

    On exit the session returns to the pool if it is still open, which
    means in step: ``_request`` closes a session it cannot leave in step.
    """
    cli = _pool.take(addr)
    if cli is None:
        cli = DepotClient(addr, timeout_ms)
    else:
        cli._sock.settimeout(timeout_ms / 1000)
    try:
        yield cli
    finally:
        if not cli.closed:
            _pool.give(cli)


def per_depot(items: list, addr_of, run, open_session=session) -> list:
    """One result per item of ``items``, in order. The items are grouped by
    ``addr_of(item)``, and each group is handled by one ``run(cli, group)``,
    which returns a result per item of its group, over one
    ``open_session(addr)``; a session that fails gives each item of its group
    that error, without its traceback."""
    groups: dict = {}  # depot address -> positions in ``items``
    for i, item in enumerate(items):
        groups.setdefault(addr_of(item), []).append(i)
    results = [None] * len(items)
    for addr, positions in groups.items():
        try:
            with open_session(addr) as cli:
                answers = run(cli, [items[i] for i in positions])
        except EbpError as exc:
            answers = [exc.with_traceback(None)] * len(positions)
        for i, answer in zip(positions, answers):
            results[i] = answer
    return results


def drain_pool() -> None:
    """Close every idle pooled session."""
    _pool.drain()
