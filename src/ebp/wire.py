"""Bit-exact wire encodings for depot operations.

Two transports share one request vocabulary:

* Stream mode: a UTF-8 header line of space-separated tokens terminated by a
  single LF, at most 4096 bytes including the LF, optionally followed by a
  raw payload whose length the header declares. Human-readable on purpose.
  A token is one or more characters, none of them whitespace
  (``str.isspace``, so Unicode spaces too), a C0 control or DEL; one plain
  space separates two tokens. The request parser and the response encoder
  each check a whole line's characters in one scan, not token by token.

      ALLOCATE <capacity> <duration> <tier>
      STORE <write_cap> <offset> <length>        (+ <length> payload bytes)
      LOAD <read_cap> <offset> <length>
      RENEW <manage_cap> <extension>
      RELEASE <manage_cap>
      PROBE <manage_cap>
      TRANSFER <src_read_cap> <src_offset> <dst_write_cap> <dst_offset> <length>
      TRANSFORM <op_name> <n_in> <caps...> <n_out> <caps...>
                <max_wall_ms> <max_scratch> <max_io> <n_params> <k v ...>
      STATS

  Responses are ``OK <tokens...>``, the tokens as the verb's ``VERB_TABLE``
  row declares them (LOAD's first is the length of the payload that
  follows), or ``ERR <ErrorCode> <message>``. Durations travel as relative
  times (seconds in requests, integer milliseconds remaining in responses):
  absolute values of one node's monotonic clock mean nothing to another
  node. ``Framer`` reads header lines and payloads off a socket for both the
  depot and the client, a payload straight into the buffer it is bound for.
  The depot does not read a STORE payload before running the request:
  ``Payload`` stands in for the bytes, and the depot receives it into the
  allocation itself. ``send_parts`` writes a header and its payload with
  gathered ``sendmsg`` calls, never copying the payload next to the header.
  ``send_now`` sends only what the socket takes at once, so a payload lent
  from an allocation under its lock goes out without waiting on the peer;
  ``LentPayload`` is a STORE payload sent that way.

* Datagram mode: fixed binary frames ("EBP1" magic, big-endian integers)
  carrying an op id, up to 16 dependency tags, a verb code and a body that is
  simply the stream encoding of the same request. Dependencies impose only
  the necessary order: a frame executes once all its deps have completed at
  the receiver, whatever order the network managed.

  Duplicate suppression, deferral and retransmission live in ``ebp.simnet``.

``VERB_TABLE`` is the one place a verb is declared, in both directions: its
request dataclass, datagram code, and the kinds of its request fields and
OK reply values. Every request and reply encoder and parser reads it.

There is deliberately no flow control at this layer; encoders never consult
receiver state.
"""

from __future__ import annotations

import re
import socket
import struct
import time
from dataclasses import dataclass, fields
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .capability import MAX_U64, Capability, Hardness, parse_capability
from .errors import ConnectionLost, MalformedFrame
from .nfu import OutputsState, TransformStatus

MAX_HEADER_BYTES = 4096  # header line including the terminating LF
PIECE = 1024 * 1024  # the most payload bytes one STORE or LOAD frame moves


def pieces(length: int) -> Iterator[tuple[int, int]]:
    """``(done, n)`` for each piece of a ``length``-byte move, in order: ``n``
    bytes at ``done``, at most ``PIECE`` of them, and always at least one
    piece, so a zero-length move still sends its request."""
    for done in range(0, max(length, 1), PIECE):
        yield done, min(PIECE, length - done)

# ----------------------------------------------------------------- requests


@dataclass(frozen=True)
class AllocateRequest:
    verb = "ALLOCATE"
    capacity: int
    duration: int
    tier: Hardness


@dataclass(frozen=True)
class StoreRequest:
    verb = "STORE"
    cap: Capability
    offset: int
    payload: bytes  # or, on the depot, a Payload not yet received


@dataclass(frozen=True)
class LoadRequest:
    verb = "LOAD"
    cap: Capability
    offset: int
    length: int


@dataclass(frozen=True)
class RenewRequest:
    verb = "RENEW"
    cap: Capability
    extension: int


@dataclass(frozen=True)
class ReleaseRequest:
    verb = "RELEASE"
    cap: Capability


@dataclass(frozen=True)
class ProbeRequest:
    verb = "PROBE"
    cap: Capability


@dataclass(frozen=True)
class TransferRequest:
    verb = "TRANSFER"
    src: Capability
    src_offset: int
    dst: Capability
    dst_offset: int
    length: int


@dataclass(frozen=True)
class TransformRequest:
    verb = "TRANSFORM"
    op_name: str
    inputs: tuple
    outputs: tuple
    max_wall_ms: int
    max_scratch_bytes: int
    max_io_bytes: int
    params: tuple  # ((key, value), ...) preserving order


@dataclass(frozen=True)
class StatsRequest:
    verb = "STATS"


# Whitespace but the plain space (``str.isspace``, so Unicode spaces too), C0
# controls and DEL: the characters no token holds.
_BAD_CHAR = re.compile(r"[^\S ]|[\x00-\x1f\x7f]")


def _clean(text: str) -> bool:
    """True when no character of ``text`` but the plain space breaks a token."""
    if text.isascii():
        # The same test on ASCII, where printable is exactly ' ' to '~', at a
        # sixth of the regex's cost on a request line.
        return text.isprintable()
    return _BAD_CHAR.search(text) is None


def _check_token(token: str) -> str:
    if not isinstance(token, str) or not token or " " in token or not _clean(token):
        raise MalformedFrame(f"bad token {token!r}")
    return token


def parse_uint(token: str, what: str = "token") -> int:
    if not token.isascii() or not token.isdigit():
        raise MalformedFrame(f"{what} must be an unsigned integer, got {token!r}")
    value = int(token)
    if value > MAX_U64:
        raise MalformedFrame(f"{what} exceeds 64-bit range")
    return value


class _Kind(NamedTuple):
    """How one request field or reply value is written on a header line."""

    name: str
    encode: Callable  # field value -> header text
    parse: Callable  # (token, field name) -> value; counted: item tokens -> value
    width: int = 0  # counted kinds: a count, then this many tokens per item


# Capabilities are parsed through this module's ``parse_capability``, looked
# up at call time.
CAP = _Kind("cap", Capability.text, lambda token, what: parse_capability(token))
UINT = _Kind("uint", str, parse_uint)


def _choice(name: str, values: dict) -> _Kind:
    """A kind whose token is one of ``values``' keys, standing for its value."""

    def parse(token, what):
        try:
            return values[token]
        except KeyError:
            raise MalformedFrame(f"bad {what}: {token!r}") from None

    return _Kind(name, {value: token for token, value in values.items()}.__getitem__, parse)


TIER = _choice("tier", {tier.value: tier for tier in Hardness})
FLAG = _choice("flag", {"0": False, "1": True})
STATUS = _choice("status", {status.value: status for status in TransformStatus})
OUTPUTS = _choice("outputs", {state.value: state for state in OutputsState})
TOKEN = _Kind("token", _check_token, lambda token, what: token)
CAPS = _Kind(
    "caps",
    lambda caps: " ".join([str(len(caps)), *(cap.text() for cap in caps)]),
    lambda group: tuple(parse_capability(t) for t in group),
    1,
)
PARAMS = _Kind(
    "params",
    lambda params: " ".join(
        [str(len(params)), *(_check_token(t) for key, value in params for t in (key, value))]
    ),
    lambda group: tuple(zip(group[::2], group[1::2])),
    2,
)
# The length of the raw payload that follows the header: a request's last
# field, or a reply's first value. Parsed, it is the length.
PAYLOAD = _Kind("payload", lambda payload: str(len(payload)), parse_uint)


class VerbSpec(NamedTuple):
    request: type  # the request dataclass; its ``verb`` names the verb
    code: int  # datagram verb code
    fields: tuple  # ((field name, _Kind), ...) in field order
    payload: bool  # the last field is the payload
    reply: tuple  # the _Kind of each value of the OK reply, in order
    ok: Callable  # reply values -> OkResponse


def _verb(request: type, code: int, kinds: tuple, reply: tuple) -> tuple:
    named = tuple(zip((f.name for f in fields(request)), kinds))
    return request.verb, VerbSpec(request, code, named, kinds[-1:] == (PAYLOAD,), reply, _ok(reply))


def _ok(kinds: tuple) -> Callable:
    """values (a sequence) -> OkResponse for a reply of ``kinds``; a PAYLOAD
    value is its payload. Its code is generated once per row, as a
    dataclass's ``__init__`` is: on CPython 3.11 a loop over the kinds built
    a PROBE reply at half the speed."""
    tokens = "".join(f"encode[{i}](values[{i}]), " for i in range(len(kinds)))
    payload = f", values[{kinds.index(PAYLOAD)}]" if PAYLOAD in kinds else ""
    make = eval(f"lambda encode: lambda values: OkResponse(({tokens}){payload})")
    return make(tuple(kind.encode for kind in kinds))


# The one place a verb is declared: name -> VerbSpec, from its request kinds and reply kinds.
VERB_TABLE = dict(
    (
        _verb(AllocateRequest, 1, (UINT, UINT, TIER), (CAP, CAP, CAP)),
        _verb(StoreRequest, 2, (CAP, UINT, PAYLOAD), (UINT,)),
        _verb(LoadRequest, 3, (CAP, UINT, UINT), (PAYLOAD, FLAG)),
        _verb(TransferRequest, 4, (CAP, UINT, CAP, UINT, UINT), (UINT,)),
        _verb(
            TransformRequest,
            5,
            (TOKEN, CAPS, CAPS, UINT, UINT, UINT, PARAMS),
            (STATUS, UINT, UINT, OUTPUTS),
        ),
        _verb(ProbeRequest, 6, (CAP,), (UINT, UINT, UINT, TIER)),
        _verb(RenewRequest, 7, (CAP, UINT), (UINT,)),
        _verb(ReleaseRequest, 8, (CAP,), ()),
        # Four totals, then the preemptions from each tier, best-effort first.
        _verb(StatsRequest, 9, (), (UINT,) * 7),
    )
)
Request = Union[tuple(spec.request for spec in VERB_TABLE.values())]


def encode_header(req: Request) -> bytes:
    """The header line of ``req``, LF included; a payload is declared, not
    included."""
    spec = VERB_TABLE.get(getattr(req, "verb", None))
    if spec is None or not isinstance(req, spec.request):
        raise TypeError(f"not a request: {req!r}")
    tokens = [req.verb]
    for name, kind in spec.fields:
        tokens.append(kind.encode(getattr(req, name)))
    header = " ".join(tokens).encode("utf-8") + b"\n"
    if len(header) > MAX_HEADER_BYTES:
        raise MalformedFrame(f"header of {len(header)} bytes exceeds {MAX_HEADER_BYTES}")
    return header


def encode_request(req: Request) -> bytes:
    """Encode a request; ``decode_request(encode_request(r)) == r``."""
    header = encode_header(req)
    return header + req.payload if VERB_TABLE[req.verb].payload else header


def parse_request_header(line: bytes) -> tuple[Callable[[bytes], Request], int]:
    """Parse one header line (without payload).

    Returns ``(build, payload_len)``: call ``build(payload)`` with the
    ``payload_len`` payload bytes, or a ``Payload`` that will receive them,
    to finish the request. Raises MalformedFrame on any grammar violation.
    One scan checks every token's characters; each field is then parsed as
    its verb's ``VerbSpec.fields`` say.
    """
    if len(line) > MAX_HEADER_BYTES:
        raise MalformedFrame(f"header of {len(line)} bytes exceeds {MAX_HEADER_BYTES}")
    if not line.endswith(b"\n"):
        raise MalformedFrame("header not terminated by LF")
    try:
        text = line[:-1].decode()
    except UnicodeDecodeError as exc:
        raise MalformedFrame("header is not valid UTF-8") from exc
    raw = text.split(" ")
    if "" in raw:
        raise MalformedFrame("empty token (doubled or trailing space)")
    if not _clean(text):
        raise MalformedFrame(f"bad character in header {text[:80]!r}")
    spec = VERB_TABLE.get(raw[0])
    if spec is None:
        raise MalformedFrame(f"unknown verb {raw[0]!r}")
    values = []
    pos = 1
    for name, (_, _, parse, width) in spec.fields:
        if pos >= len(raw):
            raise MalformedFrame(f"missing {name}")
        token = raw[pos]
        pos += 1
        if width:
            end = pos + parse_uint(token, name) * width
            values.append(parse(raw[pos:end]))
            pos = end
        else:
            values.append(parse(token, name))
    if pos != len(raw):
        raise MalformedFrame(f"{len(raw) - pos} trailing tokens" if pos < len(raw) else "missing")
    if spec.payload:
        length = values.pop()
        return (lambda payload: spec.request(*values, payload)), length
    req = spec.request(*values)
    return (lambda _: req), 0


def decode_request(data: bytes) -> tuple[Request, int]:
    """Decode one request from a byte buffer; returns (request, bytes consumed)."""
    nl = data.find(b"\n", 0, MAX_HEADER_BYTES)
    if nl < 0:
        raise MalformedFrame("no LF within header limit")
    build, payload_len = parse_request_header(data[: nl + 1])
    end = nl + 1 + payload_len
    if len(data) < end:
        raise MalformedFrame("truncated payload")
    return build(data[nl + 1 : end]), end


# ---------------------------------------------------------------- responses


# One per reply, encoded at once and never shared, so not frozen: a frozen
# dataclass's ``__init__`` costs three times as much.
@dataclass(slots=True)
class OkResponse:
    tokens: tuple = ()
    payload: bytes = b""


@dataclass(slots=True)
class ErrResponse:
    code: str
    message: str = ""


Response = Union[OkResponse, ErrResponse]


def encode_response(resp: Response) -> bytes:
    if isinstance(resp, OkResponse):
        tokens = resp.tokens
        try:
            line = " ".join(("OK", *tokens))
        except TypeError:
            raise MalformedFrame(f"non-text token in {tokens!r}") from None
        # No empty token and one space per token: no token holds a space.
        if "" in tokens or line.count(" ") != len(tokens) or not _clean(line):
            raise MalformedFrame(f"bad token in {tokens!r}")
        return f"{line}\n".encode() + resp.payload
    message = " ".join(str(resp.message).split()) or "-"
    return f"ERR {_check_token(resp.code)} {message}".encode("utf-8") + b"\n"


def parse_response_header(line: bytes) -> tuple[str, tuple]:
    """Returns ("OK", tokens) or ("ERR", (code, message))."""
    if len(line) > MAX_HEADER_BYTES or not line.endswith(b"\n"):
        raise MalformedFrame("bad response header")
    try:
        text = line[:-1].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFrame("response is not valid UTF-8") from exc
    parts = text.split(" ")
    if parts and parts[0] == "OK":
        return "OK", tuple(parts[1:])
    if len(parts) >= 2 and parts[0] == "ERR":
        return "ERR", (parts[1], " ".join(parts[2:]))
    raise MalformedFrame(f"bad response line {text[:80]!r}")


def parse_ok(verb: str, tokens: tuple) -> list:
    """The values of ``verb``'s OK reply ``tokens``, one per reply kind (a
    PAYLOAD's is the payload's length), or MalformedFrame."""
    kinds = VERB_TABLE[verb].reply
    if len(tokens) != len(kinds):
        raise MalformedFrame(f"{len(tokens)} tokens, expected {len(kinds)}")
    return [kind.parse(token, kind.name) for kind, token in zip(kinds, tokens)]


class Framer:
    """Buffered reads of stream frames from one socket: header lines and
    exact-length payloads. Socket errors and timeouts propagate, and so does
    a ``ConnectionError`` when the peer closes first."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = bytearray()  # received, not yet consumed

    def readline(self) -> bytearray:
        """One header line including its LF, as one copy out of the buffer
        (the header parsers take it as it is). MalformedFrame once
        ``MAX_HEADER_BYTES`` bytes have arrived with no LF among them, since
        the stream cannot be re-synchronized; so a line over the limit is
        refused however its bytes arrive."""
        while True:
            nl = self.buf.find(b"\n", 0, MAX_HEADER_BYTES)
            if nl >= 0:
                line = self.buf[: nl + 1]
                del self.buf[: nl + 1]
                return line
            if len(self.buf) >= MAX_HEADER_BYTES:
                raise MalformedFrame("header too long")
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("peer closed the connection")
            self.buf += chunk

    def line_ready(self) -> bool:
        """True when a whole header line is buffered: ``readline`` returns
        it, or refuses it, without reading the socket."""
        return b"\n" in self.buf

    def read_into(self, view: memoryview, deadline: Optional[float] = None) -> None:
        """Fill ``view``, a writable byte view, with the next payload bytes,
        received straight into it. With ``deadline``, a ``time.monotonic()``
        instant, no receive waits past it: a late one raises TimeoutError."""
        n = len(view)
        have = min(n, len(self.buf))
        if have:
            with memoryview(self.buf) as buffered:
                view[:have] = buffered[:have]
            del self.buf[:have]
        while have < n:
            if deadline is not None:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError("payload not received in time")
                self.sock.settimeout(left)
            # Released even when recv fails, so no export of the caller's
            # buffer outlives this call in a traceback.
            with view[have:] as rest:
                got = self.sock.recv_into(rest)
            if not got:
                raise ConnectionError("peer closed the connection mid-payload")
            have += got


class Payload:
    """A request payload still on the wire: ``len()`` bytes that
    ``readinto`` receives in order, straight into the caller's view.

    The depot's server hands one to ``build`` in place of the bytes, so a
    STORE lands in the allocation with no buffer in between. The whole
    payload must arrive within ``timeout_s`` of the first ``readinto``, so a
    sender that stalls or trickles cannot hold the allocation for longer. A
    socket error or a late payload raises ``ConnectionLost`` and sets
    ``lost``: the stream is out of sync and its session must end. Receiving
    leaves a timeout on the socket.
    """

    def __init__(self, framer: Framer, length: int, timeout_s: float):
        self._framer = framer
        self._length = length
        self._timeout_s = timeout_s
        self._deadline: Optional[float] = None
        self._unread = length
        self.lost = False

    def __len__(self) -> int:
        return self._length

    def readinto(self, view: memoryview) -> None:
        """Fill ``view`` with the next ``len(view)`` payload bytes."""
        if self._deadline is None:
            self._deadline = time.monotonic() + self._timeout_s
        try:
            self._framer.read_into(view, self._deadline)
        except OSError as exc:
            self.lost = True
            raise ConnectionLost(f"payload cut off: {exc}") from None
        self._unread -= len(view)

    def drain(self) -> None:
        """Receive and drop the bytes nobody read, such as the payload of a
        refused STORE, so the next header starts where the stream is."""
        if self._unread and not self.lost:
            with memoryview(bytearray(min(self._unread, 65536))) as sink:
                while self._unread:
                    self.readinto(sink[: self._unread])


class LentPayload:
    """A STORE payload still in a depot allocation: ``len()`` bytes that
    ``lend()`` lends as ``Depot.lend`` does, a context manager that yields
    ``(read-only view, unknown_state)`` under the allocation's lock.

    The sending twin of ``Payload``: ``send_after`` sends a header, then
    these bytes straight from the lent view as far as the socket takes them
    at once, and the rest from a copy once the lock is released, so the
    allocation is never held while its receiver is waited on.
    """

    def __init__(self, lend: Callable, length: int):
        self._lend = lend
        self._length = length

    def __len__(self) -> int:
        return self._length

    def send_after(self, sock: socket.socket, header: bytes) -> None:
        """Send ``header``, then the payload. Socket errors and timeouts
        propagate, and so does an error of the lending depot, raised before
        any byte is sent."""
        with self._lend() as (view, _unknown):
            rest = send_now(sock, [header, view])
        send_parts(sock, rest)


def send_now(sock: socket.socket, parts) -> list:
    """Send as much of the bytes-like ``parts`` as the kernel takes at once,
    by one gathered ``sendmsg`` that never waits, and return copies of the
    bytes left, for ``send_parts``. So a view among ``parts``, one lent
    under a lock, may be released as soon as this returns; every view made
    here is released before it returns or raises. Socket errors propagate.
    """
    views = [memoryview(part).cast("B") for part in parts]
    try:
        timeout = sock.gettimeout()
        # With a timeout, CPython polls for room before it sends, which can
        # wait; a timeout of 0 sends or fails at once.
        sock.settimeout(0)
        try:
            sent = sock.sendmsg(views)
        except BlockingIOError:
            sent = 0
        finally:
            sock.settimeout(timeout)
        rest = []
        for view in views:
            if sent < len(view):
                rest.append(bytes(view[sent:]))
            sent = max(0, sent - len(view))
        return rest
    finally:
        for view in views:
            view.release()


def send_parts(sock: socket.socket, parts) -> None:
    """Send the bytes-like ``parts`` in order by gathered ``sendmsg`` calls,
    so a payload goes out after its header without being copied next to it.
    Socket errors and timeouts propagate."""
    views = [memoryview(part).cast("B") for part in parts]
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if views:
            views[0] = views[0][sent:]


# ------------------------------------------------------------ datagram mode

FRAME_MAGIC = b"EBP1"
MAX_DEPS = 16

VERB_CODES = {"RESPONSE": 0, **{name: spec.code for name, spec in VERB_TABLE.items()}}


@dataclass(frozen=True)
class OpFrame:
    """One datagram: op id, dependency tags, verb code, raw body bytes."""

    op_id: int
    deps: tuple
    verb_code: int
    body: bytes

    def __post_init__(self):
        if not 0 <= self.op_id <= MAX_U64:
            raise MalformedFrame("op_id out of 64-bit range")
        if len(self.deps) > MAX_DEPS:
            raise MalformedFrame(f"{len(self.deps)} deps exceed limit of {MAX_DEPS}")
        if self.verb_code not in VERB_CODES.values():
            raise MalformedFrame(f"unknown verb code {self.verb_code}")


def encode_frame(frame: OpFrame) -> bytes:
    head = FRAME_MAGIC + struct.pack(">QB", frame.op_id, len(frame.deps))
    deps = b"".join(struct.pack(">Q", dep) for dep in frame.deps)
    return head + deps + struct.pack(">B", frame.verb_code) + frame.body


def decode_frame(data: bytes) -> OpFrame:
    if len(data) < 14:
        raise MalformedFrame("datagram shorter than minimal frame")
    if data[:4] != FRAME_MAGIC:
        raise MalformedFrame("bad frame magic")
    op_id, dep_count = struct.unpack_from(">QB", data, 4)
    if dep_count > MAX_DEPS:
        raise MalformedFrame(f"dep_count {dep_count} exceeds limit of {MAX_DEPS}")
    offset = 13
    if len(data) < offset + 8 * dep_count + 1:
        raise MalformedFrame("frame truncated in dependency list")
    deps = struct.unpack_from(f">{dep_count}Q", data, offset) if dep_count else ()
    offset += 8 * dep_count
    verb_code = data[offset]
    return OpFrame(op_id=op_id, deps=tuple(deps), verb_code=verb_code, body=data[offset + 1 :])

