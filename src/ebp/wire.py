"""Bit-exact wire encodings for depot operations.

Two transports share one request vocabulary:

* Stream mode: a UTF-8 header line of space-separated tokens terminated by a
  single LF, at most 4096 bytes including the LF, optionally followed by a
  raw payload whose length the header declares. Human-readable on purpose.

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

  Responses are ``OK <tokens...>`` or ``ERR <ErrorCode> <message>``; LOAD's
  OK carries a payload. Durations travel as relative times (seconds in
  requests, integer milliseconds remaining in responses): absolute values of
  one node's monotonic clock mean nothing to another node.

* Datagram mode: fixed binary frames ("EBP1" magic, big-endian integers)
  carrying an op id, up to 16 dependency tags, a verb code and a body that is
  simply the stream encoding of the same request. Dependencies impose only
  the necessary order: a frame executes once all its deps have completed at
  the receiver, whatever order the network managed.

Duplicate suppression lives in ``DedupWindow``: a completed op's response is
cached and replayed on any later copy of the frame, so retransmissions are
harmless even for side-effecting verbs. The sender may therefore retransmit
aggressively: a fixed 50 ms interval, eight attempts, then give up.

There is deliberately no flow control at this layer; encoders never consult
receiver state.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .capability import Capability, Hardness, parse_capability, parse_hardness
from .errors import MalformedFrame

MAX_HEADER_BYTES = 4096  # header line including the terminating LF
MAX_U64 = 2**64 - 1

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
    payload: bytes


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


Request = Union[
    AllocateRequest,
    StoreRequest,
    LoadRequest,
    RenewRequest,
    ReleaseRequest,
    ProbeRequest,
    TransferRequest,
    TransformRequest,
    StatsRequest,
]

VERBS = (
    "ALLOCATE",
    "STORE",
    "LOAD",
    "TRANSFER",
    "TRANSFORM",
    "PROBE",
    "RENEW",
    "RELEASE",
    "STATS",
)


def _check_token(token: str) -> str:
    if (
        not isinstance(token, str)
        or not token
        or any(c.isspace() or ord(c) < 0x20 or c == "\x7f" for c in token)
    ):
        raise MalformedFrame(f"bad token {token!r}")
    return token


def _uint(token: str, what: str) -> int:
    if not token.isascii() or not token.isdigit():
        raise MalformedFrame(f"{what} must be an unsigned integer, got {token!r}")
    value = int(token)
    if value > MAX_U64:
        raise MalformedFrame(f"{what} exceeds 64-bit range")
    return value


def encode_request(req: Request) -> bytes:
    """Encode a request; ``decode_request(encode_request(r)) == r``."""
    if isinstance(req, AllocateRequest):
        line = f"ALLOCATE {req.capacity} {req.duration} {req.tier.value}"
        payload = b""
    elif isinstance(req, StoreRequest):
        line = f"STORE {req.cap.text()} {req.offset} {len(req.payload)}"
        payload = req.payload
    elif isinstance(req, LoadRequest):
        line = f"LOAD {req.cap.text()} {req.offset} {req.length}"
        payload = b""
    elif isinstance(req, RenewRequest):
        line = f"RENEW {req.cap.text()} {req.extension}"
        payload = b""
    elif isinstance(req, ReleaseRequest):
        line = f"RELEASE {req.cap.text()}"
        payload = b""
    elif isinstance(req, ProbeRequest):
        line = f"PROBE {req.cap.text()}"
        payload = b""
    elif isinstance(req, TransferRequest):
        line = (
            f"TRANSFER {req.src.text()} {req.src_offset}"
            f" {req.dst.text()} {req.dst_offset} {req.length}"
        )
        payload = b""
    elif isinstance(req, TransformRequest):
        parts = ["TRANSFORM", _check_token(req.op_name), str(len(req.inputs))]
        parts += [cap.text() for cap in req.inputs]
        parts.append(str(len(req.outputs)))
        parts += [cap.text() for cap in req.outputs]
        parts += [str(req.max_wall_ms), str(req.max_scratch_bytes), str(req.max_io_bytes)]
        parts.append(str(len(req.params)))
        for key, value in req.params:
            parts += [_check_token(key), _check_token(value)]
        line = " ".join(parts)
        payload = b""
    elif isinstance(req, StatsRequest):
        line = "STATS"
        payload = b""
    else:
        raise TypeError(f"not a request: {req!r}")
    header = line.encode("utf-8") + b"\n"
    if len(header) > MAX_HEADER_BYTES:
        raise MalformedFrame(f"header of {len(header)} bytes exceeds {MAX_HEADER_BYTES}")
    return header + payload


class _Tokens:
    """Cursor over the header tokens with typed, bounds-checked takes."""

    def __init__(self, tokens: list):
        self._tokens = tokens
        self._pos = 0

    def take(self, what: str) -> str:
        if self._pos >= len(self._tokens):
            raise MalformedFrame(f"missing {what}")
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def take_uint(self, what: str) -> int:
        return _uint(self.take(what), what)

    def take_cap(self, what: str) -> Capability:
        return parse_capability(self.take(what))

    def finish(self) -> None:
        if self._pos != len(self._tokens):
            raise MalformedFrame(f"{len(self._tokens) - self._pos} trailing tokens")


def parse_request_header(line: bytes) -> tuple[Callable[[bytes], Request], int]:
    """Parse one header line (without payload).

    Returns ``(build, payload_len)``: read exactly ``payload_len`` payload
    bytes from the transport and call ``build(payload)`` to finish the
    request. Raises MalformedFrame on any grammar violation.
    """
    if len(line) > MAX_HEADER_BYTES:
        raise MalformedFrame(f"header of {len(line)} bytes exceeds {MAX_HEADER_BYTES}")
    if not line.endswith(b"\n"):
        raise MalformedFrame("header not terminated by LF")
    body = line[:-1]
    if b"\r" in body:
        raise MalformedFrame("carriage return in header")
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFrame("header is not valid UTF-8") from exc
    raw = text.split(" ")
    if any(tok == "" for tok in raw):
        raise MalformedFrame("empty token (doubled or trailing space)")
    for tok in raw:
        _check_token(tok)
    cursor = _Tokens(raw)
    verb = cursor.take("verb")

    if verb == "ALLOCATE":
        capacity = cursor.take_uint("capacity")
        duration = cursor.take_uint("duration")
        tier = parse_hardness(cursor.take("tier"))
        cursor.finish()
        return (lambda _: AllocateRequest(capacity, duration, tier)), 0
    if verb == "STORE":
        cap = cursor.take_cap("write capability")
        offset = cursor.take_uint("offset")
        length = cursor.take_uint("length")
        cursor.finish()
        return (lambda payload: StoreRequest(cap, offset, payload)), length
    if verb == "LOAD":
        cap = cursor.take_cap("read capability")
        offset = cursor.take_uint("offset")
        length = cursor.take_uint("length")
        cursor.finish()
        return (lambda _: LoadRequest(cap, offset, length)), 0
    if verb == "RENEW":
        cap = cursor.take_cap("manage capability")
        extension = cursor.take_uint("extension")
        cursor.finish()
        return (lambda _: RenewRequest(cap, extension)), 0
    if verb == "RELEASE":
        cap = cursor.take_cap("manage capability")
        cursor.finish()
        return (lambda _: ReleaseRequest(cap)), 0
    if verb == "PROBE":
        cap = cursor.take_cap("manage capability")
        cursor.finish()
        return (lambda _: ProbeRequest(cap)), 0
    if verb == "TRANSFER":
        src = cursor.take_cap("source read capability")
        src_offset = cursor.take_uint("source offset")
        dst = cursor.take_cap("destination write capability")
        dst_offset = cursor.take_uint("destination offset")
        length = cursor.take_uint("length")
        cursor.finish()
        return (lambda _: TransferRequest(src, src_offset, dst, dst_offset, length)), 0
    if verb == "TRANSFORM":
        op_name = cursor.take("op name")
        n_in = cursor.take_uint("input count")
        inputs = tuple(cursor.take_cap(f"input {i}") for i in range(n_in))
        n_out = cursor.take_uint("output count")
        outputs = tuple(cursor.take_cap(f"output {i}") for i in range(n_out))
        max_wall_ms = cursor.take_uint("max_wall_ms")
        max_scratch = cursor.take_uint("max_scratch_bytes")
        max_io = cursor.take_uint("max_io_bytes")
        n_params = cursor.take_uint("param count")
        params = tuple(
            (cursor.take(f"param key {i}"), cursor.take(f"param value {i}"))
            for i in range(n_params)
        )
        cursor.finish()
        return (
            lambda _: TransformRequest(
                op_name, inputs, outputs, max_wall_ms, max_scratch, max_io, params
            )
        ), 0
    if verb == "STATS":
        cursor.finish()
        return (lambda _: StatsRequest()), 0
    raise MalformedFrame(f"unknown verb {verb!r}")


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


@dataclass(frozen=True)
class OkResponse:
    tokens: tuple = ()
    payload: bytes = b""


@dataclass(frozen=True)
class ErrResponse:
    code: str
    message: str = ""


Response = Union[OkResponse, ErrResponse]


def encode_response(resp: Response) -> bytes:
    if isinstance(resp, OkResponse):
        for token in resp.tokens:
            _check_token(token)
        line = " ".join(("OK",) + tuple(resp.tokens))
        return line.encode("utf-8") + b"\n" + resp.payload
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


# ------------------------------------------------------------ datagram mode

FRAME_MAGIC = b"EBP1"
MAX_DEPS = 16

VERB_CODES = {
    "RESPONSE": 0,
    "ALLOCATE": 1,
    "STORE": 2,
    "LOAD": 3,
    "TRANSFER": 4,
    "TRANSFORM": 5,
    "PROBE": 6,
    "RENEW": 7,
    "RELEASE": 8,
    "STATS": 9,
}
VERB_NAMES = {code: name for name, code in VERB_CODES.items()}


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
        if not 0 <= self.verb_code <= 0xFF or self.verb_code not in VERB_NAMES:
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


# --------------------------------------------------------- dedup bookkeeping


class DecisionKind:
    EXECUTE = "execute"
    DUPLICATE = "duplicate"
    DEFER = "defer"
    REJECT = "reject"


@dataclass(frozen=True)
class Decision:
    kind: str
    cached_response: Optional[bytes] = None
    missing_deps: tuple = ()


@dataclass
class DedupWindow:
    """Receiver-side bookkeeping that makes retransmission harmless.

    Op ids are per sender session, strictly increasing from zero. Completed
    ops keep their response bytes; once the retained set outgrows
    ``capacity`` the watermark advances over the contiguous completed prefix
    and those entries are dropped (everything below the watermark is known
    complete, but its response is gone, so a straggler copy from below is
    rejected as stale rather than re-executed).
    """

    capacity: int = 4096
    low_watermark: int = 0
    completed: dict = field(default_factory=dict)

    def is_completed(self, op_id: int) -> bool:
        return op_id < self.low_watermark or op_id in self.completed

    def admit(self, frame: OpFrame) -> Decision:
        if frame.op_id in self.completed:
            return Decision(DecisionKind.DUPLICATE, cached_response=self.completed[frame.op_id])
        if frame.op_id < self.low_watermark:
            return Decision(DecisionKind.REJECT)
        missing = tuple(dep for dep in frame.deps if not self.is_completed(dep))
        if missing:
            return Decision(DecisionKind.DEFER, missing_deps=missing)
        return Decision(DecisionKind.EXECUTE)

    def mark_completed(self, op_id: int, response: bytes) -> None:
        self.completed[op_id] = response
        if len(self.completed) > self.capacity:
            self._compact()

    def _compact(self) -> None:
        while self.low_watermark in self.completed:
            del self.completed[self.low_watermark]
            self.low_watermark += 1


def admit_frame(window: DedupWindow, frame: OpFrame) -> Decision:
    """Module-level spelling of ``DedupWindow.admit``."""
    return window.admit(frame)


# ------------------------------------------------------- retransmit policy

RETRANSMIT_INTERVAL_MS = 50
MAX_SEND_ATTEMPTS = 8


class RetransmitAction:
    RESEND = "resend"
    WAIT = "wait"
    GIVE_UP = "give_up"


def retransmit_policy(attempts_sent: int, elapsed_ms: float) -> str:
    """Fixed-interval retransmission: 50 ms apart, at most 8 sends, then give
    up. No backoff; duplicate suppression at the receiver makes aggressive
    resending safe. Attempt ``i`` (0-based) is due at ``i * 50`` ms."""
    due_ms = attempts_sent * RETRANSMIT_INTERVAL_MS
    if elapsed_ms < due_ms:
        return RetransmitAction.WAIT
    if attempts_sent < MAX_SEND_ATTEMPTS:
        return RetransmitAction.RESEND
    return RetransmitAction.GIVE_UP
