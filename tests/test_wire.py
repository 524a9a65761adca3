"""Wire conformance: grammar golden bytes, frame exactness."""

from __future__ import annotations

import random
import re
import socket
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from ebp.capability import Capability, CapabilitySet, Hardness, Kind
from ebp.client import DepotClient
from ebp.depot import DepotStats, LoadResult, ProbeInfo
from ebp.errors import MalformedFrame, OutOfRange
from ebp.nfu import OutputsState, ResourceBudget, TransformResult, TransformStatus
from ebp.server import dispatch_request
from ebp.wire import (
    AllocateRequest,
    ErrResponse,
    Framer,
    LoadRequest,
    MAX_HEADER_BYTES,
    OkResponse,
    OpFrame,
    ProbeRequest,
    ReleaseRequest,
    RenewRequest,
    StatsRequest,
    StoreRequest,
    TransferRequest,
    TransformRequest,
    VERB_TABLE,
    decode_frame,
    decode_request,
    encode_frame,
    encode_header,
    encode_request,
    encode_response,
    parse_request_header,
    parse_response_header,
)

# Golden byte fixtures, one per verb, shared with the acceptance suite.
# They are the protocol contract: if one changes, the wire format changed.
from goldens import GOLDEN, K1, K2, MANAGE1, READ1, WRITE1


@pytest.mark.parametrize("req,frozen", GOLDEN, ids=lambda x: getattr(x, "verb", None) or "bytes")
def test_golden_bytes_roundtrip(req, frozen):
    encoded = encode_request(req)
    assert encoded == frozen
    decoded, consumed = decode_request(encoded)
    assert decoded == req
    assert consumed == len(encoded)


def test_all_nine_verbs_covered_by_goldens():
    assert {req.verb for req, _ in GOLDEN} == {
        "ALLOCATE",
        "STORE",
        "LOAD",
        "TRANSFER",
        "TRANSFORM",
        "PROBE",
        "RENEW",
        "RELEASE",
        "STATS",
    }


def test_verb_table_rows_reach_every_layer():
    from ebp.server import _HANDLERS
    from ebp.wire import PAYLOAD, _Kind

    golden_verbs = [req.verb for req, _ in GOLDEN]
    codes = [spec.code for spec in VERB_TABLE.values()]
    assert len(set(codes)) == len(codes)
    assert all(1 <= code <= 255 for code in codes)
    for verb, spec in VERB_TABLE.items():
        assert spec.request.verb == verb
        assert golden_verbs.count(verb) == 1
        assert verb in _HANDLERS
        assert callable(getattr(DepotClient, verb.lower(), None))
        assert isinstance(spec.reply, tuple)
        assert all(isinstance(kind, _Kind) and not kind.width for kind in spec.reply)
        assert PAYLOAD not in spec.reply[1:]  # a reply's payload length comes first


# -------------------------------------------------- randomized round-trips

caps = st.builds(
    Capability,
    depot_addr=st.from_regex(r"[a-z][a-z0-9.-]{0,15}:[1-9][0-9]{0,3}", fullmatch=True),
    alloc_id=st.integers(min_value=0, max_value=2**64 - 1),
    kind=st.sampled_from(list(Kind)),
    key=st.text(alphabet="0123456789abcdef", min_size=40, max_size=40),
)
uints = st.integers(min_value=0, max_value=2**64 - 1)
small = st.integers(min_value=0, max_value=2**20)
names = st.from_regex(r"[a-z][a-z0-9@._-]{0,24}", fullmatch=True)

requests = st.one_of(
    st.builds(AllocateRequest, capacity=uints, duration=uints, tier=st.sampled_from(list(Hardness))),
    st.builds(StoreRequest, cap=caps, offset=uints, payload=st.binary(max_size=200)),
    st.builds(LoadRequest, cap=caps, offset=uints, length=uints),
    st.builds(RenewRequest, cap=caps, extension=uints),
    st.builds(ReleaseRequest, cap=caps),
    st.builds(ProbeRequest, cap=caps),
    st.builds(
        TransferRequest, src=caps, src_offset=uints, dst=caps, dst_offset=uints, length=uints
    ),
    st.builds(
        TransformRequest,
        op_name=names,
        inputs=st.lists(caps, max_size=3).map(tuple),
        outputs=st.lists(caps, min_size=1, max_size=2).map(tuple),
        max_wall_ms=small,
        max_scratch_bytes=small,
        max_io_bytes=small,
        params=st.lists(st.tuples(names, names), max_size=3).map(tuple),
    ),
    st.builds(StatsRequest),
)


@given(requests)
@settings(max_examples=300)
def test_request_roundtrip_identity(req):
    decoded, consumed = decode_request(encode_request(req))
    assert decoded == req


# ------------------------------------------------------------- malformed


@pytest.mark.parametrize(
    "blob",
    [
        b"",
        b"\n",
        b"FETCH x\n",
        b"ALLOCATE 10 60\n",  # missing tier
        b"ALLOCATE 10 60 soft extra\n",
        b"ALLOCATE -1 60 soft\n",
        b"ALLOCATE 10 60 medium\n",
        b"ALLOCATE  10 60 soft\n",  # doubled space
        b"ALLOCATE 10 60 soft \n",  # trailing space
        b"allocate 10 60 soft\n",  # verbs are upper-case
        b"ALLOCATE 10 60 soft\r\n",  # CR not allowed
        b"LOAD notacap 0 1\n",
        b"STORE ebp://h:1/1/" + b"ab" * 20 + b"/write 0 5\nab",  # truncated payload
        b"RENEW ebp://h:1/1/" + b"ab" * 20 + b"/manage 99999999999999999999999999\n",
        b"STATS 1\n",
        b"\xff\xfe\n",
    ],
)
def test_malformed_requests_rejected(blob):
    with pytest.raises(MalformedFrame):
        decode_request(blob)


def test_header_at_limit_ok_but_one_byte_over_rejected():
    # STATS line padded via a long TRANSFORM op name to exactly 4096 bytes.
    filler = "x" * (MAX_HEADER_BYTES - len("TRANSFORM  0 0 1 1 1 0\n"))
    line = f"TRANSFORM {filler} 0 0 1 1 1 0\n".encode()
    assert len(line) == MAX_HEADER_BYTES
    req, _ = decode_request(line)
    assert req.op_name == filler

    over = f"TRANSFORM {filler}y 0 0 1 1 1 0\n".encode()
    assert len(over) == MAX_HEADER_BYTES + 1
    with pytest.raises(MalformedFrame):
        decode_request(over)


def test_no_lf_within_limit_rejected():
    with pytest.raises(MalformedFrame):
        decode_request(b"A" * (MAX_HEADER_BYTES + 10))


class Chunks:
    """A socket whose ``recv`` returns the given chunks, one per call."""

    def __init__(self, data: bytes, cuts: tuple):
        ends = (*cuts, len(data))
        self.chunks = [data[start:end] for start, end in zip((0, *cuts), ends)]

    def recv(self, _n: int) -> bytes:
        return self.chunks.pop(0) if self.chunks else b""


@pytest.mark.parametrize("cuts", [(), (100,), (4000,), (4095,), (4096,), (4097,), (4000, 4097)])
def test_framer_takes_a_line_at_the_limit_and_refuses_one_over_it_however_it_arrives(cuts):
    at_limit = b"PROBE " + b"A" * (MAX_HEADER_BYTES - 7) + b"\n"
    framer = Framer(Chunks(at_limit + b"STATS\n", cuts))
    assert framer.readline() == at_limit
    assert framer.readline() == b"STATS\n"

    over = b"PROBE " + b"A" * (MAX_HEADER_BYTES - 6) + b"\n"
    framer = Framer(Chunks(over + b"STATS\n", cuts))
    with pytest.raises(MalformedFrame, match="header too long"):
        framer.readline()


# ------------------------------------------------------------- responses


def test_response_encodings():
    assert encode_response(OkResponse(("1", "2"))) == b"OK 1 2\n"
    assert encode_response(OkResponse((), b"xy")) == b"OK\nxy"
    assert encode_response(ErrResponse("OutOfRange", "load [0, 9) exceeds used 3")) == (
        b"ERR OutOfRange load [0, 9) exceeds used 3\n"
    )
    kind, tokens = parse_response_header(b"OK 4 1\n")
    assert kind == "OK" and tokens == ("4", "1")
    kind, (code, msg) = parse_response_header(b"ERR Expired lease expired\n")
    assert kind == "ERR" and code == "Expired" and msg == "lease expired"


@pytest.mark.parametrize("value", [7, 0, None, b"7"])
def test_non_string_tokens_are_malformed_frames(value):
    req = TransformRequest("fill", (), (), 1, 1, 1, (("value", value),))
    with pytest.raises(MalformedFrame):
        encode_request(req)


def test_error_message_newlines_sanitized():
    encoded = encode_response(ErrResponse("BadCapability", "multi\nline\nmessage"))
    assert encoded.count(b"\n") == 1


# ------------------------------------------------------------ reply goldens
#
# The reply half of the protocol contract: for fixed values, the depot's OK
# line of every verb, LOAD's header with its payload, and one ERR line, each
# met by the client with the same values.


class FixedDepot:
    """A depot and engine whose every call answers with the same values."""

    def allocate(self, capacity, duration, tier):
        return CapabilitySet(READ1, WRITE1, MANAGE1)

    def store(self, cap, offset, payload):
        return len(payload)

    def load(self, cap, offset, length):
        if offset + length > 16:
            raise OutOfRange(f"load [{offset}, {offset + length}) exceeds used 16")
        return LoadResult(b"abcdefghijklmnop"[offset : offset + length], True)

    def renew(self, cap, extension):
        return 60500

    def release(self, cap):
        pass

    def probe(self, cap):
        return ProbeInfo(1024, 3, 30000, Hardness.HARD)

    def stats(self):
        pre = {Hardness.HARD: 0, Hardness.SOFT: 1, Hardness.BEST_EFFORT: 5}
        return DepotStats(4096, 512, 3, 2, pre)

    def execute(self, spec):
        return TransformResult(TransformStatus.OK, 16, 2, OutputsState.DEFINED)


FIXED_DEPOT = FixedDepot()
FIXED = SimpleNamespace(
    depot=FIXED_DEPOT, engine=FIXED_DEPOT, handle_transfer=lambda req: 300, verb_counts=defaultdict(int)
)
CAPS_TEXT = (
    f"ebp://10.0.0.1:5000/7/{K1}/read ebp://10.0.0.1:5000/7/{K2}/write"
    f" ebp://10.0.0.1:5000/7/{K1}/manage"
)
REQUESTS = {req.verb: req for req, _ in GOLDEN}
# verb -> (the depot's reply to the verb's GOLDEN request, what the client returns)
REPLY_GOLDEN = {
    "ALLOCATE": (b"OK " + CAPS_TEXT.encode() + b"\n", CapabilitySet(READ1, WRITE1, MANAGE1)),
    "STORE": (b"OK 3\n", 3),
    "LOAD": (b"OK 16 1\nabcdefghijklmnop", LoadResult(bytearray(b"abcdefghijklmnop"), True)),
    "TRANSFER": (b"OK 300\n", 300),
    "TRANSFORM": (
        b"OK ok 16 2 defined\n",
        TransformResult(TransformStatus.OK, 16, 2, OutputsState.DEFINED),
    ),
    "PROBE": (b"OK 1024 3 30000 hard\n", ProbeInfo(1024, 3, 30000, Hardness.HARD)),
    "RENEW": (b"OK 60500\n", 60500),
    "RELEASE": (b"OK\n", None),
    "STATS": (
        b"OK 4096 512 3 2 5 1 0\n",
        DepotStats(4096, 512, 3, 2, {Hardness.BEST_EFFORT: 5, Hardness.SOFT: 1, Hardness.HARD: 0}),
    ),
}
ERR_REQUEST = LoadRequest(READ1, 8, 16)
ERR_GOLDEN = b"ERR OutOfRange load [8, 24) exceeds used 16\n"

CLIENT_CALLS = {
    "ALLOCATE": lambda cli, req: cli.allocate(req.capacity, req.duration, req.tier),
    "STORE": lambda cli, req: cli.store(req.cap, req.offset, req.payload),
    "LOAD": lambda cli, req: cli.load(req.cap, req.offset, req.length),
    "TRANSFER": lambda cli, req: cli.transfer(
        req.src, req.src_offset, req.dst, req.dst_offset, req.length
    ),
    "TRANSFORM": lambda cli, req: cli.transform(
        req.op_name,
        req.inputs,
        req.outputs,
        ResourceBudget(req.max_wall_ms, req.max_scratch_bytes, req.max_io_bytes),
        dict(req.params),
    ),
    "PROBE": lambda cli, req: cli.probe(req.cap),
    "RENEW": lambda cli, req: cli.renew(req.cap, req.extension),
    "RELEASE": lambda cli, req: cli.release(req.cap),
    "STATS": lambda cli, req: cli.stats(),
}


@contextmanager
def client_answered_with(reply: bytes):
    """A DepotClient whose depot has already sent ``reply``."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with DepotClient(f"127.0.0.1:{listener.getsockname()[1]}", 2000) as cli:
            conn, _ = listener.accept()
            with conn:
                conn.sendall(reply)
                yield cli


def test_reply_goldens_cover_every_verb():
    assert set(REPLY_GOLDEN) == set(REQUESTS) == set(CLIENT_CALLS)


@pytest.mark.parametrize("verb", sorted(REPLY_GOLDEN))
def test_depot_reply_golden_bytes(verb):
    assert encode_response(dispatch_request(REQUESTS[verb], FIXED)) == REPLY_GOLDEN[verb][0]


def test_depot_err_reply_golden_bytes():
    assert encode_response(dispatch_request(ERR_REQUEST, FIXED)) == ERR_GOLDEN


@pytest.mark.parametrize("verb", sorted(REPLY_GOLDEN))
def test_client_reads_the_reply_golden(verb):
    reply, expected = REPLY_GOLDEN[verb]
    with client_answered_with(reply) as cli:
        assert CLIENT_CALLS[verb](cli, REQUESTS[verb]) == expected
        assert not cli.closed


def test_client_reads_the_err_golden():
    with client_answered_with(ERR_GOLDEN) as cli:
        with pytest.raises(OutOfRange, match=r"^load \[8, 24\) exceeds used 16$"):
            cli.load(ERR_REQUEST.cap, ERR_REQUEST.offset, ERR_REQUEST.length)
        assert not cli.closed


def test_every_verb_reply_parses_through_the_table_and_encodes_back():
    """One valid request per verb, dispatched by an unstarted depot: each
    OK reply's tokens read through the verb's row and encode back to the
    same tokens and payload."""
    from ebp.depot import DepotConfig
    from ebp.server import DepotServer
    from ebp.wire import PAYLOAD, parse_ok

    server = DepotServer(DepotConfig(total_capacity=1 << 20))
    server.depot.addr = "127.0.0.1:9"
    src, dst = (server.depot.allocate(64, 600, Hardness.SOFT) for _ in range(2))
    fill = (("value", "7"), ("length", "4"))
    requests = [
        AllocateRequest(32, 600, Hardness.HARD),
        StoreRequest(src.write, 0, b"abcdefgh"),
        LoadRequest(src.read, 2, 4),
        TransferRequest(src.read, 0, dst.write, 0, 8),
        TransformRequest("fill", (), (dst.write,), 1000, 1 << 16, 1 << 16, fill),
        ProbeRequest(src.manage),
        RenewRequest(src.manage, 60),
        StatsRequest(),
        ReleaseRequest(dst.manage),
    ]
    assert {req.verb for req in requests} == set(VERB_TABLE)
    for req in requests:
        resp = dispatch_request(req, server)
        assert isinstance(resp, OkResponse), resp
        spec = VERB_TABLE[req.verb]
        values = parse_ok(req.verb, resp.tokens)
        # A PAYLOAD value reads back as its length and encodes from the bytes.
        values = [resp.payload if kind is PAYLOAD else v for kind, v in zip(spec.reply, values)]
        again = spec.ok(values)
        assert (again.tokens, again.payload) == (resp.tokens, resp.payload)
    assert server.verb_counts == dict.fromkeys(VERB_TABLE, 1)


# ------------------------------------------------------------ frame codec


def test_frame_roundtrip_simple():
    frame = OpFrame(op_id=5, deps=(1, 2), verb_code=2, body=b"STORE ...\npayload")
    assert decode_frame(encode_frame(frame)) == frame


@given(
    op_id=uints,
    deps=st.lists(uints, max_size=16).map(tuple),
    verb_code=st.sampled_from(list(range(10))),
    body=st.binary(max_size=300),
)
@settings(max_examples=200)
def test_frame_roundtrip_identity(op_id, deps, verb_code, body):
    frame = OpFrame(op_id, deps, verb_code, body)
    assert decode_frame(encode_frame(frame)) == frame


def test_frame_rejects_more_than_16_deps():
    with pytest.raises(MalformedFrame):
        OpFrame(op_id=1, deps=tuple(range(17)), verb_code=1, body=b"")


def test_frame_bad_magic_rejected():
    frame = encode_frame(OpFrame(1, (), 1, b"x"))
    with pytest.raises(MalformedFrame):
        decode_frame(b"EBPX" + frame[4:])


def test_single_byte_mutations_never_silently_misparse():
    """Flipping any one header byte either fails to decode or decodes to a
    different valid frame; it never yields the original frame with an altered
    payload boundary."""
    original = OpFrame(op_id=77, deps=(3, 9), verb_code=2, body=b"hello world")
    encoded = bytearray(encode_frame(original))
    header_len = 4 + 8 + 1 + 16 + 1
    rng = random.Random(1)
    for pos in range(header_len):
        for _ in range(4):
            mutated = bytearray(encoded)
            mutated[pos] ^= 1 << rng.randrange(8)
            try:
                decoded = decode_frame(bytes(mutated))
            except MalformedFrame:
                continue
            assert decoded != original


def test_no_flow_control_surface_at_this_layer():
    """The encoder is a pure function of the request: no credit, window or
    receiver-state parameter exists anywhere in the encode path."""
    import inspect

    import ebp.wire as wire_mod

    assert list(inspect.signature(encode_request).parameters) == ["req"]
    assert list(inspect.signature(encode_frame).parameters) == ["frame"]
    flow_words = ("credit", "flowcontrol", "flow_control", "sendwindow", "congestion")
    exported = [name.lower() for name in dir(wire_mod)]
    assert not [n for n in exported for w in flow_words if w in n]


def test_error_codes_are_a_bijection():
    from ebp.errors import EbpError

    codes = [cls.code for cls in EbpError.__subclasses__()]
    assert len(codes) == len(set(codes))  # one class, one wire token


def test_token_check_accepts_exactly_what_the_per_character_predicate_accepts():
    from ebp.wire import _check_token

    def old_predicate(c: str) -> bool:
        return not (c.isspace() or ord(c) < 0x20 or c == "\x7f")

    mismatches = []
    for code in range(0x110000):
        c = chr(code)
        try:
            accepted = _check_token(c) == c
        except MalformedFrame:
            accepted = False
        if accepted != old_predicate(c):
            mismatches.append(hex(code))
    assert mismatches == []
    assert _check_token("aéb") == "aéb"
    for bad in ("", "a b", "a b", "a ", "\x7f", "x\x00", 7, None, b"ab"):
        with pytest.raises(MalformedFrame):
            _check_token(bad)


# ------------------------------------------- parser and encoder vs. oracle
#
# Frozen copies of the header parser and reply encoder as they were before
# the one-scan token check: every token checked on its own by a regex, every
# field parsed on its own, capabilities by a named-group regex. The current
# parser and encoder must agree with them on every line: the same request,
# or MalformedFrame from both.

_OLD_BAD_TOKEN_CHAR = re.compile(r"[\s\x00-\x1f\x7f]")
_OLD_CAP_RE = re.compile(
    r"^ebp://(?P<host>[A-Za-z0-9._-]+):(?P<port>\d{1,5})"
    r"/(?P<alloc_id>\d+)/(?P<key>[0-9a-f]{40})/(?P<kind>read|write|manage)$"
)


def _old_check_token(token):
    if not isinstance(token, str) or not token or _OLD_BAD_TOKEN_CHAR.search(token):
        raise MalformedFrame(f"bad token {token!r}")
    return token


def _old_parse_uint(token, what="token"):
    if not token.isascii() or not token.isdigit():
        raise MalformedFrame(f"{what} must be an unsigned integer, got {token!r}")
    value = int(token)
    if value > 2**64 - 1:
        raise MalformedFrame(f"{what} exceeds 64-bit range")
    return value


def _old_parse_capability(text):
    m = _OLD_CAP_RE.match(text)
    if m is None:
        raise MalformedFrame(f"bad capability: {text[:80]!r}")
    port = int(m.group("port"))
    if port > 65535:
        raise MalformedFrame(f"bad capability port: {port}")
    alloc_id = int(m.group("alloc_id"))
    if alloc_id > 2**64 - 1:
        raise MalformedFrame("alloc_id out of 64-bit range")
    return Capability(
        depot_addr=f"{m.group('host')}:{port}",
        alloc_id=alloc_id,
        kind=Kind(m.group("kind")),
        key=m.group("key"),
    )


def _old_parse_hardness(token):
    try:
        return Hardness(token)
    except ValueError:
        raise MalformedFrame(f"bad hardness tier: {token!r}") from None


# The field kinds of VERB_TABLE, by name, as the old parser parsed them.
_OLD_FIELD_PARSE = {
    "cap": lambda token, what: _old_parse_capability(token),
    "uint": _old_parse_uint,
    "payload": _old_parse_uint,
    "tier": lambda token, what: _old_parse_hardness(token),
    "token": lambda token, what: token,
    "caps": lambda group: tuple(_old_parse_capability(t) for t in group),
    "params": lambda group: tuple(zip(group[::2], group[1::2])),
}


def old_parse_request_header(line):
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
        _old_check_token(tok)
    spec = VERB_TABLE.get(raw[0])
    if spec is None:
        raise MalformedFrame(f"unknown verb {raw[0]!r}")
    values = []
    pos = 1
    for name, kind in spec.fields:
        if pos >= len(raw):
            raise MalformedFrame(f"missing {name}")
        token = raw[pos]
        pos += 1
        parse = _OLD_FIELD_PARSE[kind.name]
        if kind.width:
            end = pos + _old_parse_uint(token, name) * kind.width
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


def old_encode_response(resp):
    if isinstance(resp, OkResponse):
        for token in resp.tokens:
            _old_check_token(token)
        line = " ".join(("OK",) + tuple(resp.tokens))
        return line.encode("utf-8") + b"\n" + resp.payload
    message = " ".join(str(resp.message).split()) or "-"
    return f"ERR {_old_check_token(resp.code)} {message}".encode("utf-8") + b"\n"


def _outcome(parse, line):
    try:
        build, length = parse(line)
    except MalformedFrame:
        return MalformedFrame
    return build(b""), length


# Characters that break a token, or look as if they might: Unicode spaces,
# CR and other controls, and some that a token may hold (C1 controls other
# than NEL, format characters, non-ASCII letters and digits).
_ODD_CHARS = (
    "\t\x0b\x0c\r\x1c\x1f\x00\x7f\x85\xa0\u1680\u2003\u2028\u2029\u202f\u3000"
    "\x80\x9f\u200b\ufeff\u00e9\u0663"
)


@st.composite
def mutated_lines(draw):
    """A valid header line, then up to three mutations of it."""
    line = encode_header(draw(requests))
    for _ in range(draw(st.integers(0, 3))):
        text = line.decode("utf-8", "surrogateescape")
        tokens = text[:-1].split(" ") if text.endswith("\n") else text.split(" ")
        how = draw(st.sampled_from(
            ["flip", "drop", "double", "zeros", "odd", "space", "long", "lf"]
        ))
        if how == "flip":
            at = draw(st.integers(0, len(line) - 1))
            line = line[:at] + bytes([line[at] ^ draw(st.integers(1, 255))]) + line[at + 1 :]
            continue
        if how in ("drop", "double"):
            at = draw(st.integers(0, len(tokens) - 1))
            tokens[at:at + 1] = [] if how == "drop" else [tokens[at]] * 2
            text = " ".join(tokens) + "\n"
        elif how == "zeros":
            runs = [m.start() for m in re.finditer(r"(?<!\d)\d", text)]
            if runs:
                at = draw(st.sampled_from(runs))
                text = text[:at] + "0" * draw(st.integers(1, 3)) + text[at:]
        elif how in ("odd", "space"):
            at = draw(st.integers(0, len(text)))
            char = draw(st.sampled_from(_ODD_CHARS)) if how == "odd" else " "
            text = text[:at] + char + text[at:]
        elif how == "long":
            room = MAX_HEADER_BYTES - len(line)
            pad = max(1, room + draw(st.integers(-2, 2)))
            text = text[:-1] + "x" * pad + text[-1:]
        else:
            text = draw(st.sampled_from([text[:-1], text + "\n", "\n" + text]))
        line = text.encode("utf-8", "surrogateescape")
    return line


@given(requests)
@settings(max_examples=300)
def test_header_parser_agrees_with_the_per_token_oracle_on_valid_lines(req):
    line = encode_header(req)
    assert _outcome(parse_request_header, line) == _outcome(old_parse_request_header, line)


@given(mutated_lines())
@example(b"TRANSFORM  0 0 1 1 1 0\n")  # an empty op name
@example(b"TRANSFORM xor 0 0 1 1 1 1  v\n")  # an empty param key
@example(b"PROBE ebp://h:1/1/" + b"ab" * 20 + b"/manage\r\n")
@settings(max_examples=600)
def test_header_parser_agrees_with_the_per_token_oracle_on_mutated_lines(line):
    assert _outcome(parse_request_header, line) == _outcome(old_parse_request_header, line)


_reply_tokens = st.one_of(
    st.text(alphabet=st.sampled_from("ab09 _-:/" + _ODD_CHARS), max_size=6),
    st.sampled_from(["", " ", "a b", "a ", " a", "ab", "OK", 7, None, b"ab"]),
)


@given(
    st.one_of(
        st.builds(OkResponse, st.lists(_reply_tokens, max_size=5).map(tuple), st.binary(max_size=3)),
        st.builds(ErrResponse, _reply_tokens, st.text(max_size=12)),
    )
)
@settings(max_examples=1000)
def test_reply_encoder_agrees_with_the_per_token_oracle(resp):
    def outcome(encode):
        try:
            return encode(resp)
        except MalformedFrame:
            return MalformedFrame

    assert outcome(encode_response) == outcome(old_encode_response)


def test_reply_encoder_refuses_a_token_with_a_space_or_an_empty_token():
    for tokens in (("a b",), ("",), ("a", ""), ("", "a"), ("a ", "b"), ("x", " b")):
        with pytest.raises(MalformedFrame):
            encode_response(OkResponse(tokens))
