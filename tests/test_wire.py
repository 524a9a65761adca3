"""Wire conformance: grammar golden bytes, frame exactness, dedup, retransmit."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from ebp.capability import Capability, Hardness, Kind
from ebp.errors import MalformedFrame
from ebp.wire import (
    AllocateRequest,
    DecisionKind,
    DedupWindow,
    ErrResponse,
    LoadRequest,
    MAX_HEADER_BYTES,
    OkResponse,
    OpFrame,
    ProbeRequest,
    ReleaseRequest,
    RenewRequest,
    RetransmitAction,
    StatsRequest,
    StoreRequest,
    TransferRequest,
    TransformRequest,
    VERB_TABLE,
    decode_frame,
    decode_request,
    encode_frame,
    encode_request,
    encode_response,
    parse_response_header,
    retransmit_policy,
)

# Golden byte fixtures, one per verb, shared with the acceptance suite.
# They are the protocol contract: if one changes, the wire format changed.
from goldens import GOLDEN


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
    from ebp.client import DepotClient
    from ebp.server import _HANDLERS

    golden_verbs = [req.verb for req, _ in GOLDEN]
    codes = [spec.code for spec in VERB_TABLE.values()]
    assert len(set(codes)) == len(codes)
    assert all(1 <= code <= 255 for code in codes)
    for verb, spec in VERB_TABLE.items():
        assert spec.request.verb == verb
        assert golden_verbs.count(verb) == 1
        assert verb in _HANDLERS
        assert callable(getattr(DepotClient, verb.lower(), None))


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


# ----------------------------------------------------------------- dedup


def frame(op_id, deps=(), body=b""):
    return OpFrame(op_id=op_id, deps=tuple(deps), verb_code=2, body=body)


def test_duplicate_returns_cached_response_without_reexecution():
    window = DedupWindow()
    f = frame(0)
    assert window.admit(f).kind == DecisionKind.EXECUTE
    window.mark_completed(0, b"OK 3\n")
    for _ in range(3):
        decision = window.admit(f)
        assert decision.kind == DecisionKind.DUPLICATE
        assert decision.cached_response == b"OK 3\n"


def test_defer_until_deps_complete():
    window = DedupWindow()
    dependent = frame(1, deps=(0,))
    decision = window.admit(dependent)
    assert decision.kind == DecisionKind.DEFER
    assert decision.missing_deps == (0,)
    window.mark_completed(0, b"OK\n")
    assert window.admit(dependent).kind == DecisionKind.EXECUTE


def test_watermark_compaction_and_stale_reject():
    window = DedupWindow(capacity=4)
    for op_id in range(6):
        assert window.admit(frame(op_id, deps=() if op_id == 0 else (op_id - 1,))).kind == (
            DecisionKind.EXECUTE
        )
        window.mark_completed(op_id, b"OK\n")
    assert window.low_watermark > 0
    assert len(window.completed) <= 4
    # A straggler from below the watermark has no cached response left.
    stale = window.admit(frame(0))
    assert stale.kind == DecisionKind.REJECT


def test_out_of_order_execution_allowed_without_deps():
    window = DedupWindow()
    assert window.admit(frame(5)).kind == DecisionKind.EXECUTE
    window.mark_completed(5, b"OK\n")
    assert window.admit(frame(2)).kind == DecisionKind.EXECUTE


def test_adversarial_delivery_matches_topological_oracle():
    """Random DAG, duplicated and shuffled delivery; executed set and order
    must respect deps and each op must execute exactly once."""
    rng = random.Random(7)
    n = 100
    deps = {
        i: tuple(sorted(rng.sample(range(i), min(rng.randrange(0, 4), i)))) for i in range(n)
    }
    schedule = [frame(i, deps[i]) for i in range(n) for _ in range(rng.randrange(1, 6))]
    rng.shuffle(schedule)
    window = DedupWindow()
    executed = []
    pending = []
    queue = list(schedule)
    while queue:
        f = queue.pop(0)
        decision = window.admit(f)
        if decision.kind == DecisionKind.EXECUTE:
            executed.append(f.op_id)
            window.mark_completed(f.op_id, b"OK\n")
            still = [p for p in pending if window.admit(p).kind == DecisionKind.EXECUTE]
            for p in still:
                executed.append(p.op_id)
                window.mark_completed(p.op_id, b"OK\n")
            pending = [p for p in pending if not window.is_completed(p.op_id)]
        elif decision.kind == DecisionKind.DEFER:
            if not window.is_completed(f.op_id) and all(p.op_id != f.op_id for p in pending):
                pending.append(f)
    assert sorted(executed) == list(range(n))  # exactly once each
    seen = set()
    for op_id in executed:
        assert set(deps[op_id]) <= seen  # necessary order respected
        seen.add(op_id)


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


# ------------------------------------------------------------- retransmit


def test_retransmit_schedule_arithmetic():
    # First send due immediately.
    assert retransmit_policy(0, 0) == RetransmitAction.RESEND
    # Response before the next interval: nothing due.
    assert retransmit_policy(1, 20) == RetransmitAction.WAIT
    # 120 ms of silence: sends at 0, 50, 100 -> three attempts.
    attempts, clock = 0, 0
    while clock <= 120:
        if retransmit_policy(attempts, clock) == RetransmitAction.RESEND:
            attempts += 1
        clock += 1
    assert attempts == 3
    # Total loss: eight sends, then give up at ~400 ms.
    attempts, clock = 0, 0
    gave_up_at = None
    while gave_up_at is None:
        action = retransmit_policy(attempts, clock)
        if action == RetransmitAction.RESEND:
            attempts += 1
        elif action == RetransmitAction.GIVE_UP:
            gave_up_at = clock
        clock += 1
    assert attempts == 8
    assert gave_up_at == 400


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
