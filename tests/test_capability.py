"""Capability text form: canonical round-trips and strict parsing."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from ebp.capability import Capability, Kind, parse_capability
from ebp.errors import MalformedFrame


def test_canonical_text_form():
    cap = Capability("example.org:6714", 42, Kind.READ, "ab" * 20)
    assert cap.text() == f"ebp://example.org:6714/42/{'ab' * 20}/read"


def test_parse_roundtrip_exact():
    text = f"ebp://10.0.0.5:9000/7/{'0f' * 20}/manage"
    assert parse_capability(text).text() == text


hex_keys = st.text(alphabet="0123456789abcdef", min_size=40, max_size=40)


@given(
    host=st.from_regex(r"[a-z][a-z0-9.-]{0,20}", fullmatch=True),
    port=st.integers(min_value=1, max_value=65535),
    alloc_id=st.integers(min_value=0, max_value=2**64 - 1),
    key=hex_keys,
    kind=st.sampled_from(list(Kind)),
)
def test_format_parse_identity(host, port, alloc_id, key, kind):
    cap = Capability(f"{host}:{port}", alloc_id, kind, key)
    again = parse_capability(cap.text())
    assert again == cap
    assert again.text() == cap.text()


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "ebp://host:1/1/short/read",
        "ebp://host:1/1/" + "g" * 40 + "/read",  # non-hex
        "ebp://host:1/1/" + "AB" * 20 + "/read",  # uppercase hex
        "ebp://host:1/1/" + "ab" * 20 + "/admin",  # unknown kind
        "ebp://host/1/" + "ab" * 20 + "/read",  # missing port
        "ebp://host:99999/1/" + "ab" * 20 + "/read",  # port too large
        "http://host:1/1/" + "ab" * 20 + "/read",  # wrong scheme
        "ebp://host:1/-1/" + "ab" * 20 + "/read",  # negative id
        "ebp://host:1/18446744073709551616/" + "ab" * 20 + "/read",  # > u64
        "ebp://host:1/1/" + "ab" * 20 + "/read/extra",
    ],
)
def test_malformed_capabilities_rejected(bad):
    with pytest.raises(MalformedFrame):
        parse_capability(bad)



@given(
    port=st.integers(min_value=1, max_value=65535),
    alloc_id=st.integers(min_value=0, max_value=2**64 - 1),
    key=hex_keys,
    kind=st.sampled_from(list(Kind)),
    zeros=st.integers(0, 2),
)
def test_text_is_the_same_parsed_or_built(port, alloc_id, key, kind, zeros):
    built = Capability(f"h.example:{port}", alloc_id, kind, key)
    # Leading zeros parse (a port has at most 5 digits); the text form drops them.
    port_text = str(port).rjust(min(5, len(str(port)) + zeros), "0")
    parsed = parse_capability(f"ebp://h.example:{port_text}/{'0' * zeros}{alloc_id}/{key}/{kind.value}")
    assert parsed == built
    assert hash(parsed) == hash(built)
    assert parsed.text() == built.text() == f"ebp://h.example:{port}/{alloc_id}/{key}/{kind.value}"


def test_capability_is_immutable():
    cap = Capability("h:1", 1, Kind.READ, "ab" * 20)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cap.alloc_id = 2
