"""exNode documents: validation, canonical JSON."""

from __future__ import annotations

import functools
import json
import operator

import pytest
from hypothesis import given, settings, strategies as st

from ebp.capability import Capability, Kind
from ebp.errors import ParseError, SchemaError, VersionUnsupported
from ebp.exnode import (
    ExNode,
    Extent,
    Replica,
    from_json,
    make_exnode,
    read_exnode,
    to_json,
    validate,
    write_exnode,
)


def cap(alloc_id: int, kind: Kind, port: int = 5000) -> Capability:
    key = f"{alloc_id:08x}" + "ab" * 16
    return Capability(f"d{port - 5000}.example:{port}", alloc_id, kind, key)


def replica(alloc_id: int, port: int = 5000, with_rw: bool = True) -> Replica:
    return Replica(
        depot_addr=f"d{port - 5000}.example:{port}",
        read=cap(alloc_id, Kind.READ, port),
        write=cap(alloc_id, Kind.WRITE, port) if with_rw else None,
        manage=cap(alloc_id, Kind.MANAGE, port) if with_rw else None,
    )


def simple_exnode(lengths=(10,), replicas_per_extent=1) -> ExNode:
    extents = []
    offset = 0
    alloc = 1
    for length in lengths:
        reps = tuple(replica(alloc + i, 5000 + i) for i in range(replicas_per_extent))
        extents.append(Extent(offset=offset, length=length, replicas=reps))
        offset += length
        alloc += replicas_per_extent
    return make_exnode(offset, extents)


# ---------------------------------------------------------------- validate


def test_single_extent_validates():
    assert validate(simple_exnode((10,))) == []


def test_overlap_detected():
    a = Extent(offset=0, length=5, replicas=(replica(1),))
    b = Extent(offset=4, length=6, replicas=(replica(2),))
    problems = validate(make_exnode(10, [a, b]))
    assert any("overlap" in p for p in problems)


def test_gap_detected():
    a = Extent(offset=0, length=5, replicas=(replica(1),))
    b = Extent(offset=6, length=4, replicas=(replica(2),))
    problems = validate(make_exnode(10, [a, b]))
    assert any("gap [5, 6)" in p for p in problems)


def test_total_length_mismatch_detected():
    problems = validate(make_exnode(11, [Extent(0, 10, (replica(1),))]))
    assert any("total_length" in p for p in problems)


def test_empty_file_is_zero_extents():
    assert validate(make_exnode(0, [])) == []
    assert validate(make_exnode(5, [])) != []


def test_replica_free_extent_rejected():
    problems = validate(make_exnode(3, [Extent(0, 3, ())]))
    assert any("no replicas" in p for p in problems)


# -------------------------------------------------------------------- JSON


def test_roundtrip_structural_identity():
    x = simple_exnode((7, 9), replicas_per_extent=2)
    assert from_json(to_json(x)) == x


def test_canonical_serialization_is_byte_stable():
    x = simple_exnode((7, 9), replicas_per_extent=2)
    y = simple_exnode((7, 9), replicas_per_extent=2)
    assert to_json(x) == to_json(y)
    assert to_json(from_json(to_json(x))) == to_json(x)


def test_readonly_exnode_omits_write_and_manage():
    x = make_exnode(4, [Extent(0, 4, (replica(1, with_rw=False),))])
    doc = json.loads(to_json(x))
    assert "write" not in doc["extents"][0]["replicas"][0]
    assert "manage" not in doc["extents"][0]["replicas"][0]
    assert from_json(to_json(x)) == x


def test_unknown_fields_preserved_through_roundtrip():
    doc = json.loads(to_json(simple_exnode((5,))))
    doc["x-custom"] = {"nested": [1, 2, {"deep": True}]}
    doc["extents"][0]["x-extent-note"] = "keep me"
    doc["extents"][0]["replicas"][0]["x-weight"] = 7
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    parsed = from_json(text)
    again = json.loads(to_json(parsed))
    assert again["x-custom"] == {"nested": [1, 2, {"deep": True}]}
    assert again["extents"][0]["x-extent-note"] == "keep me"
    assert again["extents"][0]["replicas"][0]["x-weight"] == 7


def test_missing_total_length_is_schema_error():
    doc = json.loads(to_json(simple_exnode((5,))))
    del doc["total_length"]
    with pytest.raises(SchemaError):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("base", [True, "0", 1.5])
def test_non_integer_base_is_schema_error(base):
    doc = json.loads(to_json(simple_exnode((5,))))
    doc["extents"][0]["replicas"][0]["base"] = base
    with pytest.raises(SchemaError, match="base"):
        from_json(json.dumps(doc))


def test_unsupported_version_rejected():
    doc = json.loads(to_json(simple_exnode((5,))))
    doc["version"] = 2
    with pytest.raises(VersionUnsupported):
        from_json(json.dumps(doc))


def test_garbage_is_parse_error():
    with pytest.raises(ParseError):
        from_json("{not json")
    with pytest.raises(SchemaError):
        from_json("[1,2,3]")


def test_wrong_kind_capability_in_read_field_rejected():
    doc = json.loads(to_json(simple_exnode((5,))))
    doc["extents"][0]["replicas"][0]["read"] = cap(9, Kind.WRITE).text()
    with pytest.raises(SchemaError):
        from_json(json.dumps(doc))


# The pinned format: these bytes and messages are the exNode JSON contract.
KEY = "0123456789abcdef0123456789abcdef01234567"
CANONICAL = (
    '{"extents":[{"length":5,"offset":0,"replicas":[{"base":0,"depot":"a.example:1",'
    '"manage":"ebp://a.example:1/1/' + KEY + '/manage",'
    '"read":"ebp://a.example:1/1/' + KEY + '/read",'
    '"write":"ebp://a.example:1/1/' + KEY + '/write"}],"x-note":"keep"},'
    '{"length":7,"offset":5,"replicas":[{"base":3,"depot":"b.example:2",'
    '"read":"ebp://b.example:2/7/' + KEY + '/read","x-weight":{"w":[1,null,true]}}]}],'
    '"metadata":{"name":"fé","owner":"ops"},"total_length":12,"version":1,"x-top":[{"deep":1.5}]}'
)


def canonical_exnode() -> ExNode:
    a, b = "a.example:1", "b.example:2"
    full = Replica(
        a,
        Capability(a, 1, Kind.READ, KEY),
        Capability(a, 1, Kind.WRITE, KEY),
        Capability(a, 1, Kind.MANAGE, KEY),
    )
    weight = ("__map__", (("w", ("__list__", (1, None, True))),))
    readonly = Replica(b, Capability(b, 7, Kind.READ, KEY), base=3, extra=(("x-weight", weight),))
    return ExNode(
        total_length=12,
        extents=(
            Extent(0, 5, (full,), extra=(("x-note", "keep"),)),
            Extent(5, 7, (readonly,)),
        ),
        metadata=(("name", "fé"), ("owner", "ops")),
        extra=(("x-top", ("__list__", (("__map__", (("deep", 1.5),)),))),),
    )


def test_canonical_document_bytes_are_pinned():
    assert to_json(canonical_exnode()) == CANONICAL
    assert from_json(CANONICAL) == canonical_exnode()
    assert to_json(from_json(CANONICAL)) == CANONICAL
    assert to_json(make_exnode(0, [])) == '{"extents":[],"metadata":{},"total_length":0,"version":1}'


def test_parse_sorts_extents_and_metadata_and_defaults_base():
    doc = json.loads(CANONICAL)
    doc["extents"].reverse()
    doc["metadata"] = {"owner": "ops", "name": "fé"}
    del doc["extents"][1]["replicas"][0]["base"]
    assert to_json(from_json(json.dumps(doc, indent=2))) == CANONICAL
    del doc["metadata"]
    assert from_json(json.dumps(doc)).metadata == ()


DROP = object()


def mutated(*edits) -> str:
    """CANONICAL with each (path, value) edit applied; DROP deletes."""
    doc = json.loads(CANONICAL)
    for path, value in edits:
        *parents, last = path
        target = functools.reduce(operator.getitem, parents, doc)
        if value is DROP:
            del target[last]
        else:
            target[last] = value
    return json.dumps(doc)


R0 = ("extents", 0, "replicas", 0)
R1 = ("extents", 1, "replicas", 0)
READ_TEXT = f"ebp://a.example:1/1/{KEY}/read"
WRITE_TEXT = f"ebp://a.example:1/1/{KEY}/write"
MALFORMED = [
    ("{not json", ParseError,
     "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("", ParseError, "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    (None, ParseError, "not valid JSON: the JSON object must be str, bytes or bytearray, not NoneType"),
    ("[1,2,3]", SchemaError, "top level must be an object"),
    (mutated((("version",), DROP)), SchemaError, "top level is missing required field 'version'"),
    (mutated((("version",), "1")), SchemaError, "top level field 'version' must be int"),
    (mutated((("version",), True)), SchemaError, "top level field 'version' must be int"),
    (mutated((("version",), 2), (("total_length",), DROP)), VersionUnsupported,
     "format version 2 not supported"),
    (mutated((("total_length",), DROP)), SchemaError,
     "top level is missing required field 'total_length'"),
    (mutated((("total_length",), 1.0)), SchemaError, "top level field 'total_length' must be int"),
    (mutated((("extents",), {})), SchemaError, "top level field 'extents' must be list"),
    (mutated((("extents",), "x"), (("metadata",), 1)), SchemaError,
     "top level field 'extents' must be list"),
    (mutated((("metadata",), {"a": 1})), SchemaError, "metadata must be a string map"),
    (mutated((("metadata",), None)), SchemaError, "metadata must be a string map"),
    (mutated((("metadata",), []), (("extents", 0, "offset"), DROP)), SchemaError,
     "metadata must be a string map"),
    (mutated((("extents", 1), [])), SchemaError, "extent 1 must be an object"),
    (mutated((("extents", 0, "offset"), DROP)), SchemaError,
     "extent 0 is missing required field 'offset'"),
    (mutated((("extents", 1, "length"), False)), SchemaError, "extent 1 field 'length' must be int"),
    (mutated((("extents", 0, "replicas"), DROP)), SchemaError,
     "extent 0 is missing required field 'replicas'"),
    (mutated((("extents", 0, "offset"), "0"), (("extents", 0, "replicas"), "r")), SchemaError,
     "extent 0 field 'offset' must be int"),
    (mutated((R0, "r")), SchemaError, "extent 0 replica 0 must be an object"),
    (mutated((R1 + ("depot",), DROP)), SchemaError,
     "extent 1 replica 0 is missing required field 'depot'"),
    (mutated((R1 + ("depot",), 5)), SchemaError, "extent 1 replica 0 field 'depot' must be str"),
    (mutated((R0 + ("read",), DROP)), SchemaError,
     "extent 0 replica 0 is missing required field 'read'"),
    (mutated((R0 + ("read",), 7)), SchemaError,
     "extent 0 replica 0 field 'read' must be a capability string"),
    (mutated((R0 + ("write",), None)), SchemaError,
     "extent 0 replica 0 field 'write' must be a capability string"),
    (mutated((R0 + ("read",), "ebp://x")), SchemaError,
     "extent 0 replica 0 field 'read': bad capability: 'ebp://x'"),
    (mutated((R0 + ("read",), WRITE_TEXT)), SchemaError,
     "extent 0 replica 0 field 'read' holds a write capability"),
    (mutated((R0 + ("manage",), READ_TEXT)), SchemaError,
     "extent 0 replica 0 field 'manage' holds a read capability"),
    (mutated((R1 + ("base",), "0")), SchemaError, "extent 1 replica 0 field 'base' must be int"),
    (mutated((R0 + ("read",), "ebp://x"), (R0 + ("base",), "0")), SchemaError,
     "extent 0 replica 0 field 'read': bad capability: 'ebp://x'"),
]


@pytest.mark.parametrize("document, error, message", MALFORMED)
def test_malformed_documents_get_pinned_errors(document, error, message):
    with pytest.raises(error) as info:
        from_json(document)
    assert type(info.value) is error
    assert info.value.message == message


@given(
    lengths=st.lists(st.integers(min_value=1, max_value=1000), min_size=0, max_size=8),
    reps=st.integers(min_value=1, max_value=3),
    metadata=st.dictionaries(
        st.from_regex(r"[a-z][a-z0-9-]{0,10}", fullmatch=True),
        st.from_regex(r"[a-zA-Z0-9 ._-]{0,20}", fullmatch=True),
        max_size=3,
    ),
)
@settings(max_examples=100)
def test_property_roundtrip_random_exnodes(lengths, reps, metadata):
    extents = []
    offset = 0
    for i, length in enumerate(lengths):
        extents.append(
            Extent(offset, length, tuple(replica(i * 3 + j + 1, 5000 + j) for j in range(reps)))
        )
        offset += length
    x = make_exnode(offset, extents, metadata)
    assert validate(x) == []
    assert from_json(to_json(x)) == x
    assert to_json(from_json(to_json(x))) == to_json(x)


# -------------------------------------------------------------------- files


def test_file_roundtrip_atomic(tmp_path):
    x = simple_exnode((10, 20))
    path = tmp_path / "file.xnd.json"
    write_exnode(str(path), x)
    assert read_exnode(str(path)) == x
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".xnd-")]
    assert leftovers == []
