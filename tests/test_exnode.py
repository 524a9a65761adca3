"""exNode documents: validation, canonical JSON."""

from __future__ import annotations

import json

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
