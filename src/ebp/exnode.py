"""exNode documents: how leased allocations compose into one logical file.

An exNode maps logical byte ranges (extents) onto replica sets; each replica
names an allocation on some depot by capability. Extents must tile
``[0, total_length)`` exactly: no gaps, no overlaps, every byte covered by at
least one replica. Redundancy is expressed only through replica lists.

Documents are value-semantics data: share freely for reading, build a new one
to change anything. The JSON form is canonical (sorted keys, compact
separators), so structurally equal exNodes serialize byte-identically, and
unknown fields survive a parse/serialize round-trip untouched. Files use the
``.xnd.json`` extension.

Write and manage capabilities are optional in serialized form: handing
someone a read-only exNode is a first-class use.

The JSON form of each object (``Replica``, ``Extent``, ``ExNode``) is one
table of fields in ``_FIELDS``; one walk writes it and one reads it.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from .capability import Capability, Kind, parse_capability
from .errors import MalformedFrame, ParseError, SchemaError, VersionUnsupported

FORMAT_VERSION = 1
FILE_SUFFIX = ".xnd.json"


@dataclass(frozen=True)
class Replica:
    depot_addr: str
    read: Capability
    write: Optional[Capability] = None
    manage: Optional[Capability] = None
    base: int = 0  # offset of the extent's first byte inside the allocation
    extra: tuple = ()  # unknown JSON fields, preserved opaquely


@dataclass(frozen=True)
class Extent:
    offset: int
    length: int
    replicas: tuple
    extra: tuple = ()


@dataclass(frozen=True)
class ExNode:
    total_length: int
    extents: tuple
    metadata: tuple = ()  # ((key, value), ...) string map
    version: int = FORMAT_VERSION
    extra: tuple = ()

    def metadata_dict(self) -> dict:
        return dict(self.metadata)


def make_exnode(total_length: int, extents, metadata: Optional[dict] = None) -> ExNode:
    ordered = tuple(sorted(extents, key=lambda e: e.offset))
    return ExNode(
        total_length=total_length,
        extents=ordered,
        metadata=tuple(sorted((metadata or {}).items())),
    )


# ------------------------------------------------------------------ validate


def validate(exnode: ExNode) -> list:
    """Empty list iff the document is well formed; otherwise one violation
    string per problem."""
    problems = []
    if exnode.version != FORMAT_VERSION:
        problems.append(f"version {exnode.version} is not {FORMAT_VERSION}")
    if exnode.total_length < 0:
        problems.append("total_length is negative")
    cursor = 0
    for i, extent in enumerate(exnode.extents):
        if extent.length < 1:
            problems.append(f"extent {i} has length {extent.length} < 1")
        if not extent.replicas:
            problems.append(f"extent {i} has no replicas")
        if extent.offset < cursor:
            problems.append(
                f"extent {i} at {extent.offset} overlaps the previous extent ending at {cursor}"
            )
        elif extent.offset > cursor:
            problems.append(f"gap [{cursor}, {extent.offset}) before extent {i}")
        for j, replica in enumerate(extent.replicas):
            if replica.base < 0:
                problems.append(f"extent {i} replica {j} has negative base")
            if replica.read.kind is not Kind.READ:
                problems.append(f"extent {i} replica {j} read capability has wrong kind")
        cursor = max(cursor, extent.offset + extent.length)
    if exnode.extents and cursor != exnode.total_length:
        problems.append(f"extents cover [0, {cursor}) but total_length is {exnode.total_length}")
    if not exnode.extents and exnode.total_length != 0:
        problems.append(f"no extents but total_length is {exnode.total_length}")
    return problems


# --------------------------------------------------------------------- JSON
#
# Each object's JSON form is declared once, as one table of fields that
# ``_dump`` and ``_load`` walk. A key no row names is an unknown field, kept
# opaquely in ``extra``. A row's kind is the type its value must have, a
# capability ``Kind``, ``dict`` for a string map, or the class of the objects
# its list holds. Loading checks an object's own fields in row order, then
# the objects it holds.

_REQUIRED = object()


class _Field(NamedTuple):
    key: str  # the JSON key
    kind: object
    default: object = _REQUIRED  # the attribute's value when the key is absent
    attr: str = ""  # the attribute, when it is not named as the key


_VERSION = _Field("version", int)  # checked as soon as it is read
_FIELDS = {
    Replica: (
        _Field("depot", str, attr="depot_addr"),
        _Field("read", Kind.READ),
        _Field("write", Kind.WRITE, None),
        _Field("manage", Kind.MANAGE, None),
        _Field("base", int, 0),
    ),
    Extent: (
        _Field("offset", int),
        _Field("length", int),
        _Field("replicas", Replica),
    ),
    ExNode: (
        _VERSION,
        _Field("total_length", int),
        _Field("extents", Extent),
        _Field("metadata", dict, ()),
    ),
}


def to_json(exnode: ExNode) -> str:
    """Canonical UTF-8 JSON document; identical exNodes yield identical bytes."""
    return json.dumps(_dump(exnode), sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def from_json(document: str) -> ExNode:
    try:
        doc = json.loads(document)
    except (json.JSONDecodeError, TypeError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    exnode = _load(ExNode, doc, "")
    return replace(exnode, extents=tuple(sorted(exnode.extents, key=lambda e: e.offset)))


def _dump(obj) -> dict:
    """``obj``'s JSON object; a field that is None is left out."""
    doc = {k: _thaw(v) for k, v in obj.extra}
    for field in _FIELDS[type(obj)]:
        value = getattr(obj, field.attr or field.key)
        if value is None:
            continue
        if isinstance(field.kind, Kind):
            value = value.text()
        elif field.kind is dict:
            value = dict(value)
        elif field.kind in _FIELDS:
            value = [_dump(item) for item in value]
        doc[field.key] = value
    return doc


def _load(cls: type, doc, path: str):
    """A ``cls`` from its JSON object ``doc``; ``path`` names where it sits
    in the document, "" at the top level and with a trailing space below."""
    where = path.rstrip() or "top level"
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be an object")
    values = {}
    for field in _FIELDS[cls]:
        if field.key in doc:
            value = _value(field, doc[field.key], where)
        elif field.default is _REQUIRED:
            raise SchemaError(f"{where} is missing required field {field.key!r}")
        else:
            value = field.default
        if field is _VERSION and value != FORMAT_VERSION:
            raise VersionUnsupported(f"format version {value} not supported")
        values[field.attr or field.key] = value
    for field in _FIELDS[cls]:
        if field.kind in _FIELDS:
            name, label = field.attr or field.key, path + field.kind.__name__.lower()
            values[name] = tuple(_load(field.kind, d, f"{label} {i} ") for i, d in enumerate(values[name]))
    known = {field.key for field in _FIELDS[cls]}
    return cls(**values, extra=tuple(sorted((k, _freeze(v)) for k, v in doc.items() if k not in known)))


def _value(field: _Field, value, where: str):
    """The attribute a JSON ``value`` of ``field`` at ``where`` gives."""
    kind, key = field.kind, field.key
    if isinstance(kind, Kind):
        if not isinstance(value, str):
            raise SchemaError(f"{where} field {key!r} must be a capability string")
        try:
            cap = parse_capability(value)
        except MalformedFrame as exc:
            raise SchemaError(f"{where} field {key!r}: {exc.message}") from exc
        if cap.kind is not kind:
            raise SchemaError(f"{where} field {key!r} holds a {cap.kind.value} capability")
        return cap
    if kind is dict:
        if not isinstance(value, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in value.items()
        ):
            raise SchemaError(f"{key} must be a string map")
        return tuple(sorted(value.items()))
    kind = list if kind in _FIELDS else kind
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(f"{where} field {key!r} must be {kind.__name__}")
    return value


def _freeze(value):
    if isinstance(value, dict):
        return ("__map__", tuple(sorted((k, _freeze(v)) for k, v in value.items())))
    if isinstance(value, list):
        return ("__list__", tuple(_freeze(v) for v in value))
    return value


def _thaw(value):
    if isinstance(value, tuple) and len(value) == 2 and value[0] == "__map__":
        return {k: _thaw(v) for k, v in value[1]}
    if isinstance(value, tuple) and len(value) == 2 and value[0] == "__list__":
        return [_thaw(v) for v in value[1]]
    return value


# --------------------------------------------------------------------- files


def read_exnode(path: str) -> ExNode:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def write_exnode(path: str, exnode: ExNode) -> None:
    """Atomic write: temp file in the same directory, then rename over."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".xnd-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(to_json(exnode))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
