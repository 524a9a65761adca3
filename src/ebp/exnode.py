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
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

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

_REPLICA_KEYS = {"depot", "read", "write", "manage", "base"}
_EXTENT_KEYS = {"offset", "length", "replicas"}
_TOP_KEYS = {"version", "total_length", "extents", "metadata"}


def to_json(exnode: ExNode) -> str:
    """Canonical UTF-8 JSON document; identical exNodes yield identical bytes."""
    doc = {k: _thaw(v) for k, v in exnode.extra}
    doc["version"] = exnode.version
    doc["total_length"] = exnode.total_length
    doc["metadata"] = dict(exnode.metadata)
    doc["extents"] = []
    for extent in exnode.extents:
        edoc = {k: _thaw(v) for k, v in extent.extra}
        edoc["offset"] = extent.offset
        edoc["length"] = extent.length
        edoc["replicas"] = []
        for replica in extent.replicas:
            rdoc = {k: _thaw(v) for k, v in replica.extra}
            rdoc["depot"] = replica.depot_addr
            rdoc["read"] = replica.read.text()
            if replica.write is not None:
                rdoc["write"] = replica.write.text()
            if replica.manage is not None:
                rdoc["manage"] = replica.manage.text()
            rdoc["base"] = replica.base
            edoc["replicas"].append(rdoc)
        doc["extents"].append(edoc)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def from_json(document: str) -> ExNode:
    try:
        doc = json.loads(document)
    except (json.JSONDecodeError, TypeError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    version = _require(doc, "version", int, "top level")
    if version != FORMAT_VERSION:
        raise VersionUnsupported(f"format version {version} not supported")
    total_length = _require(doc, "total_length", int, "top level")
    raw_extents = _require(doc, "extents", list, "top level")
    raw_metadata = doc.get("metadata", {})
    if not isinstance(raw_metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in raw_metadata.items()
    ):
        raise SchemaError("metadata must be a string map")
    extents = []
    for i, edoc in enumerate(raw_extents):
        if not isinstance(edoc, dict):
            raise SchemaError(f"extent {i} must be an object")
        offset = _require(edoc, "offset", int, f"extent {i}")
        length = _require(edoc, "length", int, f"extent {i}")
        raw_replicas = _require(edoc, "replicas", list, f"extent {i}")
        replicas = []
        for j, rdoc in enumerate(raw_replicas):
            if not isinstance(rdoc, dict):
                raise SchemaError(f"extent {i} replica {j} must be an object")
            where = f"extent {i} replica {j}"
            depot = _require(rdoc, "depot", str, where)
            read = _cap(rdoc, "read", Kind.READ, where, required=True)
            write = _cap(rdoc, "write", Kind.WRITE, where)
            manage = _cap(rdoc, "manage", Kind.MANAGE, where)
            base = _require(rdoc, "base", int, where) if "base" in rdoc else 0
            replicas.append(
                Replica(
                    depot_addr=depot,
                    read=read,
                    write=write,
                    manage=manage,
                    base=base,
                    extra=_extras(rdoc, _REPLICA_KEYS),
                )
            )
        extents.append(
            Extent(
                offset=offset,
                length=length,
                replicas=tuple(replicas),
                extra=_extras(edoc, _EXTENT_KEYS),
            )
        )
    return ExNode(
        total_length=total_length,
        extents=tuple(sorted(extents, key=lambda e: e.offset)),
        metadata=tuple(sorted(raw_metadata.items())),
        version=version,
        extra=_extras(doc, _TOP_KEYS),
    )


def _require(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise SchemaError(f"{where} is missing required field {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(f"{where} field {key!r} must be {kind.__name__}")
    return value


def _cap(doc: dict, key: str, kind: Kind, where: str, required: bool = False):
    if key not in doc:
        if required:
            raise SchemaError(f"{where} is missing required field {key!r}")
        return None
    text = doc[key]
    if not isinstance(text, str):
        raise SchemaError(f"{where} field {key!r} must be a capability string")
    try:
        cap = parse_capability(text)
    except MalformedFrame as exc:
        raise SchemaError(f"{where} field {key!r}: {exc.message}") from exc
    if cap.kind is not kind:
        raise SchemaError(f"{where} field {key!r} holds a {cap.kind.value} capability")
    return cap


def _extras(doc: dict, known: set) -> tuple:
    return tuple(sorted((k, _freeze(v)) for k, v in doc.items() if k not in known))


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
