"""Capabilities: unforgeable keyed references to one allocation on one depot.

A capability names a single allocation for a single access kind and carries a
160-bit random key minted by the depot from a CSPRNG. Possession of the text
form is the whole authorization model; there are no accounts.

Canonical text form::

    ebp://<host>:<port>/<alloc_id>/<key>/<kind>

where ``key`` is exactly 40 lowercase hex characters and ``kind`` is one of
``read``, ``write``, ``manage``. Parsing and formatting round-trip
byte-identically. Nothing caches a parse: a depot parses each request's
capability afresh. A capability builds its text once, when first asked for it.
"""

from __future__ import annotations

import enum
import re
import secrets
from dataclasses import dataclass
from functools import cached_property

from .errors import MalformedFrame

KEY_BITS = 160
KEY_HEX_LEN = KEY_BITS // 4


class Kind(enum.Enum):
    READ = "read"
    WRITE = "write"
    MANAGE = "manage"


class Hardness(enum.Enum):
    """QoS tier of an allocation; ordering is BEST_EFFORT < SOFT < HARD."""

    BEST_EFFORT = "besteffort"
    SOFT = "soft"
    HARD = "hard"

    @property
    def rank(self) -> int:
        return _HARDNESS_RANK[self]


_HARDNESS_RANK = {Hardness.BEST_EFFORT: 0, Hardness.SOFT: 1, Hardness.HARD: 2}

# host, port, alloc_id, key, kind
_CAP_RE = re.compile(r"ebp://([A-Za-z0-9._-]+):(\d{1,5})/(\d+)/([0-9a-f]{40})/(read|write|manage)")
_KINDS = {kind.value: kind for kind in Kind}

MAX_U64 = 2**64 - 1


def new_key() -> str:
    """Mint a fresh 160-bit key, hex-encoded, from a CSPRNG."""
    return secrets.token_hex(KEY_HEX_LEN // 2)


@dataclass(frozen=True, init=False)
class Capability:
    depot_addr: str  # "host:port"
    alloc_id: int
    kind: Kind
    key: str  # 40 lowercase hex chars

    def __init__(self, depot_addr: str, alloc_id: int, kind: Kind, key: str):
        # Filled in one step: the generated frozen ``__init__`` calls
        # ``object.__setattr__`` per field, which was a third of a parse.
        self.__dict__.update(depot_addr=depot_addr, alloc_id=alloc_id, kind=kind, key=key)

    def text(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        host, port = self.depot_addr.rsplit(":", 1)
        return f"ebp://{host}:{port}/{self.alloc_id}/{self.key}/{self.kind.value}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text()


def parse_capability(text: str) -> Capability:
    """Parse the canonical text form; raise MalformedFrame on any deviation."""
    m = _CAP_RE.fullmatch(text)
    if m is None:
        raise MalformedFrame(f"bad capability: {text[:80]!r}")
    host, port, alloc_id, key, kind = m.groups()
    port = int(port)
    if port > 65535:
        raise MalformedFrame(f"bad capability port: {port}")
    alloc_id = int(alloc_id)
    if alloc_id > MAX_U64:
        raise MalformedFrame("alloc_id out of 64-bit range")
    return Capability(f"{host}:{port}", alloc_id, _KINDS[kind], key)


@dataclass(frozen=True)
class CapabilitySet:
    """The three independent capabilities minted for one allocation."""

    read: Capability
    write: Capability
    manage: Capability

    def __iter__(self):
        return iter((self.read, self.write, self.manage))
