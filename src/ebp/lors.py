"""File-level runtime over exNodes: upload, download, repair.

Upload splits a byte sequence into fixed-size chunks and places each chunk on
``k`` distinct depots chosen round-robin (chunk ``i`` starts its candidate
list at depot index ``i mod len(depots)``), so placement is deterministic
given the same inputs. Chunks are views of the caller's bytes, or read from
a file by offset inside the worker that stores them, so at most
``parallelism`` chunks of a file are in memory. Download fetches extents in
parallel, each received straight into its range of the result, trying each
extent's replicas in list order and advancing on any error, including a
replica whose bytes carry the unknown-state flag: flagged bytes are treated
as a failed replica, never returned to the caller. Repair restores the
replica count by depot-to-depot transfer from a surviving replica, so payload
bytes never cross the repairing client's link.

The runtime is stateless: leases on uploaded chunks default to one hour and
keeping them alive is the policy daemon's job, not ours. Every request goes
through a pooled ``client.session``, so consecutive operations against one
depot share a connection.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Iterator, Optional, Union

from .capability import Hardness
from .client import session
from .errors import EbpError, ExtentUnavailable, InsufficientDepots
from .exnode import ExNode, Extent, Replica, make_exnode, validate

DEFAULT_LEASE_S = 3600
DEFAULT_PARALLELISM = 4


def upload(
    source: Union[bytes, bytearray, memoryview, str],
    depots: list,
    chunk_size: int,
    k: int,
    *,
    lease_s: int = DEFAULT_LEASE_S,
    hardness: Hardness = Hardness.SOFT,
    parallelism: int = DEFAULT_PARALLELISM,
    timeout_ms: int = 5000,
    metadata: Optional[dict] = None,
) -> ExNode:
    """Stripe ``source`` (a bytes-like object or a file path) across ``depots``.

    Each chunk lands on ``k`` distinct depots; a depot that refuses or cannot
    be reached is skipped and the round-robin continues, failing with
    InsufficientDepots only when a chunk cannot reach ``k`` replicas after
    trying every depot. An allocation whose store fails is released, and so,
    if the upload fails, is every replica it placed (both best-effort): no
    exNode names them.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if k < 1 or k > len(depots):
        raise ValueError(f"replication k={k} must be between 1 and {len(depots)}")
    with _chunks_of(source) as (total, read):
        if not total:
            return make_exnode(0, [], metadata)
        dead: set = set()
        dead_lock = threading.Lock()
        placed: list = []  # (address, manage cap) of every filled replica

        def place(index: int) -> Extent:
            chunk = read(index * chunk_size, min(chunk_size, total - index * chunk_size))
            candidates = [depots[(index + j) % len(depots)] for j in range(len(depots))]
            replicas = []
            last_error: Optional[EbpError] = None
            for addr in candidates:
                if len(replicas) >= k:
                    break
                with dead_lock:
                    if addr in dead:
                        continue
                caps = None
                try:
                    with session(addr, timeout_ms) as cli:
                        caps = cli.allocate(len(chunk), lease_s, hardness)
                        cli.store(caps.write, 0, chunk)
                    placed.append((addr, caps.manage))
                    replicas.append(
                        Replica(depot_addr=addr, read=caps.read, write=caps.write, manage=caps.manage)
                    )
                except EbpError as exc:
                    last_error = exc
                    if caps is not None:  # allocated but never filled
                        _release([(addr, caps.manage)], timeout_ms)
                    if exc.code in ("ConnectionLost", "Timeout"):
                        with dead_lock:
                            dead.add(addr)
            if len(replicas) < k:
                detail = f"; last error: {last_error.code}: {last_error.message}" if last_error else ""
                raise InsufficientDepots(
                    f"chunk {index} reached {len(replicas)} of {k} replicas{detail}"
                )
            return Extent(offset=index * chunk_size, length=len(chunk), replicas=tuple(replicas))

        pool = ThreadPoolExecutor(max_workers=max(1, parallelism))
        try:
            extents = list(pool.map(place, range(-(-total // chunk_size))))
        except BaseException:
            # No exNode will name the replicas placed so far: let the chunks
            # in flight finish, start no more, and give every replica back.
            pool.shutdown(cancel_futures=True)
            _release(placed, timeout_ms)
            raise
        finally:
            pool.shutdown()
    return make_exnode(total, extents, metadata)


@contextmanager
def _chunks_of(source) -> Iterator[tuple]:
    """``(length, read)`` of a bytes-like object or a file path, where
    ``read(offset, n)`` gives those bytes: a view, or one ``os.pread``."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        view = memoryview(source).cast("B")
        yield len(view), lambda offset, n: view[offset : offset + n]
        return
    fd = os.open(source, os.O_RDONLY)

    def read(offset: int, n: int) -> bytes:
        chunk = os.pread(fd, n, offset)
        if len(chunk) != n:
            raise ValueError(f"{source} changed size during upload")
        return chunk

    try:
        yield os.fstat(fd).st_size, read
    finally:
        os.close(fd)


def download(
    exnode: ExNode,
    *,
    parallelism: int = DEFAULT_PARALLELISM,
    timeout_ms: int = 5000,
) -> bytes:
    """Reassemble the full file; exact bytes or ExtentUnavailable."""
    _check(exnode)
    if exnode.total_length == 0:
        return b""
    buffer = bytearray(exnode.total_length)
    view = memoryview(buffer)

    def fetch(extent: Extent) -> None:
        # A replica that fails part way leaves bytes here; the next one
        # overwrites the whole range.
        target = view[extent.offset : extent.offset + extent.length]
        failures = []
        for replica in extent.replicas:
            try:
                with session(replica.depot_addr, timeout_ms) as cli:
                    result = cli.load(replica.read, replica.base, extent.length, into=target)
                if result.unknown_state:
                    failures.append(f"{replica.depot_addr}: unknown-state bytes")
                    continue
                return
            except EbpError as exc:
                failures.append(f"{replica.depot_addr}: {exc.code}")
        raise ExtentUnavailable(
            f"logical range [{extent.offset}, {extent.offset + extent.length})"
            f" unavailable: {'; '.join(failures)}"
        )

    with ThreadPoolExecutor(max_workers=max(1, parallelism)) as pool:
        for maybe_error in pool.map(fetch, exnode.extents):
            _ = maybe_error  # exceptions re-raise from map
    return bytes(buffer)


def repair(
    exnode: ExNode,
    k: int,
    depots: list,
    *,
    lease_s: int = DEFAULT_LEASE_S,
    hardness: Hardness = Hardness.SOFT,
    timeout_ms: int = 5000,
) -> ExNode:
    """Bring every extent back to >= k live replicas; returns a new exNode.

    New replicas are filled by asking a surviving replica's depot to TRANSFER
    the extent directly to the new allocation. Extents already at ``k`` are
    returned untouched (dead replica entries and all); repaired extents keep
    only live replicas plus the new ones.
    """
    _check(exnode)
    new_extents = []
    for extent in exnode.extents:
        live = [r for r in extent.replicas if _alive(r, extent.length, timeout_ms)]
        if len(live) >= k:
            new_extents.append(extent)
            continue
        if not live:
            raise ExtentUnavailable(
                f"logical range [{extent.offset}, {extent.offset + extent.length})"
                " has no live replica to copy from"
            )
        hosting = {r.depot_addr for r in live}
        replicas = list(live)
        last_error: Optional[EbpError] = None
        for addr in depots:
            if len(replicas) >= k:
                break
            if addr in hosting:
                continue
            source = replicas[0]
            try:
                with session(addr, timeout_ms) as dst_cli:
                    caps = dst_cli.allocate(extent.length, lease_s, hardness)
                with session(source.depot_addr, timeout_ms) as src_cli:
                    src_cli.transfer(source.read, source.base, caps.write, 0, extent.length)
                replicas.append(
                    Replica(depot_addr=addr, read=caps.read, write=caps.write, manage=caps.manage)
                )
                hosting.add(addr)
            except EbpError as exc:
                last_error = exc
        if len(replicas) < k:
            if last_error is not None:
                raise last_error
            raise InsufficientDepots(
                f"extent at {extent.offset}: only {len(replicas)} of {k} replicas placeable"
            )
        new_extents.append(Extent(offset=extent.offset, length=extent.length, replicas=tuple(replicas), extra=extent.extra))
    rebuilt = ExNode(
        total_length=exnode.total_length,
        extents=tuple(new_extents),
        metadata=exnode.metadata,
        version=exnode.version,
        extra=exnode.extra,
    )
    return rebuilt


def release_all(exnode: ExNode, *, timeout_ms: int = 5000) -> int:
    """Best-effort release of every replica holding a manage capability."""
    return _release(
        [
            (replica.depot_addr, replica.manage)
            for extent in exnode.extents
            for replica in extent.replicas
            if replica.manage is not None
        ],
        timeout_ms,
    )


def _release(placed: list, timeout_ms: int) -> int:
    """Best-effort release of ``(depot address, manage capability)`` pairs;
    returns how many were released."""
    released = 0
    for addr, manage in placed:
        try:
            with session(addr, timeout_ms) as cli:
                cli.release(manage)
            released += 1
        except EbpError:
            pass
    return released


def _alive(replica: Replica, length: int, timeout_ms: int) -> bool:
    """A replica counts as live when its bytes are reachable and trusted.

    Reading the extent's last byte proves the allocation still exists, the
    lease is current, the full range is present, and the flag is clean.
    """
    probe_offset = replica.base + max(0, length - 1)
    probe_len = 1 if length else 0
    try:
        with session(replica.depot_addr, timeout_ms) as cli:
            result = cli.load(replica.read, probe_offset, probe_len)
        return not result.unknown_state
    except EbpError:
        return False


def _check(exnode: ExNode) -> None:
    problems = validate(exnode)
    if problems:
        from .errors import ValidationFailed

        raise ValidationFailed("; ".join(problems))

