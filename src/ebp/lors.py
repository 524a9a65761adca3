"""File-level runtime over exNodes: upload, download, repair.

Upload splits a byte sequence into fixed-size chunks: views of the caller's
bytes, or read from a file by offset inside the worker that stores them, so
at most ``parallelism`` chunks of a file are in memory. ``download`` and
``download_to`` share one fetch loop: it fetches extents in parallel, each
received straight into its range of the target, trying each extent's
replicas in list order and advancing on any error, including a replica whose
bytes carry the unknown-state flag: flagged bytes are treated as a failed
replica, never returned to the caller. ``download`` receives into a new
``bytearray`` and returns it. ``download_to`` receives into a caller's
buffer, or, for a file path, into a memory map of a temporary file beside it
that replaces the path only once every extent has arrived; a device or FIFO
is written in place instead, never replaced.

Upload and repair place replicas by one rule (``_place``): walk the candidate
depots in order, skip those that hold the extent already, allocate, fill, and
stop at ``k`` replicas. Upload fills by STORE and starts chunk ``i``'s
candidates at depot ``i mod len(depots)``, so placement is deterministic;
repair fills by TRANSFER from a surviving replica, so payload bytes never
cross the repairing client's link. An allocation whose fill fails is
released, and so, when a call fails, is every replica it placed (both
best-effort). A depot whose own session hit ``Timeout`` or ``ConnectionLost``
gets no further connection attempt in that call.

The runtime is stateless: leases default to one hour and keeping them alive
is the policy daemon's job. Every request goes through a pooled
``client.session``, so consecutive operations on one depot share a connection.
"""

from __future__ import annotations

import mmap
import os
import secrets
import stat
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import replace
from typing import Iterator, Optional, Union

from .capability import Hardness
from .client import session
from .errors import EbpError, ExtentUnavailable, InsufficientDepots, ValidationFailed
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
    trying every depot. A failed upload releases every replica it placed.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if k < 1 or k > len(depots):
        raise ValueError(f"replication k={k} must be between 1 and {len(depots)}")
    with _chunks_of(source) as (total, read), _Call(timeout_ms, lease_s, hardness) as call:
        if not total:
            return make_exnode(0, [], metadata)

        def place(index: int) -> Extent:
            offset = index * chunk_size
            chunk = read(offset, min(chunk_size, total - offset))
            candidates = [depots[(index + j) % len(depots)] for j in range(len(depots))]
            extent = Extent(offset, len(chunk), ())
            return _place(call, extent, candidates, k, lambda cli, caps: cli.store(caps.write, 0, chunk))

        pool = ThreadPoolExecutor(max_workers=max(1, parallelism))
        try:
            extents = list(pool.map(place, range(-(-total // chunk_size))))
        finally:
            # After a failure, the chunks in flight finish and no more start,
            # so the call's release on exit finds every replica placed.
            pool.shutdown(cancel_futures=True)
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
) -> bytearray:
    """Reassemble the full file into a new ``bytearray`` and return it:
    exact bytes or ExtentUnavailable. The returned buffer is the only
    file-sized one; ``download_to`` fills one the caller owns, or a file."""
    _check(exnode)  # before total_length sizes the buffer
    buffer = bytearray(exnode.total_length)
    download_to(exnode, buffer, parallelism=parallelism, timeout_ms=timeout_ms)
    return buffer


def download_to(
    exnode: ExNode,
    target: Union[bytearray, memoryview, mmap.mmap, str, os.PathLike],
    *,
    parallelism: int = DEFAULT_PARALLELISM,
    timeout_ms: int = 5000,
) -> None:
    """Receive the file into ``target``: a writable buffer of exactly
    ``total_length`` bytes, or a file path. Raises ExtentUnavailable, naming
    the range, when an extent has no replica that serves it whole and clean.

    A buffer's contents are undefined after an error. A path is received
    through ``_file_buffer``: into a memory map of a temporary file beside
    it, renamed onto the path once every extent has arrived, and removed
    after an error, so the path is left as it was. No file-sized Python
    object is made unless the path cannot be replaced (a device or FIFO,
    say; see there).

    Every view of ``target`` is released on every exit, so no traceback
    keeps it exported and a memory map can be closed.
    """
    _check(exnode)
    if isinstance(target, (str, os.PathLike)):
        with _file_buffer(target, exnode.total_length) as buffer:
            download_to(exnode, buffer, parallelism=parallelism, timeout_ms=timeout_ms)
        return
    with memoryview(target).cast("B") as view:
        if len(view) != exnode.total_length:
            raise ValueError(f"buffer of {len(view)} bytes for a file of {exnode.total_length}")

        def fetch(extent: Extent) -> None:
            # A replica that fails part way leaves bytes in the range; the
            # next one overwrites all of it.
            failures = []
            with view[extent.offset : extent.offset + extent.length] as part:
                for replica in extent.replicas:
                    try:
                        with session(replica.depot_addr, timeout_ms) as cli:
                            result = cli.load(replica.read, replica.base, extent.length, into=part)
                        if not result.unknown_state:
                            return
                        failures.append(f"{replica.depot_addr}: unknown-state bytes")
                    except EbpError as exc:
                        failures.append(f"{replica.depot_addr}: {exc.code}")
            raise ExtentUnavailable(
                f"logical range [{extent.offset}, {extent.offset + extent.length})"
                f" unavailable: {'; '.join(failures)}"
            )

        with ThreadPoolExecutor(max_workers=max(1, parallelism)) as pool:
            for maybe_error in pool.map(fetch, exnode.extents):
                _ = maybe_error  # exceptions re-raise from map


@contextmanager
def _file_buffer(target, length: int) -> Iterator:
    """A writable buffer of ``length`` bytes that becomes the file at
    ``target`` when the block exits cleanly; after an error ``target`` is
    left as it was.

    For a new or regular file the buffer is a memory map of a temporary file
    ``<path>.<8 hex>.part`` beside it, its space reserved up front (so a full
    disk fails here, not as a fault in the map), flushed and renamed onto the
    path. A replaced file's mode, and its owner where permitted, carry over;
    a symlink stays and its target is replaced. A zero-length file is created
    and not mapped. A path that must not be replaced (a device, FIFO or
    terminal), or a regular file in a directory the caller cannot write,
    gets a ``bytearray`` that is written to it in place afterwards, as
    ``open(target, "wb")`` did before.
    """
    path = os.path.realpath(target)
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    fd = None
    if st is None or stat.S_ISREG(st.st_mode):
        # O_EXCL under a random name: no two downloads share a temporary file.
        temp = f"{path}.{secrets.token_hex(4)}.part"
        try:
            fd = os.open(temp, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600 if st else 0o666)
        except PermissionError:
            if st is None:
                raise
    if fd is None:
        buffer = bytearray(length)
        yield buffer
        with open(target, "wb") as fh:
            fh.write(buffer)
        return
    try:
        if st is not None:
            with suppress(OSError):
                os.fchown(fd, st.st_uid, st.st_gid)
            os.fchmod(fd, stat.S_IMODE(st.st_mode))
        if length:
            os.posix_fallocate(fd, 0, length)
            with mmap.mmap(fd, length) as mapped:
                yield mapped
                mapped.flush()
        else:
            yield bytearray()
        os.replace(temp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(temp)
        raise
    finally:
        os.close(fd)


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

    New replicas go on ``depots`` in list order by upload's placement rule,
    each filled by a surviving replica's depot TRANSFERring the extent to it.
    Extents already at ``k`` are returned untouched (dead replica entries and
    all); repaired extents keep only live replicas plus the new ones. A failed
    repair (ExtentUnavailable, InsufficientDepots) releases what it placed.
    """
    _check(exnode)
    extents = []
    with _Call(timeout_ms, lease_s, hardness) as call:
        for extent in exnode.extents:
            live = tuple(r for r in extent.replicas if _alive(call, r, extent.length))
            if len(live) >= k:
                extents.append(extent)
                continue
            if not live:
                raise ExtentUnavailable(
                    f"logical range [{extent.offset}, {extent.offset + extent.length})"
                    " has no live replica to copy from"
                )

            def transfer(_cli, caps, source=live[0], length=extent.length) -> None:
                with call.session(source.depot_addr) as src:
                    src.transfer(source.read, source.base, caps.write, 0, length)

            extents.append(_place(call, replace(extent, replicas=live), depots, k, transfer))
    return replace(exnode, extents=tuple(extents))


def release_all(exnode: ExNode, *, timeout_ms: int = 5000) -> int:
    """Best-effort release of every replica holding a manage capability."""
    pairs = [(r.depot_addr, r.manage) for e in exnode.extents for r in e.replicas if r.manage]
    return _Call(timeout_ms).release(pairs)


class _Call:
    """What one upload, repair or release_all shares across its extents and
    worker threads: its settings, the replicas it placed, and the depots it
    found unreachable. Used as a context manager, it releases every replica
    it placed when the call fails, since no exNode will name them."""

    def __init__(
        self, timeout_ms: int, lease_s: int = DEFAULT_LEASE_S, hardness: Hardness = Hardness.SOFT
    ):
        self.timeout_ms, self.lease_s, self.hardness = timeout_ms, lease_s, hardness
        self.placed: list = []  # (address, manage cap) of every filled replica
        self._unreachable: dict = {}  # address -> the error that showed it
        self._lock = threading.Lock()

    @contextmanager
    def session(self, addr: str) -> Iterator:
        """A pooled session to ``addr``, or, once ``addr`` proved unreachable,
        its error again without a connection attempt. Only this session's own
        Timeout or ConnectionLost marks ``addr``: one that could not open or
        that a request left out of sync, not one passing through from a
        session opened inside it, as repair's TRANSFER source is."""
        with self._lock:
            known = self._unreachable.get(addr)
        if known is not None:
            raise type(known)(known.message)
        cli = None
        try:
            with session(addr, self.timeout_ms) as cli:
                yield cli
        except EbpError as exc:
            if exc.code in ("ConnectionLost", "Timeout") and (cli is None or not cli.in_sync):
                with self._lock:
                    self._unreachable.setdefault(addr, exc)
            raise

    def release(self, placed: list) -> int:
        """Best-effort release of ``(depot address, manage capability)``
        pairs; returns how many were released."""
        released = 0
        for addr, manage in placed:
            with suppress(EbpError), self.session(addr) as cli:
                cli.release(manage)
                released += 1
        return released

    def __enter__(self) -> "_Call":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if exc is not None:
            self.release(self.placed)


def _place(call: _Call, extent: Extent, candidates, k: int, fill) -> Extent:
    """``extent`` with new replicas added to those it holds, on ``candidates``
    in order, until it has ``k``. Each new replica is an allocation on a depot
    that holds none yet, filled by ``fill(cli, caps)`` over that depot's
    session; one whose fill fails is released. Raises InsufficientDepots,
    naming the last error, when ``k`` is out of reach."""
    replicas = list(extent.replicas)
    last_error: Optional[EbpError] = None
    for addr in candidates:
        if len(replicas) >= k:
            break
        if any(r.depot_addr == addr for r in replicas):
            continue
        caps = None
        try:
            with call.session(addr) as cli:
                caps = cli.allocate(extent.length, call.lease_s, call.hardness)
                fill(cli, caps)
        except EbpError as exc:
            last_error = exc
            if caps is not None:  # allocated but never filled
                call.release([(addr, caps.manage)])
            continue
        call.placed.append((addr, caps.manage))
        replicas.append(Replica(addr, caps.read, caps.write, caps.manage))
    if len(replicas) < k:
        detail = f"; last error: {last_error.code}: {last_error.message}" if last_error else ""
        raise InsufficientDepots(f"extent at {extent.offset}: {len(replicas)} of {k} replicas{detail}")
    return replace(extent, replicas=tuple(replicas))


def _alive(call: _Call, replica: Replica, length: int) -> bool:
    """Whether reading the extent's last byte works and is unflagged: the
    allocation exists, its lease is current, the range is whole and trusted."""
    try:
        with call.session(replica.depot_addr) as cli:
            result = cli.load(replica.read, replica.base + max(0, length - 1), min(length, 1))
        return not result.unknown_state
    except EbpError:
        return False


def _check(exnode: ExNode) -> None:
    problems = validate(exnode)
    if problems:
        raise ValidationFailed("; ".join(problems))
