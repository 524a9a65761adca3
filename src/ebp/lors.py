"""File-level runtime over exNodes: upload, download, repair.

Upload splits a byte sequence into fixed-size chunks: views of the caller's
bytes, or read from a file by offset inside the worker that stores them, so
at most ``parallelism`` chunks of a file are in memory. Download receives
each extent straight into its range of the target: a new ``bytearray``
(``download``), a caller's buffer, or, for a file path, a memory map of a
temporary file beside it that replaces the path only once every extent has
arrived; a device or FIFO is written in place instead, never replaced.

Every call reaches the depots through one ``_Call``, which keeps three rules
once each:
- a depot whose own session hit ``Timeout`` or ``ConnectionLost`` gets no
  further connection attempt in that call, and workers that reach a depot
  while the call's first session to it is open wait for its outcome, so a
  hung depot is dialed once per call;
- upload and download run extents on ``parallelism`` threads, and none
  starts after one has failed;
- a replica whose LOAD fails or returns bytes with the unknown-state flag
  has failed (``_verdict``), and such bytes are never returned. Download
  tries each extent's replicas in list order until one reads clean; repair
  keeps a replica only if its extent's last byte does, and judges every
  replica first, with one batch of 1-byte LOADs per depot.

Upload and repair place replicas by one walk (``_place``): extent ``i``'s
candidates are ``depots`` from position ``i mod len(depots)`` round to the
one before it, so placement is deterministic and a replica rebuilt while its
depot stays up lands back where upload put it. The walk skips depots that
hold the extent already, allocates, fills, and stops at ``k`` replicas.
Upload fills by STORE; repair fills by TRANSFER from a surviving replica, so
payload bytes never cross the repairing client's link. An allocation whose
fill fails is released, and so, when a call fails, is every replica it
placed; a repair that succeeds releases the dropped replicas not already
gone (best-effort).

The runtime is stateless: leases default to one hour and keeping them alive
is the policy daemon's job. Requests go through pooled ``client.session``s,
so consecutive operations on one depot share a connection.
"""

from __future__ import annotations

import mmap
import os
import secrets
import stat
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import replace
from typing import Iterator, Optional, Union

from .capability import Hardness
from .client import DEFAULT_TIMEOUT_MS, per_depot, session
from .errors import (
    ConnectionLost,
    EbpError,
    ExtentUnavailable,
    InsufficientDepots,
    NoSuchAllocation,
    ValidationFailed,
)
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
    parallelism: int = DEFAULT_PARALLELISM,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
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
    with _chunks_of(source) as (total, read), _Call(timeout_ms, lease_s) as call:
        if not total:
            return make_exnode(0, [], metadata)

        def place(index: int) -> Extent:
            offset = index * chunk_size
            chunk = read(offset, min(chunk_size, total - offset))
            extent = Extent(offset, len(chunk), ())
            return _place(call, extent, depots, index, k, lambda cli, caps: cli.store(caps.write, 0, chunk))

        extents = call.map(place, range(-(-total // chunk_size)), parallelism)
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
            raise OSError(f"{source} changed size during upload")
        return chunk

    try:
        yield os.fstat(fd).st_size, read
    finally:
        os.close(fd)


def download(
    exnode: ExNode,
    *,
    parallelism: int = DEFAULT_PARALLELISM,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> bytearray:
    """Reassemble the full file into a new ``bytearray`` and return it:
    exact bytes or ExtentUnavailable. The returned buffer is the only
    file-sized one; ``download_to`` fills one the caller owns, or a file."""
    _check(exnode)  # before total_length sizes the buffer
    buffer = bytearray(exnode.total_length)
    _fetch(exnode, buffer, parallelism, timeout_ms)
    return buffer


def download_to(
    exnode: ExNode,
    target: Union[bytearray, memoryview, mmap.mmap, str, os.PathLike],
    *,
    parallelism: int = DEFAULT_PARALLELISM,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> None:
    """Receive the file into ``target``: a writable buffer of exactly
    ``total_length`` bytes, whose contents are undefined after an error, or a
    file path, left as it was after an error (see ``_file_buffer``). Raises
    ExtentUnavailable, naming the range, when an extent has no replica that
    serves it whole and clean."""
    _check(exnode)
    path = isinstance(target, (str, os.PathLike))
    with _file_buffer(target, exnode.total_length) if path else nullcontext(target) as buffer:
        _fetch(exnode, buffer, parallelism, timeout_ms)


def _fetch(exnode: ExNode, target, parallelism: int, timeout_ms: int) -> None:
    """Receive a validated ``exnode`` into ``target``. Every view of it is
    released on every exit, so no traceback keeps it exported and a memory
    map can be closed."""
    with memoryview(target).cast("B") as view, _Call(timeout_ms) as call:
        if len(view) != exnode.total_length:
            raise ValueError(f"buffer of {len(view)} bytes for a file of {exnode.total_length}")

        def fetch(extent: Extent) -> None:
            # A replica that fails part way leaves bytes in the range; the
            # next one overwrites all of it.
            failures = []
            with view[extent.offset : extent.offset + extent.length] as part:
                for replica in extent.replicas:
                    try:
                        with call.session(replica.depot_addr) as cli:
                            why = _verdict(cli.load(replica.read, replica.base, extent.length, part))
                    except EbpError as exc:
                        why = exc.code
                    if why is None:
                        return
                    failures.append(f"{replica.depot_addr}: {why}")
            raise ExtentUnavailable(
                f"logical range [{extent.offset}, {extent.offset + extent.length})"
                f" unavailable: {'; '.join(failures)}"
            )

        call.map(fetch, exnode.extents, parallelism)


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
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> ExNode:
    """Bring every extent back to >= k live replicas; returns a new exNode.

    A replica is live when its extent's last byte loads clean; every replica
    is judged first, by one batch of 1-byte LOADs per depot. Extent ``i``'s
    new replicas then go on ``depots`` walked from position ``i``, as upload
    places chunk ``i``, each filled by a surviving replica's depot
    TRANSFERring the extent to it. Extents already at ``k`` are returned
    untouched (dead replica entries and all); repaired extents keep only live
    replicas plus the new ones, and the replicas they drop are released
    unless their LOAD said NoSuchAllocation. A failed repair
    (ExtentUnavailable, InsufficientDepots) releases what it placed and none
    that it dropped.
    """
    _check(exnode)
    extents, dropped = [], []
    with _Call(timeout_ms, lease_s) as call:
        results = per_depot(
            [(r, e.length) for e in exnode.extents for r in e.replicas],
            lambda item: item[0].depot_addr,
            lambda cli, group: cli.load_many([(r.read, r.base + n - 1, 1) for r, n in group]),
            call.session,
        )
        verdicts = map(_verdict, results)
        for index, extent in enumerate(exnode.extents):
            checked = [(r, next(verdicts)) for r in extent.replicas]
            live = tuple(r for r, why in checked if why is None)
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

            extents.append(_place(call, replace(extent, replicas=live), depots, index, k, transfer))
            # An allocation already gone needs no release; an expired one does.
            dropped += (r for r, why in checked if why not in (None, NoSuchAllocation.code))
        # Only the caller's exNode names the dropped replicas now; had the
        # repair failed, it would still need them.
        call.release([(r.depot_addr, r.manage) for r in dropped if r.manage])
    return replace(exnode, extents=tuple(extents))


def release_all(exnode: ExNode, *, timeout_ms: int = DEFAULT_TIMEOUT_MS) -> int:
    """Best-effort release of every replica holding a manage capability."""
    pairs = [(r.depot_addr, r.manage) for e in exnode.extents for r in e.replicas if r.manage]
    return _Call(timeout_ms).release(pairs)


class _Call:
    """What one upload, download, repair or release_all shares across its
    extents and worker threads: its settings, the replicas it placed, and the
    depots it found unreachable. Used as a context manager, it releases every
    replica it placed when the call fails, since no exNode will name them."""

    def __init__(self, timeout_ms: int, lease_s: int = DEFAULT_LEASE_S):
        self.timeout_ms, self.lease_s = timeout_ms, lease_s
        self.placed: list = []  # (address, manage cap) of every filled replica
        self._unreachable: dict = {}  # address -> the error that showed it
        self._reached: dict = {}  # address -> Event set once the first session to it ended
        self._lock = threading.Lock()

    @contextmanager
    def session(self, addr: str) -> Iterator:
        """A pooled session to ``addr``, or, once ``addr`` proved unreachable,
        its error again without a connection attempt. The call's first
        session to ``addr`` runs alone: a worker that asks for ``addr`` before
        it has ended waits for it, so a hung depot is dialed once per call,
        not once per worker; so no session to ``addr`` may open inside that
        first one. Only this session's own Timeout or
        ConnectionLost marks ``addr``: one that could not open, that a request
        closed or that a batch closed, not one passing through from a session
        opened inside it, as repair's TRANSFER source is."""
        with self._lock:
            first = self._reached.get(addr)
            if first is None:
                self._reached[addr] = reached = threading.Event()
        if first is not None:
            first.wait()
        unreachable = None  # a copy of the error that shows it, without its traceback
        try:
            with self._lock:
                known = self._unreachable.get(addr)
            if known is not None:
                raise type(known)(known.message)
            cli = None
            try:
                with session(addr, self.timeout_ms) as cli:
                    yield cli
            except EbpError as exc:
                if exc.code in ("ConnectionLost", "Timeout") and (cli is None or cli.closed):
                    unreachable = type(exc)(exc.message)
                raise
            if cli.closed:  # a batch met a Timeout or ConnectionLost and returned it
                unreachable = ConnectionLost(f"a batch against {addr} lost its session")
        finally:
            if unreachable is not None:
                with self._lock:
                    self._unreachable.setdefault(addr, unreachable)
            if first is None:
                reached.set()

    def map(self, fn, items, parallelism: int) -> list:
        """``[fn(item) for item in items]`` on ``parallelism`` threads. After
        a failure no item starts; the first failure in item order is raised
        once the items in flight have finished, so none outlives the call."""
        failed = threading.Event()

        def run(item):
            if failed.is_set():
                return None  # never seen: an earlier item's failure is raised
            try:
                return fn(item)
            except BaseException:
                failed.set()
                raise

        with ThreadPoolExecutor(max_workers=max(1, parallelism)) as pool:
            return list(pool.map(run, items))

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


def _place(call: _Call, extent: Extent, depots: list, start: int, k: int, fill) -> Extent:
    """``extent`` with new replicas added to those it holds until it has
    ``k``, on ``depots`` walked round from position ``start`` (modulo their
    number): the one walk of upload and repair. Each new replica is a soft
    allocation on a depot that holds none yet, filled by ``fill(cli, caps)``
    over that depot's session; one whose fill fails is released. Raises
    InsufficientDepots, naming the last error, when ``k`` is out of reach."""
    replicas = list(extent.replicas)
    last_error: Optional[EbpError] = None
    for j in range(len(depots)):
        addr = depots[(start + j) % len(depots)]
        if len(replicas) >= k:
            break
        if any(r.depot_addr == addr for r in replicas):
            continue
        caps = None
        try:
            with call.session(addr) as cli:
                caps = cli.allocate(extent.length, call.lease_s, Hardness.SOFT)
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


def _verdict(result) -> Optional[str]:
    """None for a LoadResult without the unknown-state flag, else why its
    replica failed: an EbpError's code or "unknown-state bytes". The one
    rule by which download and repair judge a replica; such bytes are never
    returned."""
    if isinstance(result, EbpError):
        return result.code
    return "unknown-state bytes" if result.unknown_state else None


def _check(exnode: ExNode) -> None:
    problems = validate(exnode)
    if problems:
        raise ValidationFailed("; ".join(problems))
