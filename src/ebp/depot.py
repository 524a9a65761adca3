"""In-process depot: allocation table, lease clock, admission, preemption.

The depot serves leased, size-bounded byte buffers named only by unforgeable
capabilities. Design points that matter for correctness:

* Admission is pure accounting. Hard allocations reserve physical capacity
  (``sum_hard <= total_capacity``); soft allocations reserve against an
  overbooked pool (``sum_hard + sum_soft <= overbook_factor * total_capacity``);
  best-effort allocations reserve nothing and are admitted only against bytes
  physically in use at the moment of the call. An admitted hard reservation
  that squeezes the overbooked pool evicts soft reservations (earliest expiry
  first) until the combined bound holds again, so both pool invariants hold at
  every instant.

* Physical bytes are committed lazily as stores extend an allocation's high
  watermark, never at admission time. Overbooked soft reservations therefore
  collide only when actually used: a growth that finds too few free bytes
  preempts others (``_commit_growth`` calls ``_preempt_locked``). Victims are
  reclaimed strictly in tier order best-effort first, then soft, never hard;
  within a tier earliest expiry wins, ties broken by smallest alloc_id.

* Leases ride the server's monotonic clock. Expired allocations are reclaimed
  lazily by ``sweep_leases`` (periodic, plus opportunistically when admission
  fails); between expiry and sweep, operations fail ``Expired``. PROBE and
  RENEW answer the milliseconds left, never an expiry on this clock, so the
  depot returns in process what ``DepotClient`` returns over the wire.

* A store that faults mid-write leaves the buffer in an unknown state: the
  allocation is poisoned and subsequent loads carry ``unknown_state=True``
  until a full-capacity overwrite clears the flag.

* Released buffers are recycled. When an allocation is reclaimed (release,
  sweep or preemption) its backing buffer, if at least ``_RECYCLE_MIN``
  bytes, goes to a depot-wide free store, and a new allocation's first growth
  takes a free buffer of exactly its capacity, so stored bytes land in memory
  that is already mapped instead of faulting in fresh pages. Accounting stays
  logical: ``bytes_in_use`` counts committed bytes, never the size of the
  buffer behind them. Physical memory is bounded apart from it: the backing
  buffers of live allocations (``held``, which exceeds ``bytes_in_use`` by the
  unfilled part of recycled buffers) plus the free store stay within
  ``total_capacity``. Growth that would pass the bound drops free buffers
  (largest first), then gives back the unfilled parts of recycled buffers;
  it never preempts anyone for them. An allocation that a load or store holds at
  that moment keeps its unfilled part until a later growth finds it idle,
  so the bound can be passed by that much for a while. A recycled buffer never
  shows its previous tenant's bytes: every byte in ``[0, used)`` is written
  by the allocation or zero, since a store that starts past ``used`` zeroes
  the gap and a write that faults zeroes its unreached tail beyond the old
  ``used``. A buffer is recycled only when reclamation can take the
  allocation's lock without waiting; otherwise a store may still be writing
  into it, and it is dropped.

* Bytes cross the depot once each way. ``store`` takes a bytes-like
  payload or a lazy one that receives off the socket straight into the
  allocation, a slice at a time, under the allocation's lock (the server
  bounds that wait on the sender with its transfer timeout). ``lend`` lends
  a read-only view of a range under the lock, and the server sends a stream
  LOAD reply or a remote TRANSFER piece from it: only what the socket takes
  at once goes out under the lock, and the rest is copied and sent once the
  lock is released. So the lock never waits on a receiver: a read-cap
  holder who stops reading never blocks the allocation's writers, and two
  opposite TRANSFERs never wait on each other's locks. ``load`` copies its
  range through ``lend``, for every other reader.

Conflicting stores to one allocation serialize on a per-allocation lock;
operations on distinct allocations may proceed concurrently, and the lease
sweeper may run concurrently with request handlers.
"""

from __future__ import annotations

import hmac
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .capability import Capability, CapabilitySet, Hardness, Kind, new_key
from .errors import (
    AdmissionDenied,
    BadCapability,
    Expired,
    NoSuchAllocation,
    OutOfRange,
    ResourceExhausted,
    SizeLimitExceeded,
)

DEFAULT_MAX_ALLOC_SIZE = 16 * 1024 * 1024
DEFAULT_MAX_DURATION = 86400.0
DEFAULT_OVERBOOK_FACTOR = 1.5

# Stores are applied in slices so that injected faults and concurrent readers
# observe a bounded window, not the whole payload.
_STORE_SLICE = 256 * 1024

# Released buffers at least this large are kept for reuse; smaller ones go
# back to malloc, whose own free lists serve them without new pages.
_RECYCLE_MIN = 64 * 1024


def from_json_fields(cls, path: str, what: str):
    """The dataclass ``cls`` built from the JSON object in file ``path``,
    which must name only ``cls``'s fields and every field with no default;
    ``ValueError`` names ``what`` the file holds otherwise."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{what} requires {f.name}")
    return cls(**doc)


@dataclass
class DepotConfig:
    """Static limits of one depot.

    ``overbook_factor`` applies only to the soft admission pool; hard
    reservations are never overbooked.
    """

    total_capacity: int
    max_alloc_size: int = DEFAULT_MAX_ALLOC_SIZE
    max_duration: float = DEFAULT_MAX_DURATION
    overbook_factor: float = DEFAULT_OVERBOOK_FACTOR
    listen_addr: str = "127.0.0.1:0"

    def __post_init__(self):
        for name in ("total_capacity", "max_alloc_size", "max_duration", "overbook_factor"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if not isinstance(self.listen_addr, str):
            raise ValueError("listen_addr must be a string")

    @classmethod
    def from_json_file(cls, path: str) -> "DepotConfig":
        return from_json_fields(cls, path, "depot config")


class DepotStats(NamedTuple):
    sum_hard: int
    sum_soft: int
    bytes_in_use: int
    live_allocations: int
    preemptions: dict  # Hardness -> victims reclaimed from that tier, in Hardness order


class LoadResult(NamedTuple):
    data: Union[bytes, bytearray, memoryview]  # a client's is its receive buffer
    unknown_state: bool


class ProbeInfo(NamedTuple):
    capacity: int
    used: int
    expires_in_ms: int
    hardness: Hardness


@dataclass
class _Allocation:
    alloc_id: int
    capacity: int
    hardness: Hardness
    expiry: float
    keys: dict  # Kind -> hex key
    used: int = 0
    committed: int = 0  # bytes counted in bytes_in_use
    buf: bytearray = field(default_factory=bytearray)  # backing; len >= committed
    poisoned: bool = False
    dead: bool = False
    # Not reentrant: reclamation must fail to take it from a thread that is
    # mid-write, including the writing thread itself.
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def data(self) -> memoryview:
        """The committed bytes, as a view of the backing buffer."""
        return memoryview(self.buf)[: self.committed]


class _FreeStore:
    """Released buffers by size; the depot's table lock guards it."""

    def __init__(self):
        self.bufs: dict = {}  # size -> [bytearray]
        self.nbytes = 0

    def take(self, size: int) -> bytearray:
        """A buffer of exactly ``size`` bytes, else a new empty one."""
        bufs = self.bufs.get(size)
        if not bufs:
            return bytearray()
        if len(bufs) == 1:
            del self.bufs[size]
        self.nbytes -= size
        return bufs.pop()

    def put(self, buf: bytearray) -> None:
        self.bufs.setdefault(len(buf), []).append(buf)
        self.nbytes += len(buf)

    def trim(self, room: int) -> None:
        """Drop the largest buffers until at most ``room`` bytes are kept."""
        while self.bufs and self.nbytes > room:
            self.take(max(self.bufs))


class Depot:
    """One depot's allocation table and accounting, no networking attached."""

    def __init__(
        self,
        config: DepotConfig,
        *,
        addr: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config
        self.addr = addr or config.listen_addr
        self._clock = clock
        self._lock = threading.RLock()
        self._table: dict[int, _Allocation] = {}
        self._next_id = 1
        self._sum_hard = 0
        self._sum_soft = 0
        self._bytes_in_use = 0
        self._held = 0  # sum of len(alloc.buf) over the table
        self._free = _FreeStore()
        self._preemptions = {tier: 0 for tier in Hardness}
        # Test/fault-injection hook: called as hook(alloc_id, bytes_written)
        # between store slices; raising poisons the allocation.
        self.store_fault_hook: Optional[Callable[[int, int], None]] = None

    # ------------------------------------------------------------------ admin

    def stats(self) -> DepotStats:
        with self._lock:
            return DepotStats(
                sum_hard=self._sum_hard,
                sum_soft=self._sum_soft,
                bytes_in_use=self._bytes_in_use,
                live_allocations=len(self._table),
                preemptions=dict(self._preemptions),
            )

    # ------------------------------------------------------------- allocation

    def allocate(self, capacity: int, duration: float, hardness: Hardness) -> CapabilitySet:
        """Admit a new lease and mint its three capabilities.

        Admission: hard iff ``sum_hard + capacity <= total_capacity``;
        soft iff ``sum_hard + sum_soft + capacity <= overbook_factor *
        total_capacity``; best-effort iff ``bytes_in_use + capacity <=
        total_capacity`` right now, with no reservation held.
        """
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if duration < 1:
            raise ValueError("duration must be >= 1")
        if capacity > self.config.max_alloc_size:
            raise SizeLimitExceeded(
                f"capacity {capacity} exceeds max_alloc_size {self.config.max_alloc_size}"
            )
        with self._lock:
            now = self._clock()
            if not self._admits(capacity, hardness):
                # Expired-but-unswept allocations may be pinning the pools.
                self._sweep_locked(now)
                if not self._admits(capacity, hardness):
                    raise AdmissionDenied(
                        f"{hardness.value} allocation of {capacity} bytes denied"
                    )
            if hardness is Hardness.HARD:
                self._squeeze_soft_pool_locked(capacity)
            alloc_id = self._next_id
            self._next_id += 1
            keys = {kind: new_key() for kind in Kind}
            alloc = _Allocation(
                alloc_id=alloc_id,
                capacity=capacity,
                hardness=hardness,
                expiry=now + min(duration, self.config.max_duration),
                keys=keys,
            )
            self._table[alloc_id] = alloc
            if hardness is Hardness.HARD:
                self._sum_hard += capacity
            elif hardness is Hardness.SOFT:
                self._sum_soft += capacity
            return CapabilitySet(
                read=self._cap(alloc_id, Kind.READ, keys),
                write=self._cap(alloc_id, Kind.WRITE, keys),
                manage=self._cap(alloc_id, Kind.MANAGE, keys),
            )

    def _cap(self, alloc_id: int, kind: Kind, keys: dict) -> Capability:
        return Capability(depot_addr=self.addr, alloc_id=alloc_id, kind=kind, key=keys[kind])

    def _admits(self, capacity: int, hardness: Hardness) -> bool:
        cfg = self.config
        if hardness is Hardness.HARD:
            return self._sum_hard + capacity <= cfg.total_capacity
        if hardness is Hardness.SOFT:
            return self._sum_hard + self._sum_soft + capacity <= cfg.overbook_factor * cfg.total_capacity
        return self._bytes_in_use + capacity <= cfg.total_capacity

    def _squeeze_soft_pool_locked(self, incoming_hard: int) -> None:
        # A hard reservation dominates the overbooked pool: soft reservations
        # are evicted (earliest expiry, then smallest id) until
        # sum_hard + sum_soft stays within overbook_factor * total_capacity.
        # Eviction always suffices because sum_hard + incoming <= total.
        budget = self.config.overbook_factor * self.config.total_capacity
        while self._sum_hard + incoming_hard + self._sum_soft > budget:
            victims = [a for a in self._table.values() if a.hardness is Hardness.SOFT]
            victim = min(victims, key=lambda a: (a.expiry, a.alloc_id))
            self._preemptions[Hardness.SOFT] += 1
            self._reclaim_locked(victim)

    def probe(self, cap: Capability) -> ProbeInfo:
        with self._lock:
            alloc = self._authorize(cap, Kind.MANAGE)
            left = _ms_left(alloc.expiry, self._clock())
            return ProbeInfo(alloc.capacity, alloc.used, left, alloc.hardness)

    def authorize(self, cap: Capability, kind: Kind) -> None:
        """Raise unless ``cap`` is a ``kind`` capability for a live allocation
        whose lease has not expired."""
        with self._lock:
            self._authorize(cap, kind)

    def used(self, cap: Capability) -> int:
        """Bytes defined in the allocation a read capability names."""
        with self._lock:
            return self._authorize(cap, Kind.READ).used

    def renew(self, cap: Capability, extension: float) -> int:
        """Extend a lease, never below its old expiry; returns the
        milliseconds left."""
        if extension < 1:
            raise ValueError("extension must be >= 1")
        with self._lock:
            alloc = self._authorize(cap, Kind.MANAGE)
            now = self._clock()
            alloc.expiry = max(alloc.expiry, now + min(extension, self.config.max_duration))
            return _ms_left(alloc.expiry, now)

    def release(self, cap: Capability) -> None:
        with self._lock:
            alloc = self._lookup(cap)
            self._check_key(cap, alloc, Kind.MANAGE)
            self._reclaim_locked(alloc)

    def mark_unknown(self, cap: Capability) -> None:
        """Flag the allocation poisoned (write or manage capability required).

        Used by the transport layer when a write was interrupted before the
        depot saw the full payload, and by the transform engine on faults.
        """
        with self._lock:
            alloc = self._table.get(cap.alloc_id)
            if alloc is None or alloc.dead:
                return
            if cap.kind not in (Kind.WRITE, Kind.MANAGE):
                raise BadCapability("write or manage capability required")
            self._check_key(cap, alloc, cap.kind)
            alloc.poisoned = True

    # ------------------------------------------------------------------ bytes

    def store(self, cap: Capability, offset: int, payload) -> int:
        """Write ``payload`` at ``offset``; returns bytes written.

        ``payload`` is bytes-like, or lazy: an object with ``len()`` and a
        ``readinto(view)`` that fills the view with its next bytes (the
        server's ``wire.Payload``, received off the socket into the
        allocation under its lock). Both go through one write loop, and a
        refusal comes before any byte is read.

        ``used`` advances to ``max(used, offset + len(payload))``. Growth of
        the physically committed region may preempt lower-tier victims; if the
        shortfall cannot be covered the store fails ``ResourceExhausted``
        before any byte is written. A fault raised mid-write, a lazy payload
        cut off included, poisons the allocation and propagates.
        """
        if offset < 0:
            raise OutOfRange("negative offset")
        return self._write(cap, offset, payload, define=False)

    def transform_write(self, cap: Capability, result) -> int:
        """Whole-buffer write used by the transform engine.

        Unlike ``store``, the result *defines* the buffer: ``used`` is set to
        exactly ``len(result)`` (a transform may extend or shrink the defined
        region, up to capacity). The poison flag clears only when the result
        covers the full capacity.
        """
        return self._write(cap, 0, result, define=True)

    def _write(self, cap: Capability, offset: int, payload, define: bool) -> int:
        """The one write path of ``store`` and ``transform_write``: ``used``
        becomes the write's end when ``define`` is set, else at least that."""
        end = offset + len(payload)
        with self._lock:
            alloc = self._authorize(cap, Kind.WRITE)
            if end > alloc.capacity:
                raise OutOfRange(f"write [{offset}, {end}) exceeds capacity {alloc.capacity}")
        # Lock order is always allocation lock first, table lock nested inside
        # (growth accounting); the table lock is never held while waiting on an
        # allocation lock.
        with alloc.lock:
            if alloc.dead:
                raise NoSuchAllocation("allocation reclaimed during write")
            old_used = alloc.used
            self._commit_growth(alloc, end)
            # Advance the watermark before writing: a fault mid-write leaves
            # the whole attempted range readable in unknown state.
            alloc.used = end if define else max(old_used, end)
            if offset > old_used:
                alloc.buf[old_used:offset] = bytes(offset - old_used)
            self._write_slices(alloc, offset, payload, old_used)
            if alloc.poisoned and offset == 0 and len(payload) == alloc.capacity:
                alloc.poisoned = False  # whole-buffer overwrite re-defines the state
            if alloc.dead:
                raise NoSuchAllocation("allocation reclaimed during write")
            return len(payload)

    def _commit_growth(self, alloc: _Allocation, size: int) -> None:
        # Caller holds alloc.lock; bytes_in_use and alloc.committed move
        # together under the table lock so reclamation accounting stays exact.
        delta = size - alloc.committed
        if delta <= 0:
            return
        with self._lock:
            if alloc.dead:
                raise NoSuchAllocation("allocation reclaimed during write")
            total = self.config.total_capacity
            free = total - self._bytes_in_use
            if free < delta:
                self._preempt_locked(delta - free, alloc.hardness)
            if alloc.committed == 0 and alloc.capacity >= _RECYCLE_MIN:
                alloc.buf = self._free.take(alloc.capacity)
                self._held += len(alloc.buf)
            grow = size - len(alloc.buf)
            if grow > 0:
                self._free.trim(total - self._held - grow)
                if self._held + grow > total:
                    self._shed_locked(self._held + grow - total)
                alloc.buf.extend(bytes(grow))
                self._held += grow
            alloc.committed = size
            self._bytes_in_use += delta

    def _shed_locked(self, excess: int) -> None:
        """Give back the unfilled parts of recycled buffers, largest first,
        until ``excess`` bytes are gone. An allocation whose lock is held (a
        load or store in progress) keeps its buffer."""
        for alloc in sorted(self._table.values(), key=lambda a: a.committed - len(a.buf)):
            slack = len(alloc.buf) - alloc.committed
            if excess <= 0 or slack == 0:
                return
            if alloc.lock.acquire(blocking=False):
                alloc.buf = alloc.buf[: alloc.committed]
                alloc.lock.release()
                self._held -= slack
                excess -= slack

    def _write_slices(self, alloc: _Allocation, offset: int, payload, defined: int) -> None:
        """Write ``payload`` at ``offset`` a slice at a time: copy a
        bytes-like payload, or have a lazy one receive straight into the
        buffer. ``defined`` is ``used`` before the write: a fault poisons the
        allocation and zeroes the bytes past ``defined`` that the write did
        not finish, so a recycled buffer shows nobody else's bytes."""
        buf, size = alloc.buf, len(payload)
        readinto = getattr(payload, "readinto", None)
        source = None if readinto else memoryview(payload)
        pos = 0
        # Views of buf are released before the lock is: a live export would
        # make the next growth of alloc.buf fail.
        with memoryview(buf) as target:
            try:
                while pos < size:
                    start, n = offset + pos, min(_STORE_SLICE, size - pos)
                    if source is None:
                        with target[start : start + n] as slot:
                            readinto(slot)
                    else:
                        buf[start : start + n] = source[pos : pos + n]
                    pos += n
                    if self.store_fault_hook is not None:
                        self.store_fault_hook(alloc.alloc_id, pos)
            except BaseException:
                alloc.poisoned = True
                start, end = max(defined, offset + pos), offset + size
                if start < end:
                    buf[start:end] = bytes(end - start)
                raise

    @contextmanager
    def lend(self, cap: Capability, offset: int, length: int) -> Iterator[tuple]:
        """Lend ``(view, unknown_state)`` for ``length`` bytes from
        ``offset``, with ``load``'s checks: ``view`` is a read-only view of
        the allocation's own bytes, valid inside the ``with`` block, which
        holds the allocation's lock. So the borrower must not wait on
        anything there, a peer least of all, and must release every view it
        makes of ``view`` before the block ends, on every path: a live export
        would make the next growth of the buffer fail.
        """
        if offset < 0 or length < 0:
            raise OutOfRange("negative offset or length")
        with self._lock:
            alloc = self._authorize(cap, Kind.READ)
        with alloc.lock:
            if alloc.dead:
                raise NoSuchAllocation("allocation reclaimed during load")
            if offset + length > alloc.used:
                raise OutOfRange(
                    f"load [{offset}, {offset + length}) exceeds used {alloc.used}"
                )
            with memoryview(alloc.buf)[offset : offset + length].toreadonly() as view:
                yield view, alloc.poisoned

    def load(self, cap: Capability, offset: int, length: int) -> LoadResult:
        """Read ``length`` bytes from ``offset``; never past ``used``.

        Bytes below ``used`` that were never written read as zero. The
        result is a copy made through ``lend``.
        """
        with self.lend(cap, offset, length) as (view, unknown):
            return LoadResult(bytes(view), unknown)

    # ----------------------------------------------------------------- leases

    def sweep_leases(self, now: Optional[float] = None) -> int:
        """Reclaim every allocation whose lease expired strictly before ``now``."""
        with self._lock:
            return self._sweep_locked(self._clock() if now is None else now)

    def _sweep_locked(self, now: float) -> int:
        expired = [a for a in self._table.values() if a.expiry < now]
        for alloc in sorted(expired, key=lambda a: a.alloc_id):
            self._reclaim_locked(alloc)
        return len(expired)

    def _preempt_locked(self, shortfall: int, requesting_tier: Hardness) -> None:
        """Reclaim victims from tiers strictly below ``requesting_tier`` until
        ``shortfall`` committed bytes are freed; if they cannot cover it,
        nobody is reclaimed and the growth fails ``ResourceExhausted``."""
        candidates = [
            a
            for a in self._table.values()
            if a.hardness.rank < requesting_tier.rank and a.committed > 0
        ]
        candidates.sort(key=lambda a: (a.hardness.rank, a.expiry, a.alloc_id))
        plan: list[_Allocation] = []
        freed = 0
        for victim in candidates:
            if freed >= shortfall:
                break
            plan.append(victim)
            freed += victim.committed
        if freed < shortfall:
            raise ResourceExhausted(
                f"need {shortfall} bytes; eligible victims hold only {freed}"
            )
        for victim in plan:
            self._preemptions[victim.hardness] += 1
            self._reclaim_locked(victim)

    def _reclaim_locked(self, alloc: _Allocation) -> None:
        del self._table[alloc.alloc_id]
        alloc.dead = True
        self._bytes_in_use -= alloc.committed
        if alloc.hardness is Hardness.HARD:
            self._sum_hard -= alloc.capacity
        elif alloc.hardness is Hardness.SOFT:
            self._sum_soft -= alloc.capacity
        self._held -= len(alloc.buf)
        room = self.config.total_capacity - self._held - self._free.nbytes
        # A lock held elsewhere means a write may still land in the buffer.
        if _RECYCLE_MIN <= len(alloc.buf) <= room and alloc.lock.acquire(blocking=False):
            buf, alloc.buf = alloc.buf, bytearray()
            alloc.lock.release()
            self._free.put(buf)

    # ------------------------------------------------------------ authorization

    def _lookup(self, cap: Capability) -> _Allocation:
        alloc = self._table.get(cap.alloc_id)
        if alloc is None or alloc.dead:
            raise NoSuchAllocation(f"allocation {cap.alloc_id} not found")
        return alloc

    @staticmethod
    def _check_key(cap: Capability, alloc: _Allocation, required: Kind) -> None:
        if cap.kind is not required:
            raise BadCapability(f"{required.value} capability required, got {cap.kind.value}")
        if not hmac.compare_digest(cap.key, alloc.keys[required]):
            raise BadCapability("key mismatch")

    def _authorize(self, cap: Capability, required: Kind) -> _Allocation:
        alloc = self._lookup(cap)
        self._check_key(cap, alloc, required)
        if alloc.expiry < self._clock():
            raise Expired(f"allocation {cap.alloc_id} lease expired")
        return alloc


def _ms_left(expiry: float, now: float) -> int:
    return max(0, int((expiry - now) * 1000))
