"""Resource-budgeted transforms executed next to the data they touch.

A transform applies one named operation from the fixed set ``OPS`` to buffers
that all live on the executing depot; it never opens a network connection.
Every run carries a budget over three dimensions -- wall-clock milliseconds,
peak scratch bytes, and I/O bytes (input reads plus output writes) --
enforced *during* execution, not merely checked up front.

Failure semantics are deliberately blunt: when a run ends in anything other
than ``OK``, every output allocation is poisoned and reads of it report
unknown state until a full-capacity overwrite. So is every output of a run
that read an input in unknown state, even one that ends ``OK``: its result
then reports ``outputs_state`` unknown. Callers detect and recover; the
depot promises nothing.

Operations are pure functions of their inputs and params. ``OPS`` holds
exactly: ``checksum-crc32``, ``checksum-sha256``, ``xor``, ``copy-range``,
``fill``, ``rle-compress``, ``rle-decompress``; any other name is
``UnknownOperation``. There is no code upload and no registration in process,
which keeps the execution surface auditable.
"""

from __future__ import annotations

import enum
import hashlib
import operator
import re
import threading
import time
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from types import MappingProxyType
from typing import Optional

from .capability import Kind
from .depot import Depot
from .errors import (
    BadCapability,
    EbpError,
    NotLocal,
    OutOfRange,
    UnknownOperation,
)

_CHUNK = 64 * 1024

@dataclass(frozen=True)
class ResourceBudget:
    max_wall_ms: int
    max_scratch_bytes: int
    max_io_bytes: int

    def __post_init__(self):
        if min(self.max_wall_ms, self.max_scratch_bytes, self.max_io_bytes) <= 0:
            raise ValueError("budget dimensions must be strictly positive")


@dataclass(frozen=True)
class TransformSpec:
    op_name: str
    inputs: tuple
    outputs: tuple
    params: dict
    budget: ResourceBudget


class TransformStatus(enum.Enum):
    OK = "ok"
    BUDGET_EXCEEDED = "budget_exceeded"
    OP_FAULT = "op_fault"


class OutputsState(enum.Enum):
    DEFINED = "defined"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class TransformResult:
    status: TransformStatus
    io_bytes_used: int
    wall_ms_used: int
    outputs_state: OutputsState


class _BudgetStop(Exception):
    status = TransformStatus.BUDGET_EXCEEDED


class _OpFault(Exception):
    status = TransformStatus.OP_FAULT


class OpContext:
    """Execution context handed to operations; all I/O and scratch flows
    through it so the budget meter sees every byte."""

    def __init__(self, depot: Depot, spec: TransformSpec):
        self._depot = depot
        self._spec = spec
        self.params = spec.params
        self._budget = spec.budget
        self._io_used = 0
        self._scratch = 0  # held until the op returns, so also the peak
        self._t0 = time.perf_counter()
        self.read_unknown = False  # some input read so far is unknown-state

    # ---- metering

    @property
    def io_bytes_used(self) -> int:
        return self._io_used

    def wall_ms_used(self) -> int:
        return int((time.perf_counter() - self._t0) * 1000)

    def _charge_io(self, n: int) -> None:
        if self._io_used + n > self._budget.max_io_bytes:
            raise _BudgetStop("io budget")
        self._io_used += n

    def check_wall(self) -> None:
        if self.wall_ms_used() > self._budget.max_wall_ms:
            raise _BudgetStop("wall budget")

    def charge_scratch(self, n: int) -> None:
        """Charge ``n`` more scratch bytes, held until the op returns."""
        self._scratch += n
        if self._scratch > self._budget.max_scratch_bytes:
            raise _BudgetStop("scratch budget")

    # ---- data plane

    @property
    def input_count(self) -> int:
        return len(self._spec.inputs)

    def input_size(self, i: int) -> int:
        return self._depot.used(self._spec.inputs[i])

    def read(self, i: int, offset: int, length: int) -> bytes:
        """Read one bounded chunk from an input; charged to the io budget."""
        self.check_wall()
        self._charge_io(length)
        data, unknown = self._depot.load(self._spec.inputs[i], offset, length)
        self.read_unknown = self.read_unknown or unknown
        return data

    def read_all(self, i: int):
        """Iterate an input front to back in budget-metered chunks; an empty
        input is one empty chunk."""
        size = self.input_size(i)
        for off in range(0, max(size, 1), _CHUNK):
            yield self.read(i, off, min(_CHUNK, size - off))

    def emit(self, i: int, result) -> None:
        """Define output ``i`` as exactly ``result``, any bytes-like object,
        written without a copy of its own; charged to the io budget."""
        self.check_wall()
        self._charge_io(len(result))
        try:
            self._depot.transform_write(self._spec.outputs[i], result)
        except OutOfRange as exc:
            raise _OpFault(str(exc)) from exc

    def fault(self, message: str):
        raise _OpFault(message)


class NfuEngine:
    """Executes transforms against one depot's allocations."""

    def __init__(self, depot: Depot):
        self.depot = depot
        self._serial_lock = threading.Lock()
        # alloc id -> [lock, transforms holding or waiting on it]; an entry
        # goes once its count drops to zero, so the map holds only live work.
        self._output_locks: dict[int, list] = {}

    def execute(self, spec: TransformSpec) -> TransformResult:
        fn = OPS.get(spec.op_name)
        if fn is None:
            raise UnknownOperation(f"no operation named {spec.op_name!r}")
        self._validate_caps(spec)
        with self._locks_for(spec.outputs):
            ctx = OpContext(self.depot, spec)
            status = TransformStatus.OK
            try:
                fn(ctx)
                ctx.check_wall()
            except (_BudgetStop, _OpFault) as stop:
                status = stop.status
            except EbpError:
                # Lease or admission trouble mid-run: same unknown-state rule.
                self._poison_outputs(spec)
                raise
            clean = status is TransformStatus.OK and not ctx.read_unknown
            if not clean:
                self._poison_outputs(spec)
            state = OutputsState.DEFINED if clean else OutputsState.UNKNOWN
            return TransformResult(status, ctx.io_bytes_used, ctx.wall_ms_used(), state)

    def _validate_caps(self, spec: TransformSpec) -> None:
        for cap in (*spec.inputs, *spec.outputs):
            if cap.depot_addr != self.depot.addr:
                raise NotLocal(f"capability names depot {cap.depot_addr}, not {self.depot.addr}")
        for cap, kind in [(c, Kind.READ) for c in spec.inputs] + [
            (c, Kind.WRITE) for c in spec.outputs
        ]:
            if cap.kind is not kind:
                raise BadCapability(f"{kind.value} capability required")
            self.depot.authorize(cap, kind)

    @contextmanager
    def _locks_for(self, outputs: tuple):
        # Overlapping output sets serialize; disjoint sets run concurrently.
        ids = sorted({cap.alloc_id for cap in outputs})
        with self._serial_lock:
            entries = [self._output_locks.setdefault(i, [threading.Lock(), 0]) for i in ids]
            for entry in entries:
                entry[1] += 1
        try:
            with ExitStack() as held:
                for lock, _users in entries:
                    held.enter_context(lock)
                yield
        finally:
            with self._serial_lock:
                for alloc_id, entry in zip(ids, entries):
                    entry[1] -= 1
                    if not entry[1]:
                        del self._output_locks[alloc_id]

    def _poison_outputs(self, spec: TransformSpec) -> None:
        for cap in spec.outputs:
            try:
                self.depot.mark_unknown(cap)
            except EbpError:
                pass  # already reclaimed; nothing left to poison


# --------------------------------------------------------------- built-ins


def _int_param(ctx: OpContext, name: str, default: Optional[int] = None) -> int:
    raw = ctx.params.get(name)
    if raw is None:
        if default is None:
            ctx.fault(f"missing required param {name!r}")
        return default
    try:
        value = int(raw)
    except ValueError:
        ctx.fault(f"param {name!r} must be an integer, got {raw!r}")
    if value < 0:
        ctx.fault(f"param {name!r} must be >= 0")
    return value


def _op_checksum_crc32(ctx: OpContext) -> None:
    crc = 0
    for chunk in ctx.read_all(0):
        crc = zlib.crc32(chunk, crc)
    ctx.emit(0, crc.to_bytes(4, "big"))


def _op_checksum_sha256(ctx: OpContext) -> None:
    digest = hashlib.sha256()
    for chunk in ctx.read_all(0):
        digest.update(chunk)
    ctx.emit(0, digest.digest())


def _op_xor(ctx: OpContext) -> None:
    if ctx.input_count != 2:
        ctx.fault("xor takes exactly two inputs")
    a_size, b_size = ctx.input_size(0), ctx.input_size(1)
    if a_size != b_size:
        ctx.fault(f"xor inputs differ in length: {a_size} vs {b_size}")
    out = bytearray()
    ctx.charge_scratch(a_size)
    for off in range(0, a_size, _CHUNK):
        n = min(_CHUNK, a_size - off)
        a = ctx.read(0, off, n)
        b = ctx.read(1, off, n)
        out += (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")
    ctx.emit(0, out)


def _op_copy_range(ctx: OpContext) -> None:
    src_offset = _int_param(ctx, "src_offset", 0)
    length = _int_param(ctx, "length")
    if src_offset + length > ctx.input_size(0):
        ctx.fault("copy-range source range exceeds input")
    out = bytearray()
    ctx.charge_scratch(length)
    for off in range(src_offset, src_offset + length, _CHUNK):
        out += ctx.read(0, off, min(_CHUNK, src_offset + length - off))
    ctx.emit(0, out)


def _op_fill(ctx: OpContext) -> None:
    value = _int_param(ctx, "value")
    length = _int_param(ctx, "length")
    if value > 255:
        ctx.fault("fill value must be a single byte (0-255)")
    ctx.charge_scratch(length)
    ctx.check_wall()
    ctx.emit(0, bytes([value]) * length)


_RUN = re.compile(rb"\x00+")
_SINGLES = re.compile(rb"\x01+")
_BYTE = [bytes((v,)) for v in range(256)]


def _rle_run(out: bytearray, value: int, n: int) -> None:
    """Append a run of ``n`` bytes ``value``: pairs of 255, then the rest."""
    full, rest = divmod(n, 255)
    out += bytes((255, value)) * full
    if rest:
        out += bytes((rest, value))


def _rle_singles(out: bytearray, values: bytes) -> None:
    """Append (1, value) for each byte of ``values`` in one slice write."""
    n = len(out)
    out += b"\x01" * (2 * len(values))
    out[n + 1 :: 2] = values


def _rle_expand(counts: bytes, values: bytes) -> bytes:
    """Each value repeated ``count`` times, joined in one C-level pass."""
    return b"".join(map(operator.mul, map(_BYTE.__getitem__, values), counts))


def _op_rle_compress(ctx: OpContext) -> None:
    """Run-length encode input 0 as (count 1-255, value) byte pairs.

    Python works per run or per stretch of single bytes, never per byte: a
    zero in ``diff`` marks two equal neighbours. The run still open at the
    end of a chunk carries into the next one, holding at most 255 bytes
    (its full 255-byte pieces are written), so ``out`` has the same length
    after every chunk as a byte-at-a-time encoder's.
    """
    out = bytearray()
    charged = 0
    run_value = -1
    run_len = 0
    for chunk in ctx.read_all(0):
        pos = 0
        if run_len:
            pos = len(chunk) - len(chunk.lstrip(_BYTE[run_value]))
            run_len += pos
            if pos < len(chunk):
                _rle_run(out, run_value, run_len)
                run_len = 0
        if pos < len(chunk):
            last = len(chunk) - 1
            # Byte i of diff is chunk[i] ^ chunk[i + 1].
            whole = int.from_bytes(chunk, "big")
            diff = (whole ^ (whole >> 8)).to_bytes(len(chunk), "big")[1:]
            while True:
                start = diff.find(b"\x00", pos)
                if start < 0:
                    start = last
                    _rle_singles(out, chunk[pos:last])
                    break
                if start > pos:
                    _rle_singles(out, chunk[pos:start])
                end = _RUN.match(diff, start).end()
                if end == last:
                    break
                _rle_run(out, chunk[start], end - start + 1)
                pos = end + 1
            run_value, run_len = chunk[start], last - start + 1
        if run_len > 255:
            full = (run_len - 1) // 255
            out += bytes((255, run_value)) * full
            run_len -= 255 * full
        ctx.charge_scratch(len(out) - charged)
        charged = len(out)
        ctx.check_wall()
    if run_len:
        _rle_run(out, run_value, run_len)
        ctx.charge_scratch(len(out) - charged)
        charged = len(out)
    ctx.emit(0, out)


def _op_rle_decompress(ctx: OpContext) -> None:
    """Expand (count, value) pairs; stretches of count 1 copy straight from
    the values, every other pair is one table lookup and repeat."""
    out = bytearray()
    charged = 0
    pending = b""
    for chunk in ctx.read_all(0):
        data = pending + chunk
        pending = b""
        if len(data) % 2:
            data, pending = data[:-1], data[-1:]
        counts, values = data[0::2], data[1::2]
        if b"\x00" in counts:
            ctx.fault("rle run of length zero")
        pos = 0
        for ones in _SINGLES.finditer(counts):
            start, end = ones.span()
            out += _rle_expand(counts[pos:start], values[pos:start])
            out += values[start:end]
            pos = end
        out += _rle_expand(counts[pos:], values[pos:])
        ctx.charge_scratch(len(out) - charged)
        charged = len(out)
        ctx.check_wall()
    if pending:
        ctx.fault("rle stream has odd length")
    ctx.emit(0, out)


# The whole op set, read-only: op name -> the function that runs it.
OPS = MappingProxyType({
    "checksum-crc32": _op_checksum_crc32,
    "checksum-sha256": _op_checksum_sha256,
    "xor": _op_xor,
    "copy-range": _op_copy_range,
    "fill": _op_fill,
    "rle-compress": _op_rle_compress,
    "rle-decompress": _op_rle_decompress,
})
