"""Recycled depot buffers: reuse, no stale bytes, the free-store bound, and
no write into a buffer that another allocation has taken."""

from __future__ import annotations

import random
import threading

import pytest

from ebp.capability import Hardness
from ebp.depot import _RECYCLE_MIN, _STORE_SLICE, Depot, DepotConfig
from ebp.errors import AdmissionDenied, NoSuchAllocation, ResourceExhausted

KIB = 1024
MIB = 1024 * KIB


class FakeClock:
    def __init__(self):
        self.t = 1000.0

    def __call__(self) -> float:
        return self.t


def make_depot(total: int, clock=None) -> Depot:
    config = DepotConfig(total_capacity=total, max_alloc_size=total)
    return Depot(config, addr="127.0.0.1:9", clock=clock or FakeClock())


def check_accounting(depot: Depot) -> None:
    """``len(alloc.data)`` is committed bytes, and the backing buffers of live
    allocations plus the free store stay within capacity."""
    stats = depot.stats()
    allocs = depot._table.values()
    assert sum(len(a.data) for a in allocs) == stats.bytes_in_use
    assert sum(len(a.buf) for a in allocs) == depot._held >= stats.bytes_in_use
    assert sum(len(b) for b in free_buffers(depot)) == depot._free.nbytes
    assert depot._free.nbytes + depot._held <= depot.config.total_capacity


def free_buffers(depot: Depot) -> list:
    return [buf for bufs in depot._free.bufs.values() for buf in bufs]


def test_released_buffer_is_reused_and_its_bytes_never_show():
    depot = make_depot(4 * MIB)
    size = 2 * _RECYCLE_MIN
    first = depot.allocate(size, 600, Hardness.SOFT)
    depot.store(first.write, 0, b"\xff" * size)
    old = depot._table[first.write.alloc_id].buf
    depot.release(first.manage)
    assert depot._free.nbytes == size
    check_accounting(depot)

    second = depot.allocate(size, 600, Hardness.SOFT)
    depot.store(second.write, size - 10, b"x")  # starts past used: the gap is zeroed
    assert depot._table[second.write.alloc_id].buf is old
    assert depot.load(second.read, 0, size - 9).data == bytes(size - 10) + b"x"
    assert depot._free.nbytes == 0
    check_accounting(depot)


def test_fault_zeroes_the_unreached_tail_of_a_recycled_buffer():
    depot = make_depot(8 * MIB)
    size = 4 * _STORE_SLICE
    first = depot.allocate(size, 600, Hardness.SOFT)
    depot.store(first.write, 0, b"\xff" * size)
    depot.release(first.manage)
    second = depot.allocate(size, 600, Hardness.SOFT)

    def hook(_alloc_id, written):
        if written >= _STORE_SLICE:
            raise RuntimeError("injected")

    depot.store_fault_hook = hook
    with pytest.raises(RuntimeError):
        depot.store(second.write, 0, b"a" * size)
    depot.store_fault_hook = None
    got = depot.load(second.read, 0, size)
    assert got.unknown_state
    assert got.data == b"a" * _STORE_SLICE + bytes(size - _STORE_SLICE)


def test_small_buffers_and_poor_fits_are_not_recycled():
    depot = make_depot(8 * MIB)
    small = depot.allocate(_RECYCLE_MIN - 1, 600, Hardness.SOFT)
    depot.store(small.write, 0, b"s" * (_RECYCLE_MIN - 1))
    depot.release(small.manage)
    assert depot._free.nbytes == 0

    big = depot.allocate(4 * _RECYCLE_MIN, 600, Hardness.SOFT)
    depot.store(big.write, 0, b"b" * (4 * _RECYCLE_MIN))
    depot.release(big.manage)
    half = depot.allocate(2 * _RECYCLE_MIN - 1, 600, Hardness.SOFT)
    depot.store(half.write, 0, b"h")
    assert depot._free.nbytes == 4 * _RECYCLE_MIN  # not an exact fit: kept free


def test_growth_drops_free_buffers_before_preempting_anyone():
    total = 1 * MIB
    depot = make_depot(total)
    size = 256 * KIB
    victim = depot.allocate(size, 600, Hardness.BEST_EFFORT)
    depot.store(victim.write, 0, b"v" * size)
    filled = [depot.allocate(size, 600, Hardness.SOFT) for _ in range(3)]
    for caps in filled:
        depot.store(caps.write, 0, b"f" * size)
    for caps in filled:
        depot.release(caps.manage)
    assert depot._free.nbytes == 3 * size  # the whole depot is in use or free
    check_accounting(depot)
    bigger = depot.allocate(size + KIB, 600, Hardness.SOFT)  # no free buffer holds it
    depot.store(bigger.write, 0, b"n" * (size + KIB))
    check_accounting(depot)
    assert depot._free.nbytes == size
    assert depot.stats().preemptions[Hardness.BEST_EFFORT] == 0
    assert depot.load(victim.read, 0, size).data == b"v" * size


def test_unfilled_recycled_buffers_are_given_back_before_memory_passes_capacity():
    # Each round fills and releases most of the depot, which refills the free
    # store, then stores one byte into new best-effort allocations, each of
    # which takes a whole free buffer. Counting only committed bytes, the
    # free store would refill every round while those buffers stay pinned.
    total = 4 * MIB
    depot = make_depot(total)
    size = 256 * KIB
    count = total // size - 1
    tiny = []
    for _ in range(4):
        filled = [depot.allocate(size, 600, Hardness.SOFT) for _ in range(count)]
        for caps in filled:
            depot.store(caps.write, 0, b"f" * size)
            check_accounting(depot)
        for caps in filled:
            depot.release(caps.manage)
            check_accounting(depot)
        assert depot._free.nbytes >= (count - 1) * size
        for _ in range(count):
            caps = depot.allocate(size, 600, Hardness.BEST_EFFORT)
            depot.store(caps.write, 0, b"x")
            check_accounting(depot)
            tiny.append(caps)
    # The last round's buffers are still held, every earlier one was given back.
    assert [len(depot._table[c.write.alloc_id].buf) for c in tiny[:-count]] == [1] * 3 * count
    assert depot.stats().preemptions[Hardness.BEST_EFFORT] == 0
    for caps in tiny:
        assert depot.load(caps.read, 0, 1).data == b"x"


def test_an_allocation_mid_store_keeps_its_buffer_when_others_give_theirs_back():
    total = 4 * MIB
    size = 4 * _STORE_SLICE
    depot = make_depot(total)
    first = depot.allocate(size, 600, Hardness.SOFT)
    depot.store(first.write, 0, b"\xff" * size)
    depot.release(first.manage)
    busy = depot.allocate(size, 600, Hardness.SOFT)
    payload = random.Random(2).randbytes(2 * _STORE_SLICE)
    paused, resume = threading.Event(), threading.Event()

    def hook(alloc_id, written):
        if alloc_id == busy.write.alloc_id and written == _STORE_SLICE:
            paused.set()
            assert resume.wait(5)

    depot.store_fault_hook = hook
    writer = threading.Thread(target=depot.store, args=(busy.write, 0, payload))
    writer.start()
    assert paused.wait(5)
    busy_alloc = depot._table[busy.write.alloc_id]
    assert len(busy_alloc.buf) == size  # a recycled buffer, half of it unfilled
    others = [depot.allocate(size, 600, Hardness.SOFT) for _ in range(3)]
    for caps in others:
        depot.store(caps.write, 0, b"o" * size)
    extra = depot.allocate(size // 2, 600, Hardness.SOFT)
    depot.store(extra.write, 0, b"e" * (size // 2))  # past the bound: nothing idle to give back
    assert len(busy_alloc.buf) == size
    resume.set()
    writer.join(5)
    assert not writer.is_alive()
    assert depot.load(busy.read, 0, len(payload)).data == payload

    depot.release(others[0].manage)
    later = depot.allocate(size, 600, Hardness.SOFT)
    depot.store(later.write, 0, b"l" * size)  # now idle: its unfilled half goes
    assert len(busy_alloc.buf) == len(payload)
    assert depot.load(busy.read, 0, len(payload)).data == payload
    assert depot.stats().preemptions == {tier: 0 for tier in Hardness}
    check_accounting(depot)


class Model:
    """Zero-initialised oracle of every live allocation's bytes in [0, used)."""

    def __init__(self):
        self.bytes: dict = {}  # alloc_id -> bytearray
        self.caps: dict = {}

    def store(self, alloc_id: int, offset: int, payload: bytes, reached: int) -> None:
        data = self.bytes[alloc_id]
        end = offset + len(payload)
        if end > len(data):
            data.extend(bytes(end - len(data)))
        data[offset : offset + reached] = payload[:reached]

    def transform_write(self, alloc_id: int, result: bytes, reached: int) -> None:
        old = self.bytes[alloc_id]
        new = bytearray(old[: len(result)]) + bytes(max(0, len(result) - len(old)))
        new[:reached] = result[:reached]
        self.bytes[alloc_id] = new


@pytest.mark.parametrize("seed", range(6))
def test_recycling_model_against_a_byte_oracle(seed):
    rng = random.Random(seed)
    clock = FakeClock()
    total = 4 * MIB
    depot = make_depot(total, clock)
    model = Model()
    capacities = (_RECYCLE_MIN, 3 * _RECYCLE_MIN, 2 * _STORE_SLICE + 1000, 3 * _STORE_SLICE)
    recycled = 0
    fault = {}

    def hook(_alloc_id, written):
        if "at" in fault and written >= fault["at"]:
            fault["reached"] = written
            raise RuntimeError("injected")

    depot.store_fault_hook = hook
    for step in range(400):
        live = sorted(model.bytes)
        roll = rng.random()
        free_ids = {id(buf) for buf in free_buffers(depot)}
        if roll < 0.2 or not live:
            tier = rng.choice((Hardness.SOFT, Hardness.SOFT, Hardness.BEST_EFFORT))
            try:
                caps = depot.allocate(rng.choice(capacities), rng.choice((5, 600)), tier)
            except AdmissionDenied:
                caps = None
            if caps is not None:
                model.bytes[caps.write.alloc_id] = bytearray()
                model.caps[caps.write.alloc_id] = caps
        elif roll < 0.65:
            alloc_id = rng.choice(live)
            alloc = depot._table[alloc_id]
            fresh = alloc.committed == 0
            if rng.random() < 0.4:  # fill it, so its buffer fits the next of its size
                offset, length = 0, alloc.capacity
            else:
                offset = rng.randrange(alloc.capacity)
                length = rng.randrange(alloc.capacity - offset + 1)
            payload = rng.randbytes(length)
            fault.clear()
            if payload and rng.random() < 0.3:
                fault["at"] = rng.randrange(1, len(payload) + 1)
            try:
                depot.store(model.caps[alloc_id].write, offset, payload)
                model.store(alloc_id, offset, payload, len(payload))
            except RuntimeError:
                model.store(alloc_id, offset, payload, fault["reached"])
            except ResourceExhausted:
                pass  # refused before any byte was written
            if fresh and id(alloc.buf) in free_ids:
                recycled += 1
        elif roll < 0.8:
            alloc_id = rng.choice(live)
            alloc = depot._table[alloc_id]
            result = rng.randbytes(rng.randrange(alloc.capacity + 1))
            fault.clear()
            if result and rng.random() < 0.3:
                fault["at"] = rng.randrange(1, len(result) + 1)
            try:
                depot.transform_write(model.caps[alloc_id].write, result)
                model.transform_write(alloc_id, result, len(result))
            except RuntimeError:
                model.transform_write(alloc_id, result, fault["reached"])
            except ResourceExhausted:
                pass
        elif roll < 0.95:
            alloc_id = rng.choice(live)
            depot.release(model.caps[alloc_id].manage)
        else:
            clock.t += rng.choice((1, 10))
            depot.sweep_leases()
        for gone in set(model.bytes) - set(depot._table):  # released, swept or preempted
            del model.bytes[gone], model.caps[gone]
        for alloc_id, expected in model.bytes.items():
            caps = model.caps[alloc_id]
            assert depot.probe(caps.manage).used == len(expected), f"step {step}"
            assert depot.load(caps.read, 0, len(expected)).data == expected, f"step {step}"
        check_accounting(depot)
    assert recycled >= 5


@pytest.mark.parametrize("releaser", ["another thread", "the storing thread"])
def test_buffer_of_an_allocation_mid_store_is_never_recycled(releaser):
    depot = make_depot(16 * MIB)
    size = 4 * _STORE_SLICE
    old = depot.allocate(size, 600, Hardness.SOFT)
    expected = random.Random(1).randbytes(size)
    paused, resume = threading.Event(), threading.Event()
    outcome = {}

    def replace_old() -> None:
        depot.release(old.manage)
        new = depot.allocate(size, 600, Hardness.SOFT)
        depot.store(new.write, 0, expected)
        outcome["new"] = new

    def hook(alloc_id, written):
        if alloc_id != old.write.alloc_id or written != _STORE_SLICE:
            return
        if releaser == "the storing thread":
            replace_old()
        else:
            paused.set()
            assert resume.wait(5)

    def store_old() -> None:
        try:
            depot.store(old.write, 0, b"\xee" * size)
        except Exception as exc:  # noqa: BLE001 - recorded for the assertion below
            outcome["old"] = exc

    depot.store_fault_hook = hook
    writer = threading.Thread(target=store_old)
    writer.start()
    if releaser == "another thread":
        assert paused.wait(5)
        replace_old()
        resume.set()
    writer.join(5)
    assert not writer.is_alive()
    assert isinstance(outcome["old"], NoSuchAllocation)
    assert depot.load(outcome["new"].read, 0, size).data == expected
    check_accounting(depot)


def test_recycling_under_contention_keeps_every_tenants_bytes():
    import sys

    depot = make_depot(32 * MIB)
    failures = []

    def tenant(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(40):
            size = rng.choice((_RECYCLE_MIN, 2 * _STORE_SLICE, 3 * _STORE_SLICE))
            caps = depot.allocate(size, 600, Hardness.SOFT)
            payload = rng.randbytes(size)
            depot.store(caps.write, 0, payload)
            if depot.load(caps.read, 0, size).data != payload:
                failures.append(seed)
            depot.release(caps.manage)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=tenant, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert depot.stats().bytes_in_use == 0 and depot._table == {}
    check_accounting(depot)
    assert depot._free.nbytes > 0
