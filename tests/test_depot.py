"""Depot state machine: admission, leases, capability checks, preemption."""

from __future__ import annotations

import json
import random
import threading

import pytest

from ebp.capability import Hardness, Kind
from ebp.depot import Depot, DepotConfig
from ebp.errors import (
    AdmissionDenied,
    BadCapability,
    Expired,
    NoSuchAllocation,
    OutOfRange,
    ResourceExhausted,
    SizeLimitExceeded,
)


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_depot(total=1000, max_alloc=None, beta=1.5, clock=None) -> Depot:
    cfg = DepotConfig(
        total_capacity=total,
        max_alloc_size=max_alloc if max_alloc is not None else total,
        overbook_factor=beta,
    )
    return Depot(cfg, addr="127.0.0.1:9", clock=clock or FakeClock())


def recount(depot: Depot):
    """Full-table recount oracle for the accounting pools."""
    hard = soft = in_use = 0
    for alloc in depot._table.values():
        if alloc.hardness is Hardness.HARD:
            hard += alloc.capacity
        elif alloc.hardness is Hardness.SOFT:
            soft += alloc.capacity
        in_use += len(alloc.data)
    return hard, soft, in_use


# --------------------------------------------------------------- allocate


def test_minimal_allocation_on_empty_depot():
    depot = make_depot()
    caps = depot.allocate(1, 1, Hardness.HARD)
    info = depot.probe(caps.manage)
    assert info.used == 0
    assert info.capacity == 1
    assert info.hardness is Hardness.HARD


def test_allocation_over_size_limit_rejected():
    depot = make_depot(total=10_000, max_alloc=100)
    with pytest.raises(SizeLimitExceeded):
        depot.allocate(101, 60, Hardness.SOFT)


def test_soft_overbooking_admission_sequence():
    # total=100, beta=1.5: Hard 60, then Soft 80 admitted (60+80 <= 150),
    # then Soft 20 denied (60+80+20 > 150).
    depot = make_depot(total=100, beta=1.5)
    depot.allocate(60, 60, Hardness.HARD)
    depot.allocate(80, 60, Hardness.SOFT)
    with pytest.raises(AdmissionDenied):
        depot.allocate(20, 60, Hardness.SOFT)


def test_hard_pool_never_exceeds_capacity():
    depot = make_depot(total=100)
    depot.allocate(60, 60, Hardness.HARD)
    with pytest.raises(AdmissionDenied):
        depot.allocate(41, 60, Hardness.HARD)
    depot.allocate(40, 60, Hardness.HARD)


def test_best_effort_admission_uses_bytes_in_use():
    depot = make_depot(total=100)
    caps = depot.allocate(90, 60, Hardness.SOFT)
    # Nothing stored yet: physically empty, so best-effort 100 fits.
    be = depot.allocate(100, 60, Hardness.BEST_EFFORT)
    depot.store(be.write, 0, b"x" * 40)
    with pytest.raises(AdmissionDenied):
        depot.allocate(61, 60, Hardness.BEST_EFFORT)
    depot.allocate(60, 60, Hardness.BEST_EFFORT)
    depot.release(caps.manage)


def test_allocate_validates_arguments():
    depot = make_depot()
    with pytest.raises(ValueError):
        depot.allocate(0, 60, Hardness.SOFT)
    with pytest.raises(ValueError):
        depot.allocate(1, 0, Hardness.SOFT)


def test_admission_after_opportunistic_sweep():
    clock = FakeClock()
    depot = make_depot(total=100, clock=clock)
    depot.allocate(100, 5, Hardness.HARD)
    clock.advance(10)
    # Expired-but-unswept hard bytes must not pin the pool.
    depot.allocate(100, 5, Hardness.HARD)


# ------------------------------------------------------------ probe/renew


def test_probe_fresh_allocation():
    depot = make_depot()
    caps = depot.allocate(10, 60, Hardness.SOFT)
    info = depot.probe(caps.manage)
    assert (info.capacity, info.used) == (10, 0)


def test_probe_requires_manage_kind():
    depot = make_depot()
    caps = depot.allocate(10, 60, Hardness.SOFT)
    with pytest.raises(BadCapability):
        depot.probe(caps.read)


def test_probe_after_expiry_and_sweep():
    clock = FakeClock()
    depot = make_depot(clock=clock)
    caps = depot.allocate(10, 2, Hardness.SOFT)
    clock.advance(3)
    with pytest.raises(Expired):
        depot.probe(caps.manage)
    assert depot.sweep_leases() == 1
    with pytest.raises(NoSuchAllocation):
        depot.probe(caps.manage)


def test_authorize_and_used_follow_the_capability_rules():
    clock = FakeClock()
    depot = make_depot(clock=clock)
    caps = depot.allocate(10, 2, Hardness.SOFT)
    depot.store(caps.write, 0, b"abc")
    for kind in Kind:
        depot.authorize(getattr(caps, kind.value), kind)
    assert depot.used(caps.read) == 3
    with pytest.raises(BadCapability):
        depot.authorize(caps.read, Kind.WRITE)
    with pytest.raises(BadCapability):
        depot.used(caps.write)
    clock.advance(3)
    with pytest.raises(Expired):
        depot.authorize(caps.read, Kind.READ)
    with pytest.raises(Expired):
        depot.used(caps.read)
    depot.release(caps.manage)
    with pytest.raises(NoSuchAllocation):
        depot.used(caps.read)


def test_renew_extends_and_is_monotone():
    clock = FakeClock()
    depot = make_depot(clock=clock)
    caps = depot.allocate(10, 5, Hardness.SOFT)
    assert depot.renew(caps.manage, 10) == 10_000  # milliseconds left
    # Renewing by less than the remaining lease never shrinks it.
    assert depot.renew(caps.manage, 1) == 10_000


def test_renew_capped_at_max_duration():
    clock = FakeClock()
    depot = make_depot(clock=clock)
    caps = depot.allocate(10, 5, Hardness.SOFT)
    left_ms = depot.renew(caps.manage, 2 * int(depot.config.max_duration))
    assert left_ms == depot.config.max_duration * 1000


def test_renew_rejects_write_capability():
    depot = make_depot()
    caps = depot.allocate(10, 60, Hardness.SOFT)
    with pytest.raises(BadCapability):
        depot.renew(caps.write, 10)


# ---------------------------------------------------------------- release


def test_release_then_probe_fails():
    depot = make_depot()
    caps = depot.allocate(10, 60, Hardness.SOFT)
    depot.release(caps.manage)
    with pytest.raises(NoSuchAllocation):
        depot.probe(caps.manage)


def test_double_release():
    depot = make_depot()
    caps = depot.allocate(10, 60, Hardness.SOFT)
    depot.release(caps.manage)
    with pytest.raises(NoSuchAllocation):
        depot.release(caps.manage)


def test_release_returns_accounting_room():
    depot = make_depot(total=100)
    caps = depot.allocate(60, 60, Hardness.HARD)
    depot.release(caps.manage)
    assert depot.stats().sum_hard == 0
    depot.allocate(60, 60, Hardness.HARD)  # admits again


# ------------------------------------------------------------- store/load


def test_read_after_write():
    depot = make_depot()
    caps = depot.allocate(10, 60, Hardness.SOFT)
    assert depot.store(caps.write, 0, b"abc") == 3
    assert depot.load(caps.read, 0, 3).data == b"abc"


def test_store_beyond_capacity_rejected():
    depot = make_depot()
    caps = depot.allocate(10, 60, Hardness.SOFT)
    with pytest.raises(OutOfRange):
        depot.store(caps.write, 9, b"xy")


def test_interleaved_stores_match_byte_oracle():
    depot = make_depot()
    caps = depot.allocate(6, 60, Hardness.SOFT)
    oracle = bytearray(6)
    oracle[0:4] = b"aaaa"
    oracle[2:6] = b"bbbb"
    depot.store(caps.write, 0, b"aaaa")
    depot.store(caps.write, 2, b"bbbb")
    assert depot.load(caps.read, 0, 6).data == bytes(oracle) == b"aabbbb"


def test_load_empty_range():
    depot = make_depot()
    caps = depot.allocate(10, 60, Hardness.SOFT)
    assert depot.load(caps.read, 0, 0).data == b""


def test_load_beyond_used_rejected():
    depot = make_depot()
    caps = depot.allocate(10, 60, Hardness.SOFT)
    depot.store(caps.write, 0, b"abc")
    with pytest.raises(OutOfRange):
        depot.load(caps.read, 0, 4)


def test_gaps_below_used_read_as_zero():
    depot = make_depot()
    caps = depot.allocate(10, 60, Hardness.SOFT)
    depot.store(caps.write, 4, b"zz")
    assert depot.load(caps.read, 0, 6).data == b"\0\0\0\0zz"


def test_large_payload_roundtrip_in_pieces():
    depot = make_depot(total=2 * 1024 * 1024)
    rng = random.Random(7)
    payload = rng.randbytes(1024 * 1024)
    caps = depot.allocate(len(payload), 60, Hardness.SOFT)
    depot.store(caps.write, 0, payload)
    got = b"".join(
        depot.load(caps.read, off, min(4096, len(payload) - off)).data
        for off in range(0, len(payload), 4096)
    )
    assert got == payload


def test_randomized_store_load_against_byte_oracle():
    rng = random.Random(42)
    depot = make_depot(total=1 << 16)
    cap_bytes = 4096
    caps = depot.allocate(cap_bytes, 600, Hardness.SOFT)
    oracle = bytearray(cap_bytes)
    high = 0
    for _ in range(10_000):
        off = rng.randrange(cap_bytes)
        n = rng.randrange(0, cap_bytes - off + 1)
        if rng.random() < 0.7:
            chunk = rng.randbytes(n)
            depot.store(caps.write, off, chunk)
            oracle[off : off + n] = chunk
            high = max(high, off + n)
        elif off + n <= high:
            assert depot.load(caps.read, off, n).data == bytes(oracle[off : off + n])
    assert depot.probe(caps.manage).used == high


def test_mid_store_fault_poisons_allocation():
    depot = make_depot(total=4 * 1024 * 1024)
    caps = depot.allocate(2 * 1024 * 1024, 60, Hardness.SOFT)
    boom = RuntimeError("injected")

    def hook(alloc_id, written):
        if written >= 512 * 1024:
            raise boom

    depot.store_fault_hook = hook
    with pytest.raises(RuntimeError):
        depot.store(caps.write, 0, b"x" * (2 * 1024 * 1024))
    depot.store_fault_hook = None
    assert depot.load(caps.read, 0, 1).unknown_state is True
    # Partial overwrite does not clear the flag; full-capacity overwrite does.
    depot.store(caps.write, 0, b"y" * 10)
    assert depot.load(caps.read, 0, 1).unknown_state is True
    depot.store(caps.write, 0, b"z" * (2 * 1024 * 1024))
    assert depot.load(caps.read, 0, 1).unknown_state is False


@pytest.mark.parametrize("write", ["store", "transform_write"])
def test_a_write_whose_allocation_is_reclaimed_mid_write_fails(write):
    depot = make_depot(total=4096)
    caps = depot.allocate(1024, 60, Hardness.SOFT)
    depot.store_fault_hook = lambda alloc_id, written: depot.release(caps.manage)
    args = (caps.write, 0, b"x" * 100) if write == "store" else (caps.write, b"x" * 100)
    with pytest.raises(NoSuchAllocation):
        getattr(depot, write)(*args)
    assert depot.stats().bytes_in_use == 0


# ------------------------------------------------------------------ sweeps


def test_sweep_empty_depot():
    depot = make_depot()
    assert depot.sweep_leases() == 0


def test_sweep_one_expired():
    clock = FakeClock()
    depot = make_depot(clock=clock)
    depot.allocate(10, 2, Hardness.SOFT)
    clock.advance(3)
    assert depot.sweep_leases() == 1


def test_sweep_staggered_expiries_matches_sort_oracle():
    clock = FakeClock()
    depot = make_depot(total=10_000, clock=clock)
    rng = random.Random(3)
    durations = [rng.randrange(1, 101) for _ in range(100)]
    for d in durations:
        depot.allocate(1, d, Hardness.SOFT)
    median = sorted(durations)[50]
    expected = sum(1 for d in durations if clock.t + d < clock.t + median)
    assert depot.sweep_leases(clock.t + median) == expected
    assert depot.stats().live_allocations == 100 - expected


def test_sweep_never_reclaims_live_allocation():
    clock = FakeClock()
    depot = make_depot(clock=clock)
    caps = depot.allocate(10, 50, Hardness.SOFT)
    clock.advance(10)
    depot.sweep_leases()
    assert depot.probe(caps.manage).capacity == 10


# -------------------------------------------------------------- preemption


def fill(depot, caps, n):
    depot.store(caps.write, 0, b"f" * n)


def test_hard_store_preempts_best_effort_before_soft():
    depot = make_depot(total=100)
    be = depot.allocate(40, 60, Hardness.BEST_EFFORT)
    fill(depot, be, 40)
    soft = depot.allocate(40, 60, Hardness.SOFT)
    fill(depot, soft, 40)
    hard = depot.allocate(60, 60, Hardness.HARD)
    fill(depot, hard, 60)  # needs 40 more physical bytes than are free
    with pytest.raises(NoSuchAllocation):
        depot.probe(be.manage)  # best-effort victim reclaimed
    assert depot.probe(soft.manage).used == 40  # soft untouched
    assert depot.load(hard.read, 0, 60).data == b"f" * 60


def test_best_effort_cannot_preempt():
    depot = make_depot(total=100)
    be = depot.allocate(10, 60, Hardness.BEST_EFFORT)  # admitted while empty
    soft = depot.allocate(100, 60, Hardness.SOFT)
    fill(depot, soft, 100)  # now physically full
    with pytest.raises(ResourceExhausted):
        depot.store(be.write, 0, b"x")
    assert depot.probe(soft.manage).used == 100


def test_preempt_victim_order_matches_sort_oracle():
    clock = FakeClock()
    depot = make_depot(total=120, clock=clock)
    softs = []
    for dur in (5, 3, 9):
        caps = depot.allocate(40, dur, Hardness.SOFT)
        fill(depot, caps, 40)
        softs.append(caps)
    hard = depot.allocate(40, 60, Hardness.HARD)
    fill(depot, hard, 40)  # the depot is full: 40 bytes to preempt
    # Oracle: earliest expiry first -> the duration-3 allocation.
    with pytest.raises(NoSuchAllocation):
        depot.probe(softs[1].manage)
    assert depot.probe(softs[0].manage).used == 40
    assert depot.probe(softs[2].manage).used == 40
    assert depot.stats().preemptions[Hardness.SOFT] == 1


def test_preempt_tie_broken_by_smallest_alloc_id():
    depot = make_depot(total=120)
    a = depot.allocate(40, 50, Hardness.SOFT)
    b = depot.allocate(40, 50, Hardness.SOFT)
    fill(depot, a, 40)
    fill(depot, b, 40)
    hard = depot.allocate(50, 60, Hardness.HARD)
    # 40 bytes free; storing 50 leaves a 10-byte shortfall.
    fill(depot, hard, 50)
    with pytest.raises(NoSuchAllocation):
        depot.probe(a.manage)
    assert depot.probe(b.manage).used == 40


def test_preempt_never_touches_hard():
    depot = make_depot(total=100)
    hard = depot.allocate(100, 60, Hardness.HARD)
    fill(depot, hard, 100)
    soft = depot.allocate(10, 60, Hardness.SOFT)
    with pytest.raises(ResourceExhausted):
        fill(depot, soft, 10)
    assert depot.probe(hard.manage).used == 100
    assert depot.stats().preemptions == {tier: 0 for tier in Hardness}


def test_preempt_noop_when_room_is_free():
    depot = make_depot(total=100)
    soft = depot.allocate(40, 60, Hardness.SOFT)
    fill(depot, soft, 40)
    hard = depot.allocate(60, 60, Hardness.HARD)
    fill(depot, hard, 60)
    assert depot.probe(soft.manage).used == 40
    assert depot.stats().preemptions == {tier: 0 for tier in Hardness}


def test_failed_preemption_reclaims_nobody():
    depot = make_depot(total=100)
    be = depot.allocate(20, 60, Hardness.BEST_EFFORT)
    fill(depot, be, 20)
    fill(depot, depot.allocate(60, 60, Hardness.SOFT), 60)
    soft = depot.allocate(50, 60, Hardness.SOFT)
    # 20 bytes free; the 20-byte best-effort victim leaves 10 of 50 short.
    # A soft store, since a hard one always finds enough below it.
    with pytest.raises(ResourceExhausted):
        fill(depot, soft, 50)
    assert depot.probe(be.manage).used == 20
    assert depot.probe(soft.manage).used == 0
    assert depot.stats().preemptions == {tier: 0 for tier in Hardness}


# ----------------------------------------------------------- capabilities


def flip_hex_bit(key: str, bit: int) -> str:
    raw = bytearray(bytes.fromhex(key))
    raw[bit // 8] ^= 1 << (bit % 8)
    return raw.hex()


def test_flipped_key_bits_always_rejected():
    depot = make_depot()
    caps = depot.allocate(16, 600, Hardness.SOFT)
    depot.store(caps.write, 0, b"secret contents!")
    rng = random.Random(11)
    for _ in range(200):
        which = rng.choice([caps.read, caps.write, caps.manage])
        forged = which.__class__(
            depot_addr=which.depot_addr,
            alloc_id=which.alloc_id,
            kind=which.kind,
            key=flip_hex_bit(which.key, rng.randrange(160)),
        )
        with pytest.raises(BadCapability):
            if forged.kind is Kind.READ:
                depot.load(forged, 0, 1)
            elif forged.kind is Kind.WRITE:
                depot.store(forged, 0, b"x")
            else:
                depot.probe(forged)


def test_kind_confusion_rejected():
    depot = make_depot()
    caps = depot.allocate(16, 600, Hardness.SOFT)
    with pytest.raises(BadCapability):
        depot.load(caps.write, 0, 0)
    with pytest.raises(BadCapability):
        depot.store(caps.read, 0, b"")


def test_keys_are_independent_and_well_formed():
    depot = make_depot()
    caps = depot.allocate(1, 60, Hardness.SOFT)
    keys = {caps.read.key, caps.write.key, caps.manage.key}
    assert len(keys) == 3
    assert all(len(k) == 40 and set(k) <= set("0123456789abcdef") for k in keys)


# ------------------------------------------------- accounting conservation


class AccountantOracle:
    """Brute-force replay of the admission equations, kept deliberately dumb.

    Tracks every live allocation in a dict and recomputes the pools from
    scratch on each decision. A hard admission evicts soft reservations
    (earliest expiry, then smallest id) until the overbooked pool fits again.
    """

    def __init__(self, total: int, beta: float):
        self.total = total
        self.beta = beta
        self.live = {}  # id -> (tier, capacity, expiry)
        self.next_id = 1

    def _pool(self, tier: Hardness) -> int:
        return sum(c for t, c, _ in self.live.values() if t is tier)

    def allocate(self, tier: Hardness, capacity: int, expiry: float = 0.0) -> bool:
        hard = self._pool(Hardness.HARD)
        soft = self._pool(Hardness.SOFT)
        if tier is Hardness.HARD:
            ok = hard + capacity <= self.total
            if ok:
                while hard + capacity + self._pool(Hardness.SOFT) > self.beta * self.total:
                    victim = min(
                        (i for i, (t, _, _) in self.live.items() if t is Hardness.SOFT),
                        key=lambda i: (self.live[i][2], i),
                    )
                    del self.live[victim]
        elif tier is Hardness.SOFT:
            ok = hard + soft + capacity <= self.beta * self.total
        else:
            ok = 0 + capacity <= self.total  # nothing stored in this oracle
        if ok:
            self.live[self.next_id] = (tier, capacity, expiry)
        self.next_id += ok
        return ok

    def release_oldest(self) -> bool:
        if not self.live:
            return False
        del self.live[min(self.live)]
        return True


def test_accounting_conservation_random_sequences():
    rng = random.Random(99)
    for _ in range(50):
        depot = make_depot(total=100, beta=1.5)
        oracle = AccountantOracle(100, 1.5)
        manages = {}
        for _ in range(40):
            action = rng.choice(["H", "S", "B", "R"])
            if action == "R":
                if oracle.live:
                    victim = min(oracle.live)
                    depot.release(manages[victim])
                oracle.release_oldest()
            else:
                tier = {"H": Hardness.HARD, "S": Hardness.SOFT, "B": Hardness.BEST_EFFORT}[action]
                capacity = rng.choice([10, 40, 60, 90])
                try:
                    caps = depot.allocate(capacity, 600, tier)
                    admitted = True
                    manages[caps.manage.alloc_id] = caps.manage
                except AdmissionDenied:
                    admitted = False
                assert admitted == oracle.allocate(tier, capacity)
            assert set(depot._table) == set(oracle.live)
            hard, soft, in_use = recount(depot)
            stats = depot.stats()
            assert (stats.sum_hard, stats.sum_soft, stats.bytes_in_use) == (hard, soft, in_use)
            assert stats.sum_hard <= 100
            assert stats.sum_hard + stats.sum_soft <= 150


# ------------------------------------------------------------- concurrency


def test_concurrent_stores_on_distinct_allocations():
    depot = make_depot(total=64 * 1024 * 1024, max_alloc=1024 * 1024)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(25):
                caps = depot.allocate(8192, 60, Hardness.SOFT)
                blob = rng.randbytes(8192)
                depot.store(caps.write, 0, blob)
                assert depot.load(caps.read, 0, 8192).data == blob
                depot.release(caps.manage)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert depot.stats().live_allocations == 0
    assert depot.stats().bytes_in_use == 0


def test_conflicting_stores_serialize_to_one_order():
    depot = make_depot(total=1 << 22)
    caps = depot.allocate(1 << 20, 60, Hardness.SOFT)
    blobs = [bytes([i]) * (1 << 20) for i in range(4)]

    def worker(blob):
        depot.store(caps.write, 0, blob)

    threads = [threading.Thread(target=worker, args=(b,)) for b in blobs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    final = depot.load(caps.read, 0, 1 << 20).data
    assert final in [bytes(b) for b in blobs]  # equals one serialization


# ------------------------------------------------------------------ config


def test_config_from_json_file(tmp_path):
    path = tmp_path / "depot.json"
    path.write_text(
        '{"total_capacity": 1000, "max_alloc_size": 100, "max_duration": 60,'
        ' "overbook_factor": 2.0, "listen_addr": "127.0.0.1:7000"}'
    )
    cfg = DepotConfig.from_json_file(str(path))
    assert cfg.total_capacity == 1000
    assert cfg.max_alloc_size == 100
    assert cfg.listen_addr == "127.0.0.1:7000"


def test_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "depot.json"
    path.write_text('{"total_capacity": 10, "capacity": 10}')
    with pytest.raises(ValueError, match="unknown"):
        DepotConfig.from_json_file(str(path))


def test_config_requires_total_capacity(tmp_path):
    path = tmp_path / "depot.json"
    path.write_text('{"max_alloc_size": 10}')
    with pytest.raises(ValueError, match="^depot config requires total_capacity$"):
        DepotConfig.from_json_file(str(path))


@pytest.mark.parametrize(
    "field, value",
    [
        ("total_capacity", True),
        ("total_capacity", "big"),
        ("max_alloc_size", None),
        ("max_duration", "60"),
        ("overbook_factor", False),
        ("listen_addr", 7000),
    ],
)
def test_config_rejects_a_wrong_typed_field(tmp_path, field, value):
    path = tmp_path / "depot.json"
    path.write_text(json.dumps({"total_capacity": 1000, field: value}))
    with pytest.raises(ValueError, match=field):
        DepotConfig.from_json_file(str(path))
