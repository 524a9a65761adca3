"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

from __future__ import annotations

import functools
import random

import pytest
from click.testing import CliRunner

from goldens import GOLDEN
from ebp.capability import Capability, Hardness, Kind
from ebp.cli import main as ebp_cli
from ebp.depot import Depot, DepotConfig
from ebp.errors import (
    AdmissionDenied,
    BadCapability,
    EbpError,
    Expired,
    MalformedFrame,
    NoSuchAllocation,
    ResourceExhausted,
)
from ebp.lodn import LodnScheduler, Policy
from ebp.lors import download, release_all, upload
from ebp.nfu import NfuEngine, OutputsState, ResourceBudget, TransformSpec, TransformStatus
from ebp.server import DepotServer, dispatch_request
from ebp.simnet import DatagramClient, DatagramDepot, EventLoop, Fabric, SimCluster
from ebp.wire import (
    ErrResponse,
    OkResponse,
    StoreRequest,
    decode_request,
    encode_request,
    parse_response_header,
)

MIB = 1024 * 1024
CHUNK = 4 * MIB


def criterion(number: str, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number}: FAIL - {title}")
                raise
            print(f"\nACCEPTANCE {number}: PASS - {title}")
            return result

        return wrapper

    return decorate


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# =========================================================================
# 1. End-to-end fidelity: 50 files, 0 B - 32 MiB, put/get byte-identical.
# =========================================================================


@criterion("1", "end-to-end put/get fidelity, 50 files 0B-32MiB, exact")
def test_acceptance_1_end_to_end_fidelity(tmp_path):
    rng = random.Random(0xE2E)
    sizes = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 32 * MIB]
    while len(sizes) < 50:
        sizes.append(int(2 ** rng.uniform(1, 25)))
    runner = CliRunner()
    with SimCluster(4, total_capacity=512 * MIB) as cluster:
        depots = ",".join(cluster.addrs())
        for index, size in enumerate(sizes):
            data = rng.randbytes(size)
            src = tmp_path / f"in-{index}.bin"
            src.write_bytes(data)
            xnd = tmp_path / f"in-{index}.xnd.json"
            put = runner.invoke(
                ebp_cli,
                ["put", str(src), "--depots", depots, "--k", "2",
                 "--chunk", "4MiB", "-o", str(xnd)],
            )
            assert put.exit_code == 0, f"put[{index}] size={size}: {put.output}"
            dst = tmp_path / f"out-{index}.bin"
            got = runner.invoke(ebp_cli, ["get", str(xnd), "-o", str(dst)])
            assert got.exit_code == 0, f"get[{index}] size={size}: {got.output}"
            assert dst.read_bytes() == data, f"file {index} of size {size} not byte-identical"
            from ebp.exnode import read_exnode

            release_all(read_exnode(str(xnd)))
            src.unlink()
            dst.unlink()


# =========================================================================
# 2. Lease semantics: expiry within one sweep period; renewal keeps a file
#    alive for >= 6 lease lifetimes with zero read failures.
# =========================================================================


@criterion("2", "lease expiry within one sweep period; 6 lifetimes under renewal")
def test_acceptance_2_lease_semantics(tmp_path):
    # Expiry: a 2 s lease is unreadable within one sweep period of expiry.
    clock = FakeClock()
    depot = Depot(DepotConfig(total_capacity=1 << 20), addr="127.0.0.1:9", clock=clock)
    caps = depot.allocate(64, 2, Hardness.SOFT)
    depot.store(caps.write, 0, b"short lease")
    clock.advance(2.01)  # just past expiry
    with pytest.raises(Expired):
        depot.load(caps.read, 0, 1)
    clock.advance(1.0)  # one sweep period later the sweeper reclaims it
    depot.sweep_leases()
    with pytest.raises(NoSuchAllocation):
        depot.load(caps.read, 0, 1)

    # Renewal: lease 10 s, renew_before 5 s, check period 1 s; the file must
    # survive 60 s (six lifetimes) of continuous reads with zero failures.
    with SimCluster(3, virtual_time=True) as cluster:
        data = random.Random(0x1EA5E).randbytes(30_000)
        x = upload(data, cluster.addrs(), chunk_size=8192, k=2, lease_s=10)
        from ebp.exnode import write_exnode

        path = tmp_path / "leased.xnd.json"
        write_exnode(str(path), x)
        sched = LodnScheduler(lease_duration_s=10, timeout_ms=1000)
        sched.adopt(
            str(path),
            Policy(replicas=2, renew_before=5, check_period=1,
                   preferred_depots=tuple(cluster.addrs())),
        )
        read_failures = 0
        for _second in range(60):
            cluster.advance(1)
            report = sched.tick()
            assert report.failures == [], report.failures
            from ebp.exnode import read_exnode

            if download(read_exnode(str(path)), timeout_ms=1000) != data:
                read_failures += 1
        assert read_failures == 0


# =========================================================================
# 3. Capability security: 1000 single-bit-flipped keys, zero false accepts.
# =========================================================================


@criterion("3", "capability security: 1000 bit-flipped keys all rejected")
def test_acceptance_3_capability_security():
    depot = Depot(DepotConfig(total_capacity=1 << 20), addr="127.0.0.1:9")
    caps = depot.allocate(256, 3600, Hardness.SOFT)
    depot.store(caps.write, 0, b"classified" * 25)
    rng = random.Random(0x5EC)
    rejections = 0
    for trial in range(1000):
        source = (caps.read, caps.write, caps.manage)[trial % 3]
        raw = bytearray(bytes.fromhex(source.key))
        bit = rng.randrange(160)
        raw[bit // 8] ^= 1 << (bit % 8)
        forged = Capability(source.depot_addr, source.alloc_id, source.kind, raw.hex())
        try:
            if forged.kind is Kind.READ:
                depot.load(forged, 0, 1)
            elif forged.kind is Kind.WRITE:
                depot.store(forged, 0, b"!")
            else:
                depot.probe(forged)
        except BadCapability:
            rejections += 1
    assert rejections == 1000  # zero false accepts


# =========================================================================
# 4. Best-effort failure model: faulted stores and failed transforms always
#    flag unknown state; silent corruption is impossible (0 tolerance).
# =========================================================================


@criterion("4", "failure model: unknown-state flag on every fault, 0 tolerance")
def test_acceptance_4_best_effort_failure_model():
    rng = random.Random(0xFA17)
    capacity = 512 * 1024
    depot = Depot(DepotConfig(total_capacity=8 * MIB), addr="127.0.0.1:9")
    caps = depot.allocate(capacity, 3600, Hardness.SOFT)
    oracle = bytearray(capacity)
    depot.store(caps.write, 0, bytes(oracle))

    class InjectedFault(Exception):
        pass

    faults = 0
    for _round in range(120):
        offset = rng.randrange(0, capacity // 2)
        payload = rng.randbytes(rng.randrange(1, capacity - offset))
        inject_at = rng.randrange(1, len(payload) + 1) if rng.random() < 0.5 else None
        if inject_at is not None:
            def hook(_alloc_id, written, limit=inject_at):
                if written >= limit:
                    raise InjectedFault()

            depot.store_fault_hook = hook
        try:
            depot.store(caps.write, offset, payload)
            oracle[offset : offset + len(payload)] = payload
        except InjectedFault:
            faults += 1
            # Every injected mid-store fault leaves the target flagged.
            assert depot.load(caps.read, 0, 1).unknown_state is True
        finally:
            depot.store_fault_hook = None
        # Zero tolerance: bytes that differ from the oracle must carry the flag.
        state = depot.load(caps.read, 0, depot.probe(caps.manage).used)
        if state.data != bytes(oracle[: len(state.data)]):
            assert state.unknown_state is True, "silent corruption detected"
        if state.unknown_state:
            # Re-define the whole buffer; the flag must clear.
            fresh = rng.randbytes(capacity)
            depot.store(caps.write, 0, fresh)
            oracle[:] = fresh
            assert depot.load(caps.read, 0, 4).unknown_state is False
    assert faults >= 30  # the schedule actually exercised the fault path

    # Failed transforms: every failure flags every output as unknown.
    engine = NfuEngine(depot)
    for trial in range(40):
        src = depot.allocate(1000, 3600, Hardness.SOFT)
        depot.store(src.write, 0, rng.randbytes(1000))
        out = depot.allocate(1000, 3600, Hardness.SOFT)
        depot.store(out.write, 0, b"defined" * 100)
        if trial % 2:
            spec = TransformSpec(  # io budget too small: BUDGET_EXCEEDED
                "copy-range", (src.read,), (out.write,), {"length": "1000"},
                ResourceBudget(10_000, 1 << 20, rng.randrange(1, 999)),
            )
        else:
            spec = TransformSpec(  # malformed params: OP_FAULT
                "fill", (src.read,), (out.write,), {"value": "300", "length": "10"},
                ResourceBudget(10_000, 1 << 20, 1 << 20),
            )
        result = engine.execute(spec)
        assert result.status is not TransformStatus.OK
        assert result.outputs_state is OutputsState.UNKNOWN
        assert depot.load(out.read, 0, 1).unknown_state is True
        depot.release(src.manage)
        depot.release(out.manage)


# =========================================================================
# 5. QoS tiers and overbooking: exhaustive scripts vs brute-force accountant.
# =========================================================================

TOTAL = 100
BETA = 1.5
ALLOC_CAP = 40


class FullAccountant:
    """Independent replay of admission, growth and preemption over one depot.

    Dumb on purpose: pools recomputed from scratch at every step.
    """

    def __init__(self):
        self.live = {}  # id -> [tier, capacity, expiry, committed]
        self.next_id = 1

    def pools(self):
        hard = sum(a[1] for a in self.live.values() if a[0] is Hardness.HARD)
        soft = sum(a[1] for a in self.live.values() if a[0] is Hardness.SOFT)
        in_use = sum(a[3] for a in self.live.values())
        return hard, soft, in_use

    def allocate(self, tier, capacity, expiry):
        hard, soft, in_use = self.pools()
        if tier is Hardness.HARD:
            ok = hard + capacity <= TOTAL
            if ok:
                while True:
                    _, soft_now, _ = self.pools()
                    if hard + capacity + soft_now <= BETA * TOTAL:
                        break
                    victim = min(
                        (i for i, a in self.live.items() if a[0] is Hardness.SOFT),
                        key=lambda i: (self.live[i][2], i),
                    )
                    del self.live[victim]
        elif tier is Hardness.SOFT:
            ok = hard + soft + capacity <= BETA * TOTAL
        else:
            ok = in_use + capacity <= TOTAL
        if not ok:
            return None
        alloc_id = self.next_id
        self.next_id += 1
        self.live[alloc_id] = [tier, capacity, expiry, 0]
        return alloc_id

    def release(self, alloc_id):
        del self.live[alloc_id]

    def fill(self, alloc_id):
        tier, capacity, _, committed = self.live[alloc_id]
        delta = capacity - committed
        if delta <= 0:
            return True
        _, _, in_use = self.pools()
        free = TOTAL - in_use
        if free < delta:
            shortfall = delta - free
            candidates = sorted(
                (
                    i
                    for i, a in self.live.items()
                    if a[0].rank < tier.rank and a[3] > 0 and i != alloc_id
                ),
                key=lambda i: (self.live[i][0].rank, self.live[i][2], i),
            )
            plan, freed = [], 0
            for i in candidates:
                if freed >= shortfall:
                    break
                plan.append(i)
                freed += self.live[i][3]
            if freed < shortfall:
                return False  # exhausted; nobody reclaimed
            for i in plan:
                del self.live[i]
        self.live[alloc_id][3] = capacity
        return True


def _run_admission_script(script) -> None:
    clock = FakeClock()
    depot = Depot(
        DepotConfig(total_capacity=TOTAL, max_alloc_size=TOTAL, overbook_factor=BETA),
        addr="127.0.0.1:9",
        clock=clock,
    )
    oracle = FullAccountant()
    caps_by_id = {}
    tier_by_id = {}
    tiers = {"H": Hardness.HARD, "S": Hardness.SOFT, "B": Hardness.BEST_EFFORT}
    for step, symbol in enumerate(script):
        if symbol == "R":
            victim = min(oracle.live) if oracle.live else None
            if victim is not None:
                depot.release(caps_by_id[victim].manage)
                oracle.release(victim)
        elif symbol == "F":
            target = max(oracle.live) if oracle.live else None
            if target is not None:
                before = set(depot._table)
                try:
                    depot.store(caps_by_id[target].write, 0, b"f" * ALLOC_CAP)
                    stored = True
                except ResourceExhausted:
                    stored = False
                assert stored == oracle.fill(target), f"{script} step {step}"
                victims = before - set(depot._table)
                # Ordering safety: no soft victim may be preempted while an
                # eligible best-effort victim (committed bytes) survived.
                soft_victims = [i for i in victims if tier_by_id[i] is Hardness.SOFT]
                if soft_victims:
                    survivors_be = [
                        a
                        for a in depot._table.values()
                        if a.hardness is Hardness.BEST_EFFORT
                        and len(a.data) > 0
                        and a.alloc_id != target
                    ]
                    assert not survivors_be, f"{script} step {step}: soft before best-effort"
        else:
            tier = tiers[symbol]
            try:
                caps = depot.allocate(ALLOC_CAP, 600, tier)
                got = caps.manage.alloc_id
                caps_by_id[got] = caps
                tier_by_id[got] = tier
            except AdmissionDenied:
                got = None
            expected = oracle.allocate(tier, ALLOC_CAP, clock.t + 600)
            assert got == expected, f"{script} step {step}: {got} != {expected}"
        # Full-state equivalence after every call.
        stats = depot.stats()
        hard, soft, in_use = oracle.pools()
        assert set(depot._table) == set(oracle.live), f"{script} step {step}"
        assert (stats.sum_hard, stats.sum_soft, stats.bytes_in_use) == (hard, soft, in_use)
        assert stats.sum_hard <= TOTAL
        assert stats.sum_hard + stats.sum_soft <= BETA * TOTAL
        assert stats.preemptions[Hardness.HARD] == 0  # hard is never preempted


@criterion("5", "QoS tiers and overbooking match the brute-force accountant")
def test_acceptance_5_qos_tiers_and_overbooking():
    import itertools

    # Phase A: the criterion's exact alphabet, exhaustively to length 6.
    for length in range(1, 7):
        for script in itertools.product("HSBR", repeat=length):
            _run_admission_script(script)
    # Phase B: add stores (F fills the newest allocation) so physical
    # preemption actually fires; exhaustive to length 5.
    for length in range(1, 6):
        for script in itertools.product("HSBFR", repeat=length):
            if "F" in script:
                _run_admission_script(script)


# =========================================================================
# 6. DAG ordering and anti-stutter under loss, duplication, reordering.
# =========================================================================


@criterion("6", "DAG order + exactly-once under loss/dup/reorder, 100 trials")
def test_acceptance_6_dag_ordering_and_anti_stutter():
    trials = 100
    ops_per_trial = 1000
    slots = 64
    slot_bytes = 16
    capacity = slots * slot_bytes
    for trial in range(trials):
        rng = random.Random(0xDA6 + trial)
        loop = EventLoop()
        fabric = Fabric(loop, seed=trial)
        server = DepotServer(DepotConfig(total_capacity=1 << 20, listen_addr="127.0.0.1:9"))
        depot = server.depot
        endpoint = DatagramDepot("d0", server, fabric)
        client = DatagramClient("client", fabric)
        from ebp.simnet import LinkParams

        loss = rng.uniform(0.0, 0.3)
        for src, dst in (("client", "d0"), ("d0", "client")):
            fabric.set_link(src, dst, LinkParams(
                latency_ms=rng.uniform(0.5, 3.0),
                loss_rate=loss,
                dup_rate=rng.uniform(0.0, 0.5),
                reorder_rate=0.5,
                reorder_spread_ms=25.0,
            ))
        caps = depot.allocate(capacity, 3600, Hardness.SOFT)
        depot.store(caps.write, 0, bytes(capacity))

        # Random DAG: each op overwrites one slot and depends on the previous
        # writer of that slot (necessary order) plus random extras (fan-in<=16).
        oracle = bytearray(capacity)
        last_writer = {}
        op_ids = []
        for i in range(ops_per_trial):
            slot = rng.randrange(slots)
            payload = rng.randbytes(slot_bytes)
            deps = set()
            if slot in last_writer:
                deps.add(last_writer[slot])
            extras = rng.randrange(0, 4) if rng.random() < 0.9 else rng.randrange(0, 16)
            want = min(len(deps) + extras, 16, len(op_ids))
            while len(deps) < want:
                deps.add(rng.choice(op_ids))
            op_id = client.submit(
                "d0",
                StoreRequest(caps.write, slot * slot_bytes, payload),
                deps=tuple(sorted(deps)),
            )
            last_writer[slot] = op_id
            op_ids.append(op_id)
            oracle[slot * slot_bytes : (slot + 1) * slot_bytes] = payload

        loop.run_until_idle()
        rounds = 0
        while client.gave_up() and rounds < 60:
            for op_id in client.gave_up():
                client.rearm(op_id)
            loop.run_until_idle()
            rounds += 1
        assert not client.gave_up(), f"trial {trial}: ops never delivered"
        # Exactly-once side effects.
        assert sorted(endpoint.exec_counts) == op_ids
        assert all(n == 1 for n in endpoint.exec_counts.values()), f"trial {trial}"
        # Final state equals the topological-order oracle.
        assert depot.load(caps.read, 0, capacity).data == bytes(oracle), f"trial {trial}"
        # And every response was a success.
        for op_id in op_ids:
            kind, _ = parse_response_header(client.ops[op_id].response)
            assert kind == "OK"


# =========================================================================
# 7. Replica failover: exhaustive single-depot failures, repair in one tick.
# =========================================================================


@criterion("7", "failover for every single-depot failure; repair in one tick")
def test_acceptance_7_replica_failover(tmp_path):
    with SimCluster(4) as cluster:
        for victim in cluster.names():
            data = random.Random(hash(victim) & 0xFFFF).randbytes(1_500_000)
            x = upload(data, cluster.addrs(), chunk_size=256 * 1024, k=2)
            from ebp.exnode import read_exnode, write_exnode

            path = tmp_path / f"failover-{victim}.xnd.json"
            write_exnode(str(path), x)
            dead_addr = cluster.handle(victim).addr
            cluster.kill(victim)
            # Download succeeds with any single depot dark.
            assert download(x, timeout_ms=600) == data, f"failover past {victim}"
            # One scheduler tick restores k=2 everywhere.
            sched = LodnScheduler(lease_duration_s=3600, timeout_ms=600)
            sched.adopt(
                str(path),
                Policy(replicas=2, renew_before=5, check_period=1,
                       preferred_depots=tuple(cluster.addrs())),
            )
            report = sched.tick()
            lost = sum(
                1 for e in x.extents if any(r.depot_addr == dead_addr for r in e.replicas)
            )
            assert report.repairs == lost
            repaired = read_exnode(str(path))
            for extent in repaired.extents:
                live = [r for r in extent.replicas if r.depot_addr != dead_addr]
                assert len(live) >= 2, f"extent {extent.offset} under-replicated"
            assert download(repaired, timeout_ms=600) == data
            release_all(repaired, timeout_ms=600)
            cluster.restart(victim)


# =========================================================================
# 8. Wire conformance: goldens round-trip; 100k-request fuzzer, no crashes.
# =========================================================================


@criterion("8", "wire conformance: goldens exact; 100k fuzz, only known errors")
def test_acceptance_8_wire_conformance():
    for request, frozen in GOLDEN:
        assert encode_request(request) == frozen
        decoded, consumed = decode_request(frozen)
        assert decoded == request and consumed == len(frozen)
    assert len({req.verb for req, _ in GOLDEN}) == 9

    documented = {cls.code for cls in EbpError.__subclasses__()}
    host = DepotServer(DepotConfig(total_capacity=1 << 20, listen_addr="127.0.0.1:9"))
    depot = host.depot
    seed_caps = depot.allocate(128, 3600, Hardness.SOFT)
    depot.store(seed_caps.write, 0, b"s" * 128)
    rng = random.Random(0xF022)
    golden_blobs = [blob for _, blob in GOLDEN]
    outcomes = {"malformed": 0, "dispatched": 0}
    for _ in range(100_000):
        mode = rng.randrange(4)
        if mode == 0:
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 100)))
        elif mode == 1:
            blob = bytearray(rng.choice(golden_blobs))
            for _flip in range(rng.randrange(1, 4)):
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            blob = bytes(blob)
        elif mode == 2:
            tokens = rng.choice(golden_blobs).split(b"\n")[0].split(b" ")
            rng.shuffle(tokens)
            blob = b" ".join(tokens[: rng.randrange(1, len(tokens) + 1)]) + b"\n"
        else:
            cap = rng.choice([seed_caps.read, seed_caps.write, seed_caps.manage])
            verb = rng.choice(["LOAD", "PROBE", "RENEW", "RELEASE", "STORE"])
            line = {
                "LOAD": f"LOAD {cap.text()} {rng.randrange(200)} {rng.randrange(200)}\n",
                "PROBE": f"PROBE {cap.text()}\n",
                "RENEW": f"RENEW {cap.text()} {rng.randrange(1, 9000)}\n",
                "RELEASE": f"RELEASE {cap.text()}\n",
                "STORE": f"STORE {cap.text()} {rng.randrange(200)} 3\nxyz",
            }[verb]
            blob = line.encode()
        try:
            request, _ = decode_request(blob)
        except MalformedFrame:
            outcomes["malformed"] += 1
            continue
        response = dispatch_request(request, host)
        outcomes["dispatched"] += 1
        assert isinstance(response, (OkResponse, ErrResponse))
        if isinstance(response, ErrResponse):
            assert response.code in documented, f"undocumented code {response.code}"
    assert outcomes["malformed"] > 0 and outcomes["dispatched"] > 0
    # The depot survived all of it and accounting is still coherent.
    stats = depot.stats()
    assert stats.bytes_in_use <= depot.config.total_capacity
    assert stats.sum_hard <= depot.config.total_capacity


# =========================================================================
# 9. NFU budgets: enforced during execution; crc32 check value exact.
# =========================================================================


def crc32_reference(data: bytes) -> int:
    crc = 0xFFFFFFFF
    for b in data:
        crc ^= b
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


@criterion("9", "NFU budgets enforced within one 50ms quantum; crc32 exact")
def test_acceptance_9_nfu_budgets():
    depot = Depot(DepotConfig(total_capacity=64 * MIB), addr="127.0.0.1:9")
    engine = NfuEngine(depot)

    def buffers(content: bytes, out_capacity: int):
        src = depot.allocate(max(len(content), 1), 3600, Hardness.SOFT)
        if content:
            depot.store(src.write, 0, content)
        dst = depot.allocate(out_capacity, 3600, Hardness.SOFT)
        return src, dst

    # io budget: exceeded and measured usage <= budget.
    src, dst = buffers(b"a" * 1000, 1000)
    result = engine.execute(TransformSpec(
        "copy-range", (src.read,), (dst.write,), {"length": "1000"},
        ResourceBudget(10_000, 1 << 20, 700),
    ))
    assert result.status is TransformStatus.BUDGET_EXCEEDED
    assert result.io_bytes_used <= 700

    # scratch budget.
    src, dst = buffers(bytes(range(256)) * 8, 4096)
    result = engine.execute(TransformSpec(
        "rle-compress", (src.read,), (dst.write,), {},
        ResourceBudget(10_000, 64, 1 << 20),
    ))
    assert result.status is TransformStatus.BUDGET_EXCEEDED

    # wall budget: exceeded with <= one 50 ms scheduling quantum of overshoot.
    src, dst = buffers(bytes(range(256)) * 16384, 8 * MIB)  # 4 MiB, incompressible
    result = engine.execute(TransformSpec(
        "rle-compress", (src.read,), (dst.write,), {},
        ResourceBudget(1, 1 << 24, 1 << 26),
    ))
    assert result.status is TransformStatus.BUDGET_EXCEEDED
    assert result.wall_ms_used <= 1 + 50

    # Ok runs never exceed any dimension.
    rng = random.Random(0xB06)
    for _ in range(25):
        payload = rng.randbytes(rng.randrange(1, 40_000))
        src, dst = buffers(payload, 32)
        budget = ResourceBudget(
            rng.randrange(50, 2000), rng.randrange(64, 1 << 16), rng.randrange(64, 1 << 18)
        )
        result = engine.execute(TransformSpec(
            "checksum-sha256", (src.read,), (dst.write,), {}, budget
        ))
        assert result.io_bytes_used <= budget.max_io_bytes
        assert result.wall_ms_used <= budget.max_wall_ms + 50

    # The reference check value, computed independently of the engine.
    assert crc32_reference(b"123456789") == 0xCBF43926
    src, dst = buffers(b"123456789", 4)
    result = engine.execute(TransformSpec(
        "checksum-crc32", (src.read,), (dst.write,), {},
        ResourceBudget(5000, 1 << 20, 1 << 20),
    ))
    assert result.status is TransformStatus.OK
    assert depot.load(dst.read, 0, 4).data == (0xCBF43926).to_bytes(4, "big")
