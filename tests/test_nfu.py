"""Transform engine: built-ins, budget enforcement, failure semantics."""

from __future__ import annotations

import random
import socket

import pytest
from hypothesis import given, settings, strategies as st

from ebp.capability import Capability, Hardness, Kind
from ebp.depot import Depot, DepotConfig
from ebp.errors import BadCapability, Expired, NotLocal, UnknownOperation
from ebp.nfu import (
    OPS,
    NfuEngine,
    OutputsState,
    ResourceBudget,
    TransformSpec,
    TransformStatus,
)

BIG = ResourceBudget(max_wall_ms=10_000, max_scratch_bytes=64 * 1024 * 1024, max_io_bytes=256 * 1024 * 1024)


def crc32_reference(data: bytes) -> int:
    """Bitwise CRC-32 (reflected, poly 0xEDB88320); independent of zlib."""
    crc = 0xFFFFFFFF
    for b in data:
        crc ^= b
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


@pytest.fixture
def rig():
    depot = Depot(DepotConfig(total_capacity=256 * 1024 * 1024), addr="127.0.0.1:9")
    return depot, NfuEngine(depot)


def buf(depot, content=b"", capacity=None):
    caps = depot.allocate(capacity or max(len(content), 1), 600, Hardness.SOFT)
    if content:
        depot.store(caps.write, 0, content)
    return caps


def run(engine, op, inputs, outputs, params=None, budget=BIG):
    spec = TransformSpec(
        op_name=op,
        inputs=tuple(c.read for c in inputs),
        outputs=tuple(c.write for c in outputs),
        params=params or {},
        budget=budget,
    )
    return engine.execute(spec)


# ---------------------------------------------------------------- registry


def test_registry_ships_exactly_the_builtins():
    assert tuple(sorted(OPS)) == (
        "checksum-crc32",
        "checksum-sha256",
        "copy-range",
        "fill",
        "rle-compress",
        "rle-decompress",
        "xor",
    )
    with pytest.raises(TypeError):
        OPS["xor"] = lambda ctx: None


def test_unknown_operation(rig):
    depot, engine = rig
    a = buf(depot, b"x")
    with pytest.raises(UnknownOperation):
        run(engine, "no-such-op", [a], [a])


# --------------------------------------------------------------- built-ins


def test_xor_bitwise_identity(rig):
    depot, engine = rig
    a = buf(depot, bytes([0xFF, 0x00]))
    b = buf(depot, bytes([0x0F, 0x0F]))
    c = buf(depot, capacity=2)
    result = run(engine, "xor", [a, b], [c])
    assert result.status is TransformStatus.OK
    assert depot.load(c.read, 0, 2).data == bytes([0xF0, 0x0F])


def test_crc32_standard_check_value(rig):
    # Reference value computed with the bitwise implementation above,
    # frozen before the engine existed: crc32("123456789") == 0xCBF43926.
    assert crc32_reference(b"123456789") == 0xCBF43926
    depot, engine = rig
    src = buf(depot, b"123456789")
    dst = buf(depot, capacity=4)
    result = run(engine, "checksum-crc32", [src], [dst])
    assert result.status is TransformStatus.OK
    assert depot.load(dst.read, 0, 4).data == (0xCBF43926).to_bytes(4, "big")


def test_crc32_matches_reference_on_random_payloads(rig):
    depot, engine = rig
    rng = random.Random(5)
    for size in (0, 1, 1000, 70_000):
        payload = rng.randbytes(size)
        src = buf(depot, payload, capacity=max(size, 1))
        dst = buf(depot, capacity=4)
        run(engine, "checksum-crc32", [src], [dst])
        expected = crc32_reference(payload)
        assert depot.load(dst.read, 0, 4).data == expected.to_bytes(4, "big")


def test_sha256_nist_vector(rig):
    depot, engine = rig
    src = buf(depot, b"abc")
    dst = buf(depot, capacity=32)
    run(engine, "checksum-sha256", [src], [dst])
    assert (
        depot.load(dst.read, 0, 32).data.hex()
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_copy_range(rig):
    depot, engine = rig
    src = buf(depot, b"hello world")
    dst = buf(depot, capacity=5)
    run(engine, "copy-range", [src], [dst], {"src_offset": "6", "length": "5"})
    assert depot.load(dst.read, 0, 5).data == b"world"


def test_fill(rig):
    depot, engine = rig
    src = buf(depot, b"x")
    dst = buf(depot, capacity=8)
    run(engine, "fill", [src], [dst], {"value": "170", "length": "8"})
    assert depot.load(dst.read, 0, 8).data == bytes([170] * 8)


def rle_reference(data: bytes) -> bytes:
    """Independent RLE oracle: pairs of (run length 1-255, value)."""
    out = bytearray()
    i = 0
    while i < len(data):
        j = i
        while j < len(data) and data[j] == data[i] and j - i < 255:
            j += 1
        out += bytes((j - i, data[i]))
        i = j
    return bytes(out)


def test_rle_roundtrip_of_random_64k(rig):
    depot, engine = rig
    rng = random.Random(17)
    # Mix of compressible runs and noise.
    payload = b"".join(
        bytes([rng.randrange(256)]) * rng.randrange(1, 40) for _ in range(3000)
    )[: 64 * 1024]
    src = buf(depot, payload)
    packed = buf(depot, capacity=2 * len(payload))
    run(engine, "rle-compress", [src], [packed])
    packed_used = depot.probe(packed.manage).used
    assert depot.load(packed.read, 0, packed_used).data == rle_reference(payload)
    restored = buf(depot, capacity=len(payload))
    run(engine, "rle-decompress", [packed], [restored])
    n = depot.probe(restored.manage).used
    assert depot.load(restored.read, 0, n).data == payload


@given(payload=st.binary(max_size=2000))
@settings(max_examples=60, deadline=None)
def test_rle_roundtrip_property(payload):
    depot = Depot(DepotConfig(total_capacity=1 << 22), addr="127.0.0.1:9")
    engine = NfuEngine(depot)
    src = buf(depot, payload, capacity=max(len(payload), 1))
    packed = buf(depot, capacity=2 * len(payload) + 2)
    run(engine, "rle-compress", [src], [packed])
    n = depot.probe(packed.manage).used
    assert depot.load(packed.read, 0, n).data == rle_reference(payload)
    restored = buf(depot, capacity=max(len(payload), 1))
    run(engine, "rle-decompress", [packed], [restored])
    m = depot.probe(restored.manage).used
    assert depot.load(restored.read, 0, m).data == payload


def test_rle_decompress_rejects_malformed(rig):
    depot, engine = rig
    bad = buf(depot, bytes([0, 65]))  # zero-length run
    out = buf(depot, capacity=16)
    result = run(engine, "rle-decompress", [bad], [out])
    assert result.status is TransformStatus.OP_FAULT
    odd = buf(depot, bytes([3]))
    result = run(engine, "rle-decompress", [odd], [out])
    assert result.status is TransformStatus.OP_FAULT


# The kernels read in 64 KiB chunks; these inputs put runs, stretches of
# single bytes and faults on and across the chunk boundaries.
CHUNK = 64 * 1024


def rle_expand_reference(packed: bytes) -> bytes:
    """Inverse of ``rle_reference``: expand each (count, value) pair."""
    return b"".join(bytes([packed[i + 1]]) * packed[i] for i in range(0, len(packed), 2))


def rle_model_check(depot, engine, payload: bytes) -> None:
    """Both kernels against the oracles; ok runs meter exactly read + written."""
    src = buf(depot, payload, capacity=max(len(payload), 1))
    packed = buf(depot, capacity=2 * len(payload) + 2)
    result = run(engine, "rle-compress", [src], [packed])
    assert result.status is TransformStatus.OK
    n = depot.probe(packed.manage).used
    encoded = depot.load(packed.read, 0, n).data
    assert encoded == rle_reference(payload)
    assert result.io_bytes_used == len(payload) + n
    restored = buf(depot, capacity=max(len(payload), 1))
    result = run(engine, "rle-decompress", [packed], [restored])
    assert result.status is TransformStatus.OK
    m = depot.probe(restored.manage).used
    assert depot.load(restored.read, 0, m).data == payload == rle_expand_reference(encoded)
    assert result.io_bytes_used == n + m
    for caps in (src, packed, restored):
        depot.release(caps.manage)


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"x",
        *(b"a" * n for n in (254, 255, 256, 510, 511)),
        b"p" * (CHUNK - 300) + b"q" * 600 + b"r",  # run straddles offset 65536
        b"p" * CHUNK + b"q" * CHUNK,  # runs end and start on the boundary
        b"s" * 7 + b"t" * (2 * CHUNK + 100) + b"u",  # run spans three chunks
        bytes(range(256)) * 600,
        b"ab" * 70_000,
    ],
    ids=lambda p: f"{len(p)}B",
)
def test_rle_kernels_match_model_at_chunk_boundaries(rig, payload):
    rle_model_check(*rig, payload)


@given(
    runs=st.lists(
        st.tuples(
            st.integers(0, 255),
            st.one_of(st.integers(1, 3), st.integers(250, 260), st.integers(1, 70_000)),
        ),
        max_size=40,
    )
)
@settings(max_examples=20, deadline=None)
def test_rle_kernels_match_model_on_generated_runs(runs):
    payload = b"".join(bytes([value]) * length for value, length in runs)[: 200 * 1024]
    depot = Depot(DepotConfig(total_capacity=1 << 24), addr="127.0.0.1:9")
    rle_model_check(depot, NfuEngine(depot), payload)


def test_rle_decompress_single_counts_between_long_counts(rig):
    depot, engine = rig
    # Stretches of count 1 between long counts, crossing the chunk boundary.
    packed = bytes((200, 97, 1, 98, 1, 99, 1, 100, 255, 101, 1, 102, 9, 103)) * 5000
    src = buf(depot, packed)
    expected = rle_expand_reference(packed)
    out = buf(depot, capacity=len(expected))
    result = run(engine, "rle-decompress", [src], [out])
    assert result.status is TransformStatus.OK
    assert depot.load(out.read, 0, len(expected)).data == expected
    assert result.io_bytes_used == len(packed) + len(expected)


@pytest.mark.parametrize(
    "packed",
    [
        b"\x02a" * 40_000 + b"\x00b" + b"\x02a" * 10,  # zero count in the second chunk
        b"\x03z" * 33_000 + b"\x07",  # odd length, the stray byte past the boundary
    ],
    ids=["zero-count", "odd-length"],
)
def test_rle_decompress_faults_past_first_chunk(rig, packed):
    depot, engine = rig
    src = buf(depot, packed)
    out = buf(depot, capacity=1 << 20)
    result = run(engine, "rle-decompress", [src], [out])
    assert result.status is TransformStatus.OP_FAULT
    assert result.outputs_state is OutputsState.UNKNOWN
    assert depot.load(out.read, 0, 0).unknown_state is True


def test_xor_length_mismatch_is_op_fault(rig):
    depot, engine = rig
    a = buf(depot, b"abc")
    b = buf(depot, b"ab")
    c = buf(depot, capacity=3)
    result = run(engine, "xor", [a, b], [c])
    assert result.status is TransformStatus.OP_FAULT
    assert result.outputs_state is OutputsState.UNKNOWN


def test_determinism_repeated_runs_byte_identical(rig):
    depot, engine = rig
    rng = random.Random(23)
    payload = rng.randbytes(10_000)
    src = buf(depot, payload)
    outs = []
    for _ in range(2):
        dst = buf(depot, capacity=2 * len(payload))
        run(engine, "rle-compress", [src], [dst])
        n = depot.probe(dst.manage).used
        outs.append(depot.load(dst.read, 0, n).data)
    assert outs[0] == outs[1]


# ------------------------------------------------------------ budget rules


def test_io_budget_exceeded_flags_output_unknown(rig):
    depot, engine = rig
    src = buf(depot, b"a" * 100)
    dst = buf(depot, capacity=100)
    tight = ResourceBudget(max_wall_ms=10_000, max_scratch_bytes=1 << 20, max_io_bytes=50)
    result = run(engine, "copy-range", [src], [dst], {"length": "100"}, budget=tight)
    assert result.status is TransformStatus.BUDGET_EXCEEDED
    assert result.io_bytes_used <= 50
    assert result.outputs_state is OutputsState.UNKNOWN
    assert depot.load(dst.read, 0, 0).unknown_state is True


def test_scratch_budget_enforced(rig):
    depot, engine = rig
    src = buf(depot, b"ab" * 500)
    dst = buf(depot, capacity=2000)
    tight = ResourceBudget(max_wall_ms=10_000, max_scratch_bytes=100, max_io_bytes=1 << 20)
    result = run(engine, "rle-compress", [src], [dst], budget=tight)
    assert result.status is TransformStatus.BUDGET_EXCEEDED


def test_rle_compress_charges_a_long_run_chunk_by_chunk(rig):
    # The first chunk's 257 pairs of 255 go over the scratch budget before
    # the second chunk is read, although the run goes on to the end.
    depot, engine = rig
    src = buf(depot, b"a" * (3 * CHUNK))
    dst = buf(depot, capacity=2048)
    tight = ResourceBudget(max_wall_ms=10_000, max_scratch_bytes=100, max_io_bytes=1 << 20)
    result = run(engine, "rle-compress", [src], [dst], budget=tight)
    assert result.status is TransformStatus.BUDGET_EXCEEDED
    assert result.io_bytes_used == CHUNK


def test_wall_budget_enforced_with_slack(rig):
    depot, engine = rig
    # 4 MiB of incompressible data: a full pass takes well over ten times the
    # 1 ms budget, so the run has to be stopped part-way.
    payload = bytes(range(256)) * 16384
    src = buf(depot, payload)
    dst = buf(depot, capacity=2 * len(payload))
    tight = ResourceBudget(max_wall_ms=1, max_scratch_bytes=1 << 24, max_io_bytes=1 << 26)
    result = run(engine, "rle-compress", [src], [dst], budget=tight)
    assert result.status is TransformStatus.BUDGET_EXCEEDED
    assert result.wall_ms_used <= 1 + 50  # budget + one scheduling quantum


def test_budget_fields_must_be_positive():
    with pytest.raises(ValueError):
        ResourceBudget(0, 1, 1)
    with pytest.raises(ValueError):
        ResourceBudget(1, -1, 1)


def test_ok_runs_stay_within_budget_random(rig):
    depot, engine = rig
    rng = random.Random(31)
    for _ in range(10):
        size = rng.randrange(1, 20_000)
        payload = rng.randbytes(size)
        src = buf(depot, payload)
        dst = buf(depot, capacity=4)
        budget = ResourceBudget(
            max_wall_ms=rng.randrange(100, 5000),
            max_scratch_bytes=rng.randrange(1, 1 << 20),
            max_io_bytes=rng.randrange(1, 1 << 20),
        )
        result = run(engine, "checksum-crc32", [src], [dst], budget=budget)
        assert result.io_bytes_used <= budget.max_io_bytes
        assert result.wall_ms_used <= budget.max_wall_ms + 50


# --------------------------------------------------------- failure model


def test_failed_transform_poisons_all_outputs(rig):
    depot, engine = rig
    a = buf(depot, b"abc")
    b = buf(depot, b"xy")
    out = buf(depot, b"seeded", capacity=6)
    result = run(engine, "xor", [a, b], [out])
    assert result.status is TransformStatus.OP_FAULT
    assert depot.load(out.read, 0, 6).unknown_state is True
    # Partial overwrite leaves the flag; full-capacity store clears it.
    depot.store(out.write, 0, b"zz")
    assert depot.load(out.read, 0, 6).unknown_state is True
    depot.store(out.write, 0, b"zzzzzz")
    assert depot.load(out.read, 0, 6).unknown_state is False


def test_successful_full_capacity_transform_clears_poison(rig):
    depot, engine = rig
    src = buf(depot, b"q" * 8)
    out = buf(depot, capacity=8)
    depot.mark_unknown(out.write)
    run(engine, "copy-range", [src], [out], {"length": "8"})
    assert depot.load(out.read, 0, 8).unknown_state is False


@pytest.mark.parametrize(
    "op, params",
    [("copy-range", {"length": "6"}), ("checksum-crc32", {}), ("rle-compress", {})],
)
def test_an_unknown_state_input_leaves_every_output_unknown_state(rig, op, params):
    depot, engine = rig
    src = buf(depot, b"abcdef")
    clean, out = buf(depot, capacity=64), buf(depot, capacity=64)
    assert run(engine, op, [src], [clean], params).outputs_state is OutputsState.DEFINED
    depot.mark_unknown(src.write)
    result = run(engine, op, [src], [out], params)
    assert (result.status, result.outputs_state) == (TransformStatus.OK, OutputsState.UNKNOWN)
    used = depot.used(out.read)
    assert depot.load(out.read, 0, used) == (depot.load(clean.read, 0, used).data, True)


def test_an_unknown_state_input_poisons_a_full_capacity_output(rig):
    """A whole-buffer write clears the flag, so the poison comes after it."""
    depot, engine = rig
    src = buf(depot, b"abcdef")
    empty = buf(depot, capacity=8)
    out = buf(depot, capacity=6)
    depot.mark_unknown(src.write)
    depot.mark_unknown(empty.write)
    assert run(engine, "copy-range", [src], [out], {"length": "6"}).outputs_state is OutputsState.UNKNOWN
    assert depot.load(out.read, 0, 6) == (b"abcdef", True)
    digest = buf(depot, capacity=4)
    result = run(engine, "checksum-crc32", [empty], [digest])
    assert result.outputs_state is OutputsState.UNKNOWN  # an empty input is read too
    assert depot.load(digest.read, 0, 4).unknown_state is True


def test_expired_input_rejected():
    t = [0.0]
    depot2 = Depot(DepotConfig(total_capacity=1 << 20), addr="127.0.0.1:9", clock=lambda: t[0])
    engine2 = NfuEngine(depot2)
    src = depot2.allocate(4, 2, Hardness.SOFT)
    depot2.store(src.write, 0, b"abcd")
    dst = depot2.allocate(4, 600, Hardness.SOFT)
    t[0] = 10.0
    with pytest.raises(Expired):
        run(engine2, "copy-range", [src], [dst], {"length": "4"})


def test_wrong_kind_capability_rejected(rig):
    depot, engine = rig
    a = buf(depot, b"ab")
    out = buf(depot, capacity=2)
    spec = TransformSpec(
        op_name="copy-range",
        inputs=(a.write,),  # write cap where read is required
        outputs=(out.write,),
        params={"length": "2"},
        budget=BIG,
    )
    with pytest.raises(BadCapability):
        engine.execute(spec)


def test_remote_capability_rejected_not_local(rig):
    depot, engine = rig
    a = buf(depot, b"ab")
    foreign = Capability("10.9.9.9:4000", 1, Kind.READ, "ab" * 20)
    spec = TransformSpec(
        op_name="checksum-crc32",
        inputs=(foreign,),
        outputs=(a.write,),
        params={},
        budget=BIG,
    )
    with pytest.raises(NotLocal):
        engine.execute(spec)


def test_execute_never_touches_the_network(rig, monkeypatch):
    depot, engine = rig

    def blocked(*args, **kwargs):
        raise AssertionError("transform opened a network connection")

    monkeypatch.setattr(socket, "socket", blocked)
    monkeypatch.setattr(socket, "create_connection", blocked)
    src = buf(depot, b"net-free")
    dst = buf(depot, capacity=4)
    result = run(engine, "checksum-crc32", [src], [dst])
    assert result.status is TransformStatus.OK


def test_transform_may_extend_used_up_to_capacity(rig):
    depot, engine = rig
    src = buf(depot, b"ab")
    out = buf(depot, capacity=16)  # used starts at 0
    run(engine, "fill", [src], [out], {"value": "7", "length": "16"})
    assert depot.probe(out.manage).used == 16


def test_transforms_with_overlapping_outputs_serialize(rig):
    import threading

    depot, engine = rig
    src_a = buf(depot, b"\x11" * 5000)
    src_b = buf(depot, b"\x22" * 5000)
    shared_out = buf(depot, capacity=5000)
    results = []

    def worker(src):
        results.append(
            run(engine, "copy-range", [src], [shared_out], {"length": "5000"})
        )

    threads = [threading.Thread(target=worker, args=(s,)) for s in (src_a, src_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r.status is TransformStatus.OK for r in results)
    final = depot.load(shared_out.read, 0, 5000).data
    # Serialized in some arrival order: the buffer holds exactly one result,
    # never an interleaving.
    assert final in (b"\x11" * 5000, b"\x22" * 5000)


def test_transforms_with_disjoint_outputs_run_concurrently(rig):
    import threading

    depot, engine = rig
    rng = random.Random(77)
    jobs = []
    for _ in range(8):
        payload = rng.randbytes(20_000)
        src = buf(depot, payload)
        dst = buf(depot, capacity=4)
        jobs.append((src, dst, payload))
    errors = []

    def worker(src, dst, payload):
        try:
            result = run(engine, "checksum-crc32", [src], [dst])
            assert result.status is TransformStatus.OK
            expected = crc32_reference(payload).to_bytes(4, "big")
            assert depot.load(dst.read, 0, 4).data == expected
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=j) for j in jobs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_output_lock_map_holds_only_live_work(rig):
    depot, engine = rig
    for _ in range(1000):
        out = buf(depot, capacity=8)
        assert run(engine, "fill", [], [out], {"value": "1", "length": "8"}).status is TransformStatus.OK
        depot.release(out.manage)
    assert depot.stats().live_allocations == 0
    assert engine._output_locks == {}


def test_output_lock_map_empties_after_contended_transforms(rig):
    import sys
    import threading

    depot, engine = rig
    shared = [buf(depot, capacity=64) for _ in range(2)]
    statuses = []

    def worker(n: int) -> None:
        for i in range(30):
            outs = [shared[(n + i) % 2]] + ([shared[(n + i + 1) % 2]] if i % 3 == 0 else [])
            statuses.append(run(engine, "fill", [], outs, {"value": str(n), "length": "64"}).status)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert statuses == [TransformStatus.OK] * 180
    assert engine._output_locks == {}
