"""File runtime: placement, failover download, transfer-based repair."""

from __future__ import annotations

import random
import socket
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ebp.client import DepotClient
from ebp.errors import ConnectionLost, EbpError, ExtentUnavailable, InsufficientDepots, ValidationFailed
from ebp.exnode import validate
from ebp.lors import download, release_all, repair, upload
from ebp.simnet import SimCluster

MIB = 1024 * 1024


@pytest.fixture
def cluster():
    with SimCluster(3) as c:
        yield c


def test_empty_upload_yields_empty_exnode(cluster):
    x = upload(b"", cluster.addrs(), chunk_size=MIB, k=2)
    assert x.total_length == 0
    assert x.extents == ()
    assert download(x) == b""


def test_round_robin_placement_rule(cluster):
    # 10 MiB in 4 MiB chunks over 3 depots with k=2:
    # chunk i takes depots (i, i+1) mod 3 -> (d0,d1), (d1,d2), (d2,d0).
    data = random.Random(0).randbytes(10 * MIB)
    addrs = cluster.addrs()
    x = upload(data, addrs, chunk_size=4 * MIB, k=2)
    placements = [tuple(r.depot_addr for r in e.replicas) for e in x.extents]
    expected = [
        (addrs[0], addrs[1]),
        (addrs[1], addrs[2]),
        (addrs[2], addrs[0]),
    ]
    assert placements == expected
    assert [e.length for e in x.extents] == [4 * MIB, 4 * MIB, 2 * MIB]
    assert validate(x) == []


def test_placement_is_deterministic(cluster):
    data = b"deterministic" * 1000
    a = upload(data, cluster.addrs(), chunk_size=4096, k=2)
    b = upload(data, cluster.addrs(), chunk_size=4096, k=2)
    assert [tuple(r.depot_addr for r in e.replicas) for e in a.extents] == [
        tuple(r.depot_addr for r in e.replicas) for e in b.extents
    ]


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_roundtrip_near_chunk_boundary(cluster, delta):
    size = 4096 + delta
    data = random.Random(size).randbytes(size)
    x = upload(data, cluster.addrs(), chunk_size=4096, k=2)
    assert download(x) == data


def test_roundtrip_one_byte_and_random(cluster):
    for size in (1, 777_777):
        data = random.Random(size).randbytes(size)
        x = upload(data, cluster.addrs(), chunk_size=256 * 1024, k=1)
        assert download(x) == data


def test_upload_with_dead_depot_uses_remaining(cluster):
    cluster.kill("d1")
    data = random.Random(1).randbytes(300_000)
    x = upload(data, cluster.addrs(), chunk_size=100_000, k=2, timeout_ms=500)
    assert download(x) == data
    used = {r.depot_addr for e in x.extents for r in e.replicas}
    assert cluster.handle("d1").addr not in used


def test_upload_insufficient_depots(cluster):
    cluster.kill("d0")
    cluster.kill("d1")
    data = b"x" * 10_000
    with pytest.raises(InsufficientDepots):
        upload(data, cluster.addrs(), chunk_size=4096, k=2, timeout_ms=500)


def live_allocations(cluster, addrs=None) -> list:
    out = []
    for addr in cluster.addrs() if addrs is None else addrs:
        with DepotClient(addr) as cli:
            out.append(cli.stats().live_allocations)
    return out


def test_failed_upload_releases_every_replica_it_placed():
    # d1 admits chunk 3 (soft pool 4500 bytes) but cannot hold its bytes.
    with SimCluster(2, per_depot_overrides=[{}, {"total_capacity": 3000}]) as small:
        with pytest.raises(InsufficientDepots):
            upload(b"x" * 5000, small.addrs(), chunk_size=1000, k=2, parallelism=1)
        assert live_allocations(small) == [0, 0]


def test_allocation_whose_store_failed_is_released_when_another_depot_takes_the_chunk():
    with SimCluster(3, per_depot_overrides=[{}, {"total_capacity": 3000}]) as small:
        x = upload(b"x" * 5000, small.addrs(), chunk_size=1000, k=2, parallelism=1)
        assert sum(live_allocations(small)) == 2 * len(x.extents)
        assert download(x) == b"x" * 5000


def test_upload_k_larger_than_depot_list_rejected(cluster):
    with pytest.raises(ValueError):
        upload(b"x", cluster.addrs(), chunk_size=1024, k=4)


def test_download_fails_over_to_second_replica(cluster):
    data = random.Random(2).randbytes(500_000)
    x = upload(data, cluster.addrs(), chunk_size=100_000, k=2)
    cluster.kill("d0")
    assert download(x, timeout_ms=500) == data


def test_download_all_replicas_dead_names_the_range(cluster):
    data = random.Random(3).randbytes(200_000)
    x = upload(data, cluster.addrs(), chunk_size=100_000, k=2)
    cluster.kill("d0")
    cluster.kill("d1")
    cluster.kill("d2")
    with pytest.raises(ExtentUnavailable) as excinfo:
        download(x, timeout_ms=300)
    assert "[0, 100000)" in str(excinfo.value) or "[100000, 200000)" in str(excinfo.value)


def test_download_rejects_invalid_exnode(cluster):
    x = upload(b"abc", cluster.addrs(), chunk_size=2, k=1)
    broken = x.__class__(
        total_length=x.total_length + 5,
        extents=x.extents,
        metadata=x.metadata,
        version=x.version,
    )
    with pytest.raises(ValidationFailed):
        download(broken)


def test_download_skips_unknown_state_replica(cluster):
    data = b"trusted bytes!!" * 100
    x = upload(data, cluster.addrs(), chunk_size=len(data), k=2)
    first = x.extents[0].replicas[0]
    with DepotClient(first.depot_addr) as cli:
        # Poison the first replica: a cut-off store marks it unknown.
        import socket

        host, port = first.depot_addr.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)))
        sock.sendall(f"STORE {first.write.text()} 0 50\nshort".encode())
        sock.close()
        import time

        deadline = time.time() + 5
        while time.time() < deadline:
            if cli.load(first.read, 0, 1).unknown_state:
                break
            time.sleep(0.05)
    assert download(x) == data  # second replica served it


def test_download_makes_at_most_one_connection_attempt_to_a_dead_depot(cluster, connections):
    data = random.Random(9).randbytes(48_000)
    x = upload(data, cluster.addrs(), chunk_size=1000, k=2)
    dead = cluster.handle("d0").addr
    cluster.kill("d0")
    connections.clear()
    assert download(x, parallelism=1, timeout_ms=500) == data
    assert connections[dead] <= 1


def test_download_waits_out_a_hung_depot_once(cluster):
    data = random.Random(10).randbytes(24_000)
    x = upload(data, cluster.addrs(), chunk_size=1000, k=2)
    hung = cluster.handle("d0").addr
    assert sum(e.replicas[0].depot_addr == hung for e in x.extents) == 8
    cluster.kill("d0")
    # A listener on the dead depot's port: connections open, no reply comes.
    host, port = hung.rsplit(":", 1)
    with socket.socket() as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, int(port)))
        listener.listen(16)
        started = time.monotonic()
        assert download(x, parallelism=1, timeout_ms=300) == data
        assert time.monotonic() - started < 0.6


def test_download_starts_no_extent_after_one_failed(cluster, monkeypatch):
    x = upload(b"z" * 10_000, cluster.addrs()[:1], chunk_size=1000, k=1)
    release_all(x)
    loads = Counter()
    real_load = DepotClient.load

    def counting_load(self, *args, **kwargs):
        loads[self.addr] += 1
        return real_load(self, *args, **kwargs)

    monkeypatch.setattr(DepotClient, "load", counting_load)
    with pytest.raises(ExtentUnavailable) as excinfo:
        download(x, parallelism=1)
    assert sum(loads.values()) == 1  # extent 0's one replica; extent 1 never starts
    assert "[0, 1000)" in str(excinfo.value)


# ------------------------------------------------------------------ repair


def test_repair_noop_when_all_extents_at_k(cluster):
    data = random.Random(4).randbytes(100_000)
    x = upload(data, cluster.addrs(), chunk_size=50_000, k=2)
    repaired = repair(x, 2, cluster.addrs())
    assert repaired == x  # structurally equal, untouched


def test_repair_creates_exactly_the_missing_replicas(cluster):
    data = random.Random(5).randbytes(100_000)
    x = upload(data, cluster.addrs(), chunk_size=50_000, k=2)
    dead = cluster.handle("d0").addr
    cluster.kill("d0")
    lost = sum(1 for e in x.extents if any(r.depot_addr == dead for r in e.replicas))
    repaired = repair(x, 2, cluster.addrs(), timeout_ms=500)
    changed = sum(1 for old, new in zip(x.extents, repaired.extents) if old != new)
    assert changed == lost
    for extent in repaired.extents:
        assert len([r for r in extent.replicas if r.depot_addr != dead]) >= 2
    assert download(repaired, timeout_ms=500) == data


def test_repair_moves_bytes_depot_to_depot_not_through_client(cluster, monkeypatch):
    data = random.Random(6).randbytes(256_000)
    x = upload(data, cluster.addrs(), chunk_size=128_000, k=2)
    cluster.kill("d2")

    # Traffic inspection: count payload bytes crossing the repairing client's
    # own sessions. Repair must move data depot-to-depot, so the client may
    # probe (1-byte loads) but never ferry extent bytes. The depots' own push
    # sessions share the class (and the session pool) in this process, so
    # only calls made on the repairing thread count.
    traffic = {"stored": 0, "loaded": 0}
    repairer = threading.get_ident()
    real_store, real_load = DepotClient.store, DepotClient.load

    def store(self, cap, offset, payload):
        if threading.get_ident() == repairer:
            traffic["stored"] += len(payload)
        return real_store(self, cap, offset, payload)

    def load(self, cap, offset, length):
        if threading.get_ident() == repairer:
            traffic["loaded"] += length
        return real_load(self, cap, offset, length)

    monkeypatch.setattr(DepotClient, "store", store)
    monkeypatch.setattr(DepotClient, "load", load)
    repaired = repair(x, 2, cluster.addrs(), timeout_ms=500)
    monkeypatch.undo()

    assert traffic["stored"] == 0  # zero payload pushed through the client
    replica_count = sum(len(e.replicas) for e in x.extents)
    assert 1 <= traffic["loaded"] <= replica_count  # only 1-byte liveness probes
    assert download(repaired, timeout_ms=500) == data
    # The source depots saw TRANSFER requests doing the real byte movement.
    transfers = sum(
        cluster.handle(name).server.verb_counts["TRANSFER"] for name in ("d0", "d1")
    )
    assert transfers >= 1


def test_repair_with_no_live_replica_is_extent_unavailable(cluster):
    data = b"q" * 10_000
    x = upload(data, cluster.addrs()[:1], chunk_size=10_000, k=1)
    cluster.kill("d0")
    with pytest.raises(ExtentUnavailable):
        repair(x, 1, cluster.addrs(), timeout_ms=300)


def test_failed_repair_releases_every_replica_it_placed():
    # d1 admits a replica of all five extents (soft pool 4500 bytes) but can
    # hold the bytes of only three: the fourth TRANSFER fails.
    with SimCluster(2, per_depot_overrides=[{}, {"total_capacity": 3000}]) as small:
        x = upload(b"x" * 5000, small.addrs()[:1], chunk_size=1000, k=1)
        with pytest.raises(EbpError) as failure:
            repair(x, 2, small.addrs())
        assert live_allocations(small) == [5, 0]
        assert failure.type is InsufficientDepots
        assert "last error: ResourceExhausted" in failure.value.message


def test_repair_releases_the_poisoned_replica_it_drops(cluster):
    d0, d1, _ = cluster.addrs()
    x = upload(bytes(21_000), [d0, d1], chunk_size=21_000, k=2)
    poisoned = x.extents[0].replicas[0]
    assert poisoned.depot_addr == d0
    cluster.handle("d0").server.depot.mark_unknown(poisoned.manage)
    repaired = repair(x, 2, cluster.addrs())
    assert poisoned not in repaired.extents[0].replicas
    assert live_allocations(cluster) == named_on(cluster.addrs(), repaired)
    assert release_all(repaired) == 2
    assert live_allocations(cluster) == [0, 0, 0]


def test_repair_sends_no_release_for_a_replica_whose_allocation_is_gone(cluster):
    x = upload(bytes(40_000), cluster.addrs(), chunk_size=10_000, k=2)
    for extent in x.extents:
        gone = extent.replicas[0]
        with DepotClient(gone.depot_addr) as cli:
            cli.release(gone.manage)
    servers = [cluster.handle(name).server for name in ("d0", "d1", "d2")]
    before = sum(server.verb_counts["RELEASE"] for server in servers)
    repaired = repair(x, 2, cluster.addrs())
    # Each dropped replica's LOAD answered NoSuchAllocation, so none of them
    # is released again.
    assert sum(server.verb_counts["RELEASE"] for server in servers) == before
    assert live_allocations(cluster) == named_on(cluster.addrs(), repaired)


def test_repair_makes_at_most_one_connection_attempt_to_a_dead_depot(cluster, connections):
    data = random.Random(7).randbytes(400_000)
    x = upload(data, cluster.addrs(), chunk_size=100_000, k=2)
    dead = cluster.handle("d0").addr
    cluster.kill("d0")
    connections.clear()
    repaired = repair(x, 2, cluster.addrs(), timeout_ms=500)
    assert connections[dead] <= 1
    assert download(repaired, timeout_ms=500) == data


def test_failed_transfer_releases_its_allocation_and_marks_no_depot(cluster, monkeypatch):
    data = random.Random(8).randbytes(200_000)
    d0, d1, d2 = cluster.addrs()
    x = upload(data, [d0], chunk_size=100_000, k=1)
    real_transfer = DepotClient.transfer
    calls = []

    def transfer_losing_the_first(self, *args):
        calls.append(self.addr)
        if len(calls) == 1:
            raise ConnectionLost(f"TRANSFER against {self.addr}: injected")
        return real_transfer(self, *args)

    monkeypatch.setattr(DepotClient, "transfer", transfer_losing_the_first)
    repaired = repair(x, 2, [d1, d2])
    monkeypatch.undo()
    # Extent 0's allocation on d1 was given back and the extent went to d2;
    # neither the source d0 nor d1 counts as unreachable, so extent 1 takes d1.
    assert calls == [d0, d0, d0]
    assert [[r.depot_addr for r in e.replicas] for e in repaired.extents] == [[d0, d2], [d0, d1]]
    assert live_allocations(cluster) == [2, 1, 1]
    assert download(repaired) == data


def named_on(addrs: list, exnode) -> list:
    """How many replicas of ``exnode`` (None for no exNode) each depot in
    ``addrs`` holds."""
    extents = exnode.extents if exnode else ()
    held = Counter(r.depot_addr for e in extents for r in e.replicas)
    return [held[addr] for addr in addrs]


@settings(max_examples=20, deadline=None)
@given(
    capacities=st.lists(st.sampled_from([1500, 3000, 64_000]), min_size=3, max_size=3),
    size=st.integers(1, 6000),
    chunk_size=st.sampled_from([500, 1000, 2000]),
    k=st.integers(2, 3),
    dead=st.one_of(st.none(), st.integers(0, 2)),
    kill_before_upload=st.booleans(),
    drop=st.integers(0, 1000),
    poison=st.booleans(),
)
def test_no_call_leaves_an_allocation_that_no_exnode_names(
    capacities, size, chunk_size, k, dead, kill_before_upload, drop, poison
):
    overrides = [{"total_capacity": c} for c in capacities]
    with SimCluster(3, per_depot_overrides=overrides) as cluster:
        addrs = cluster.addrs()
        up = [a for i, a in enumerate(addrs) if i != dead]
        if dead is not None and kill_before_upload:
            cluster.kill(f"d{dead}")
        try:
            x = upload(bytes(size), addrs, chunk_size=chunk_size, k=k, timeout_ms=500)
        except EbpError:
            x = None
        if dead is not None:
            cluster.kill(f"d{dead}")
        assert live_allocations(cluster, up) == named_on(up, x)
        if x is None:
            return
        # Release or poison one replica. Should the repair fail, the exNode
        # that still names the rest drops a released one and keeps a poisoned
        # one, which still holds its allocation.
        lost = [r for e in x.extents for r in e.replicas][drop % sum(len(e.replicas) for e in x.extents)]
        if lost.depot_addr in up and poison:
            cluster.handle(f"d{addrs.index(lost.depot_addr)}").server.depot.mark_unknown(lost.manage)
        elif lost.depot_addr in up:
            with DepotClient(lost.depot_addr) as cli:
                cli.release(lost.manage)
        survivors = replace(
            x, extents=tuple(replace(e, replicas=tuple(r for r in e.replicas if r != lost)) for e in x.extents)
        )
        try:
            named = repair(x, k, addrs, timeout_ms=500)
        except EbpError:
            named = x if poison else survivors
        assert live_allocations(cluster, up) == named_on(up, named)


def test_release_all_returns_capacity(cluster):
    data = b"r" * 50_000
    x = upload(data, cluster.addrs(), chunk_size=25_000, k=2)
    released = release_all(x)
    assert released == 4
    for addr in cluster.addrs():
        with DepotClient(addr) as cli:
            assert cli.stats().live_allocations == 0
