"""The bulk byte path moves payloads in place: STORE pieces go out as views
after their headers, LOAD pieces land in the caller's buffer, uploads read a
file a chunk at a time, and downloads fill each extent's range."""

from __future__ import annotations

import os
import random
import socket
import threading
import tracemalloc
from contextlib import contextmanager

import pytest

import ebp.wire
from ebp.capability import Capability, Hardness, Kind
from ebp.client import DepotClient
from ebp.exnode import Extent, Replica, make_exnode
from ebp.errors import ExtentUnavailable
from ebp.lors import download, download_to, upload
from ebp.simnet import SimCluster
from ebp.wire import Framer, StoreRequest, encode_request, parse_request_header

MIB = 1024 * 1024


def peak_allocated(fn):
    """``(fn(), peak)``: the peak of Python allocations while ``fn`` ran,
    over every thread, the in-process depots' included."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextmanager
def fake_depot(answer):
    """A depot on loopback that reads each request (header and payload) and
    calls ``answer(conn, line, payload)``; a falsy return ends the session.
    Yields ``(addr, received)``, the raw bytes of every request in order."""
    listener = socket.create_server(("127.0.0.1", 0))
    received = []

    def serve() -> None:
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        with conn:
            framer = Framer(conn)
            try:
                while True:
                    line = framer.readline()
                    _build, length = parse_request_header(line)
                    payload = bytearray(length)
                    with memoryview(payload) as view:
                        framer.read_into(view)
                    received.append(line + payload)
                    if not answer(conn, line, payload):
                        return
            except OSError:
                return

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}", received
    finally:
        listener.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def store_ok(conn, _line, payload) -> bool:
    conn.sendall(b"OK %d\n" % len(payload))
    return True


class Trickle:
    """A socket whose ``sendmsg`` sends at most ``step`` bytes per call,
    gathered across the buffers it is given."""

    def __init__(self, sock: socket.socket, step: int = 7):
        self.sock = sock
        self.step = step
        self.calls = 0

    def sendmsg(self, buffers) -> int:
        self.calls += 1
        taken = b""
        for buf in buffers:
            taken += bytes(buf[: self.step - len(taken)])
            if len(taken) == self.step:
                break
        self.sock.sendall(taken)
        return len(taken)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def write_cap(addr: str) -> Capability:
    return Capability(addr, 1, Kind.WRITE, "a" * 40)


def expected_stream(cap: Capability, offset: int, data: bytes, piece: int) -> bytes:
    return b"".join(
        encode_request(StoreRequest(cap, offset + at, data[at : at + piece]))
        for at in range(0, max(len(data), 1), piece)
    )


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_store_sends_exactly_the_encoded_requests(kind):
    data = random.Random(3).randbytes(2 * MIB + 12345)
    with fake_depot(store_ok) as (addr, received):
        cap = write_cap(addr)
        with DepotClient(addr, 2000) as cli:
            assert cli.store(cap, 100, kind(data)) == len(data)
    assert b"".join(received) == expected_stream(cap, 100, data, ebp.wire.PIECE)
    assert len(received) == 3


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_store_through_a_socket_that_takes_a_few_bytes_per_call(kind, monkeypatch):
    monkeypatch.setattr(ebp.wire, "PIECE", 1000)
    data = random.Random(4).randbytes(2500)
    with fake_depot(store_ok) as (addr, received):
        cap = write_cap(addr)
        with DepotClient(addr, 2000) as cli:
            trickle = cli._sock = Trickle(cli._sock)
            assert cli.store(cap, 0, kind(data)) == len(data)
    assert b"".join(received) == expected_stream(cap, 0, data, 1000)
    assert trickle.calls > len(b"".join(received)) // 7


def test_load_receives_into_the_callers_buffer():
    data = random.Random(5).randbytes(2 * MIB + 7)
    with SimCluster(1) as cluster, DepotClient(cluster.addrs()[0]) as cli:
        caps = cli.allocate(len(data), 60, Hardness.SOFT)
        cli.store(caps.write, 0, data)
        target = bytearray(len(data) + 10)
        with memoryview(target) as view:
            result = cli.load(caps.read, 0, len(data), into=view[5 : 5 + len(data)])
            assert result.data.obj is target
        assert target == bytes(5) + data + bytes(5)
        plain = cli.load(caps.read, 1, 100)
        assert isinstance(plain.data, bytearray) and plain.data == data[1:101]
        with pytest.raises(ValueError):
            cli.load(caps.read, 0, 10, into=bytearray(9))


def test_download_fails_over_after_a_partial_extent():
    """The first replica sends one garbage 1 MiB piece of a 3 MiB extent and
    closes; the second replica's bytes replace the whole range."""
    data = random.Random(6).randbytes(3 * MIB)

    def one_garbage_piece(conn, line, _payload) -> bool:
        if not line.startswith(b"LOAD "):
            return False
        conn.sendall(b"OK %d 0\n" % MIB + b"\xee" * MIB)
        return False

    with SimCluster(1) as cluster, fake_depot(one_garbage_piece) as (liar, received):
        honest = cluster.addrs()[0]
        with DepotClient(honest) as cli:
            caps = cli.allocate(len(data), 60, Hardness.SOFT)
            cli.store(caps.write, 0, data)
        replicas = (
            Replica(depot_addr=liar, read=Capability(liar, 1, Kind.READ, "a" * 40)),
            Replica(depot_addr=honest, read=caps.read),
        )
        x = make_exnode(len(data), [Extent(offset=0, length=len(data), replicas=replicas)])
        got = download(x, parallelism=1)
    assert isinstance(got, bytearray)
    assert got == data
    assert len(received) == 1


def test_download_to_a_path_fails_over_or_leaves_the_path_alone(tmp_path):
    """A replica that fails part way into the file's memory map gives way to
    the next; when none serves the extent, the temporary file goes and the
    path keeps its old bytes. A symlinked path stays a symlink."""
    data = random.Random(10).randbytes(3 * MIB)

    def one_garbage_piece(conn, line, _payload) -> bool:
        conn.sendall(b"OK %d 0\n" % MIB + b"\xee" * MIB)
        return False

    out = tmp_path / "out.bin"
    out.write_bytes(b"old bytes")
    with SimCluster(1) as cluster:
        honest = cluster.addrs()[0]
        with DepotClient(honest) as cli:
            caps = cli.allocate(len(data), 60, Hardness.SOFT)
            cli.store(caps.write, 0, data)
        with fake_depot(one_garbage_piece) as (liar, _):
            lying = Replica(depot_addr=liar, read=Capability(liar, 1, Kind.READ, "a" * 40))
            x = make_exnode(len(data), [Extent(0, len(data), (lying,))])
            with pytest.raises(ExtentUnavailable):
                download_to(x, out, parallelism=1)
        assert out.read_bytes() == b"old bytes"
        assert os.listdir(tmp_path) == ["out.bin"]
        with fake_depot(one_garbage_piece) as (liar, _):
            lying = Replica(depot_addr=liar, read=Capability(liar, 1, Kind.READ, "a" * 40))
            replicas = (lying, Replica(depot_addr=honest, read=caps.read))
            download_to(make_exnode(len(data), [Extent(0, len(data), replicas)]), out)
        assert out.read_bytes() == data
        assert os.listdir(tmp_path) == ["out.bin"]
        out.write_bytes(b"old bytes")
        link = tmp_path / "link.bin"
        link.symlink_to(out.name)
        honest_only = (Replica(depot_addr=honest, read=caps.read),)
        download_to(make_exnode(len(data), [Extent(0, len(data), honest_only)]), link)
    assert link.is_symlink() and out.read_bytes() == data
    assert sorted(os.listdir(tmp_path)) == ["link.bin", "out.bin"]
    with pytest.raises(ValueError):
        download_to(x, bytearray(len(data) - 1))


def test_path_upload_reads_one_chunk_at_a_time(tmp_path, monkeypatch):
    chunk = 64 * 1024
    data = random.Random(7).randbytes(10 * chunk + 999)
    path = tmp_path / "source.bin"
    path.write_bytes(data)
    reads = []
    real_pread = os.pread

    def pread(fd, n, offset):
        reads.append(n)
        return real_pread(fd, n, offset)

    with SimCluster(3) as cluster:
        addrs = cluster.addrs()
        from_bytes = upload(data, addrs, chunk, 2, parallelism=3)
        monkeypatch.setattr(os, "pread", pread)
        from_path = upload(str(path), addrs, chunk, 2, parallelism=3)
        monkeypatch.undo()
        assert download(from_path) == data

    assert len(reads) == 11 and max(reads) <= chunk
    assert sorted(reads) == sorted([chunk] * 10 + [999])

    def shape(x):
        return x.total_length, [
            (e.offset, e.length, [r.depot_addr for r in e.replicas]) for e in x.extents
        ]

    assert shape(from_path) == shape(from_bytes)


# The in-process depots count too; they send LOAD pieces from their
# allocations, with no copy per piece.


def test_download_holds_one_file_sized_buffer():
    data = random.Random(8).randbytes(8 * MIB)
    with SimCluster(2) as cluster:
        x = upload(data, cluster.addrs(), 2 * MIB, 1)
        got, peak = peak_allocated(lambda: download(x, parallelism=2))
    assert got == data
    assert peak < 1.5 * len(data)


def test_load_without_into_holds_one_load_sized_buffer():
    data = random.Random(9).randbytes(4 * MIB)
    with SimCluster(1) as cluster, DepotClient(cluster.addrs()[0]) as cli:
        caps = cli.allocate(len(data), 60, Hardness.SOFT)
        cli.store(caps.write, 0, data)
        result, peak = peak_allocated(lambda: cli.load(caps.read, 0, len(data)))
    assert result.data == data
    assert peak < 1.5 * len(data)
