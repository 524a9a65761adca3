"""LOAD replies and TRANSFER pushes go out from views of the allocation: no
per-piece copy, every piece still one consistent snapshot, no view left
behind, and the allocation's lock never held while a peer is waited on."""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
import tracemalloc
from contextlib import contextmanager

import pytest

import ebp.wire
from ebp.capability import Capability, Hardness, Kind
from ebp.client import DepotClient, drain_pool
from ebp.depot import Depot, DepotConfig
from ebp.errors import EbpError, OutOfRange, RemoteUnreachable
from ebp.server import DepotServer
from ebp.wire import Framer, LoadRequest, encode_request, parse_ok, parse_response_header, send_now

MIB = 1024 * 1024


@contextmanager
def started(n: int = 1, transfer_timeout_ms: int = 5000):
    """``n`` started in-process depot servers."""
    servers = []
    try:
        for _ in range(n):
            config = DepotConfig(total_capacity=64 * MIB, listen_addr="127.0.0.1:0")
            server = DepotServer(config, transfer_timeout_ms=transfer_timeout_ms)
            server.start()
            servers.append(server)
        yield servers
    finally:
        drain_pool()
        for server in servers:
            server.stop()


def stored(cli: DepotClient, data: bytes, capacity: int = 0):
    caps = cli.allocate(capacity or len(data), 60, Hardness.SOFT)
    cli.store(caps.write, 0, data)
    return caps


def peak_allocated(fn) -> int:
    """The peak of Python allocations, over every thread, while ``fn`` ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def raw_peer(addr: str, rcvbuf: int) -> socket.socket:
    """A connection to ``addr`` whose receive buffer is about ``rcvbuf``."""
    peer = socket.socket()
    peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    host, port = addr.rsplit(":", 1)
    peer.connect((host, int(port)))
    peer.settimeout(5)
    return peer


def wait_for(condition, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.01)


# ------------------------------------------------------------------ no copy


# Without the per-piece copy, what is left is the framers' 64 KiB receive
# chunks and buffers on either side; one copy of one piece alone is 1 MiB.
BELOW_ONE_PIECE = MIB // 2


def test_a_load_into_a_buffer_makes_no_piece_sized_copy():
    data = random.Random(1).randbytes(4 * MIB)
    into = bytearray(len(data))
    with started() as (server,), DepotClient(server.addr) as cli:
        caps = stored(cli, data)
        peak = peak_allocated(lambda: cli.load(caps.read, 0, len(data), into=into))
    assert into == data
    assert peak < BELOW_ONE_PIECE


def test_a_remote_transfer_makes_no_piece_sized_copy():
    data = random.Random(2).randbytes(4 * MIB)
    with started(2) as (a, b), DepotClient(a.addr) as ca, DepotClient(b.addr) as cb:
        src = stored(ca, data)
        dst = stored(cb, bytes(len(data)))  # grown already: the push only overwrites
        peak = peak_allocated(lambda: ca.transfer(src.read, 0, dst.write, 0, len(data)))
        assert cb.load(dst.read, 0, len(data)).data == data
    assert peak < BELOW_ONE_PIECE


# ------------------------------------------------- the lock never waits on a peer


def test_a_loader_that_never_reads_does_not_block_a_store():
    data = random.Random(3).randbytes(MIB)
    with started() as (server,), DepotClient(server.addr) as cli:
        caps = stored(cli, data)
        with raw_peer(server.addr, 4096) as peer:
            peer.sendall(encode_request(LoadRequest(caps.read, 0, MIB)) * 8)
            time.sleep(0.2)  # the depot is now stuck sending to the peer
            begun = time.monotonic()
            assert cli.store(caps.write, 0, data[::-1]) == MIB
            assert time.monotonic() - begun < 0.5


def test_a_transfer_to_a_depot_that_never_reads_does_not_block_a_store(monkeypatch):
    # One piece larger than loopback's socket buffers, so the push stops
    # part way into it, as a smaller piece does over a slower network.
    monkeypatch.setattr(ebp.wire, "PIECE", 8 * MIB)
    data = random.Random(4).randbytes(8 * MIB)
    with started(transfer_timeout_ms=1000) as (server,), socket.socket() as listener:
        # A listener on loopback: connections open, nothing is ever read.
        listener.bind(("127.0.0.1", 0))
        listener.listen(16)
        dst = Capability(f"127.0.0.1:{listener.getsockname()[1]}", 1, Kind.WRITE, "a" * 40)
        with DepotClient(server.addr) as pusher, DepotClient(server.addr) as writer:
            caps = stored(writer, data)
            outcome = []

            def push() -> None:
                try:
                    outcome.append(pusher.transfer(caps.read, 0, dst, 0, len(data)))
                except EbpError as exc:
                    outcome.append(exc)

            thread = threading.Thread(target=push)
            begun = time.monotonic()
            thread.start()
            time.sleep(0.2)
            stored_at = time.monotonic()
            assert writer.store(caps.write, 0, data[::-1]) == len(data)
            assert time.monotonic() - stored_at < 0.5
            assert thread.is_alive()  # the push is still stuck
            thread.join(10)
            assert not thread.is_alive()
            assert 1 <= time.monotonic() - begun < 5
    assert len(outcome) == 1 and isinstance(outcome[0], RemoteUnreachable)


def test_two_opposite_remote_transfers_both_complete(monkeypatch):
    monkeypatch.setattr(ebp.wire, "PIECE", 8 * MIB)  # as above: pushes stop mid-piece
    n = 6 * MIB + 5
    x, y = random.Random(5).randbytes(n), random.Random(6).randbytes(n)
    with started(2) as (a, b), DepotClient(a.addr) as ca, DepotClient(b.addr) as cb:
        a1, b1 = stored(ca, x, 2 * n), stored(cb, y, 2 * n)
        ca.store(a1.write, n, bytes(n))
        cb.store(b1.write, n, bytes(n))
        real_store = Depot.store

        def late_store(self, *args):
            time.sleep(0.1)  # both pushes start on their sources before a store runs
            return real_store(self, *args)

        monkeypatch.setattr(Depot, "store", late_store)
        barrier = threading.Barrier(2)
        outcome = {}

        def push(name: str, addr: str, src, dst) -> None:
            with DepotClient(addr) as cli:
                barrier.wait(5)
                outcome[name] = cli.transfer(src.read, 0, dst.write, n, n)

        threads = [
            threading.Thread(target=push, args=("a1->b1", a.addr, a1, b1)),
            threading.Thread(target=push, args=("b1->a1", b.addr, b1, a1)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
        assert not any(thread.is_alive() for thread in threads)
        assert outcome == {"a1->b1": n, "b1->a1": n}
        assert ca.load(a1.read, 0, 2 * n).data == x + y
        assert cb.load(b1.read, 0, 2 * n).data == y + x


def test_a_transfer_whose_source_is_refused_keeps_its_pooled_session(connections):
    data = random.Random(9).randbytes(MIB)
    with started(2) as (a, b), DepotClient(a.addr) as ca, DepotClient(b.addr) as cb:
        src, dst = stored(ca, data), stored(cb, bytes(MIB))
        assert ca.transfer(src.read, 0, dst.write, 0, MIB) == MIB
        with pytest.raises(OutOfRange):
            ca.transfer(src.read, 1, dst.write, 0, MIB)
        assert ca.transfer(src.read, 0, dst.write, 0, MIB) == MIB
        assert connections[b.addr] == 2  # ``cb``, and one pooled session for every push


# ------------------------------------------------ atomicity, no export left


def test_every_loaded_piece_is_one_stores_bytes():
    with started() as (server,), DepotClient(server.addr) as writer:
        caps = stored(writer, bytes(MIB))
        stop = threading.Event()

        def flip() -> None:
            fills = (b"\x00" * MIB, b"\xff" * MIB)
            i = 0
            while not stop.is_set():
                writer.store(caps.write, 0, fills[i % 2])
                i += 1

        thread = threading.Thread(target=flip)
        thread.start()
        try:
            # Eight LOADs at a time, read late: the first replies fill the
            # socket's buffers, so a later one cannot go out whole at once,
            # and its tail is sent once the lock is released.
            with raw_peer(server.addr, 64 * 1024) as peer:
                framer = Framer(peer)
                piece = bytearray(MIB)
                for _ in range(5):
                    peer.sendall(encode_request(LoadRequest(caps.read, 0, MIB)) * 8)
                    time.sleep(0.05)
                    for _ in range(8):
                        _, tokens = parse_response_header(framer.readline())
                        assert parse_ok("LOAD", tokens) == [MIB, False]
                        with memoryview(piece) as view:
                            framer.read_into(view)
                        assert piece.count(piece[:1]) == MIB
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()


def test_a_load_cut_off_mid_reply_leaves_the_buffer_free_to_grow_and_recycle():
    data = random.Random(7).randbytes(MIB)
    with started() as (server,), DepotClient(server.addr) as cli:
        caps = stored(cli, data, 4 * MIB)
        for read_first in (0, 0, 1000, 1000):
            with raw_peer(server.addr, 4096) as peer:
                peer.sendall(encode_request(LoadRequest(caps.read, 0, MIB)))
                if read_first:
                    peer.recv(read_first)
                # Closed with the reply unread: the depot's send fails.
                peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        wait_for(lambda: len(server._sessions) == 1)  # only ``cli``'s is left
        assert cli.store(caps.write, MIB, data) == MIB  # grows the buffer
        buf = server.depot._table[caps.write.alloc_id].buf
        cli.release(caps.manage)
        assert server.depot._free.bufs == {len(buf): [buf]}


def test_send_now_leaves_no_view_of_a_lent_buffer():
    lent = bytearray(random.Random(8).randbytes(4 * MIB))
    left, right = socket.socketpair()
    left.settimeout(5)  # kept after the send, and a send that waits fails
    with left, right:
        with memoryview(lent) as view, view.toreadonly() as readonly:
            rest = send_now(left, [b"head", readonly])
        assert all(isinstance(part, bytes) for part in rest)
        assert left.gettimeout() == 5
        lent.extend(b"x")  # no export of it is left
        taken = 4 + 4 * MIB - sum(map(len, rest))
        assert 0 < taken < 4 + 4 * MIB  # the socket took some of it, not all
        got = bytearray()
        while len(got) < taken:
            got += right.recv(MIB)
        assert bytes(got) + b"".join(rest) == b"head" + lent[:-1]
        right.close()
        with memoryview(lent) as view, pytest.raises(OSError):
            send_now(left, [view])
        lent.extend(b"y")
