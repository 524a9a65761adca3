"""Depot server + SDK: sessions, transfers, error surfaces, robustness."""

from __future__ import annotations

import logging
import random
import socket
import threading
import time

import pytest

import ebp.server as server_mod
from ebp.capability import Hardness
from ebp.client import DepotClient
from ebp.depot import DepotConfig
from ebp.errors import (
    BadCapability,
    BindFailure,
    ConnectionLost,
    Expired,
    NoSuchAllocation,
    NotLocal,
    OutOfRange,
    RemoteUnreachable,
    Timeout,
)
from ebp.nfu import ResourceBudget, TransformStatus
from ebp.server import DepotServer
from ebp.simnet import SimCluster
from ebp.wire import (
    Framer,
    LoadRequest,
    ProbeRequest,
    StoreRequest,
    encode_header,
    encode_request,
)


def start_server(total=64 * 1024 * 1024, **kwargs) -> DepotServer:
    server = DepotServer(DepotConfig(total_capacity=total), **kwargs)
    server.start()
    return server


@pytest.fixture
def server():
    srv = start_server()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    cli = DepotClient(server.addr, timeout_ms=5000)
    yield cli
    cli.close()


def raw_exchange(addr: str, blob: bytes, read_extra: int = 0) -> bytes:
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(blob)
        sock.settimeout(5)
        out = b""
        while b"\n" not in out:
            chunk = sock.recv(65536)
            if not chunk:
                break
            out += chunk
        while read_extra > 0 and out and len(out.split(b"\n", 1)[1]) < read_extra:
            chunk = sock.recv(65536)
            if not chunk:
                break
            out += chunk
        return out


# ------------------------------------------------------------------- basics


def test_stats_on_fresh_depot_all_zero(client):
    stats = client.stats()
    assert stats == (0, 0, 0, 0, {tier: 0 for tier in Hardness})


def test_a_depot_answers_alike_in_process_and_over_the_wire():
    with SimCluster(1, virtual_time=True, total_capacity=64) as cluster:
        depot = cluster.handle("d0").server.depot
        with DepotClient(cluster.addrs()[0]) as cli:
            victim = cli.allocate(32, 60, Hardness.BEST_EFFORT)
            cli.store(victim.write, 0, b"v" * 32)
            caps = cli.allocate(64, 60, Hardness.HARD)
            cli.store(caps.write, 0, b"h" * 64)  # preempts the best-effort one
            assert depot.probe(caps.manage) == cli.probe(caps.manage)
            assert depot.renew(caps.manage, 90) == cli.renew(caps.manage, 90)
            assert depot.load(caps.read, 8, 16) == cli.load(caps.read, 8, 16)
            stats = depot.stats()
            assert stats == cli.stats()
            assert list(stats.preemptions) == list(Hardness)  # the wire's order
            assert stats.preemptions[Hardness.BEST_EFFORT] == 1


def test_allocate_store_load_roundtrip(client):
    caps = client.allocate(64, 60, Hardness.SOFT)
    assert client.store(caps.write, 0, b"hello depot") == 11
    result = client.load(caps.read, 0, 11)
    assert result.data == b"hello depot"
    assert result.unknown_state is False


def test_put_get_10mib_through_1mib_pieces(client):
    rng = random.Random(2)
    payload = rng.randbytes(10 * 1024 * 1024)
    caps = client.allocate(len(payload), 120, Hardness.SOFT)
    assert client.store(caps.write, 0, payload) == len(payload)
    assert client.load(caps.read, 0, len(payload)).data == payload


def test_probe_renew_release_via_sdk(client):
    caps = client.allocate(32, 30, Hardness.HARD)
    info = client.probe(caps.manage)
    assert (info.capacity, info.used, info.hardness) == (32, 0, Hardness.HARD)
    assert 0 < info.expires_in_ms <= 30_000
    remaining = client.renew(caps.manage, 120)
    assert 100_000 < remaining <= 120_000
    client.release(caps.manage)
    with pytest.raises(NoSuchAllocation):
        client.probe(caps.manage)


def test_error_codes_surface_verbatim(client):
    from ebp.capability import Capability, Kind

    caps = client.allocate(8, 60, Hardness.SOFT)
    with pytest.raises(OutOfRange):
        client.load(caps.read, 0, 9)
    with pytest.raises(BadCapability):
        client.probe(caps.read)
    forged = Capability(caps.read.depot_addr, caps.read.alloc_id, Kind.READ, "0" * 40)
    with pytest.raises(BadCapability):
        client.load(forged, 0, 0)


def test_expired_lease_becomes_unreadable(server):
    cli = DepotClient(server.addr)
    caps = cli.allocate(8, 2, Hardness.SOFT)
    cli.store(caps.write, 0, b"x")
    deadline = time.time() + 6
    while time.time() < deadline:
        try:
            cli.load(caps.read, 0, 1)
        except (Expired, NoSuchAllocation):
            cli.close()
            return
        time.sleep(0.25)
    pytest.fail("lease never expired")


# ------------------------------------------------------- raw-bytes parity


def test_sdk_and_raw_bytes_agree(server, client):
    raw = raw_exchange(server.addr, b"ALLOCATE 16 60 soft\n")
    assert raw.startswith(b"OK ebp://")
    tokens = raw.decode().split()
    read_cap, write_cap, manage_cap = tokens[1], tokens[2], tokens[3]

    stored = raw_exchange(server.addr, f"STORE {write_cap} 0 3\n".encode() + b"abc")
    assert stored == b"OK 3\n"

    loaded = raw_exchange(server.addr, f"LOAD {read_cap} 0 3\n".encode(), read_extra=3)
    assert loaded == b"OK 3 0\nabc"

    from ebp.capability import parse_capability

    via_sdk = client.load(parse_capability(read_cap), 0, 3)
    assert via_sdk.data == b"abc"

    raw_probe = raw_exchange(server.addr, f"PROBE {manage_cap}\n".encode()).decode().split()
    sdk_probe = client.probe(parse_capability(manage_cap))
    assert int(raw_probe[1]) == sdk_probe.capacity == 16
    assert int(raw_probe[2]) == sdk_probe.used == 3
    assert raw_probe[4] == sdk_probe.hardness.value == "soft"

    raw_renew = raw_exchange(server.addr, f"RENEW {manage_cap} 90\n".encode()).decode().split()
    sdk_renew = client.renew(parse_capability(manage_cap), 90)
    assert abs(int(raw_renew[1]) - sdk_renew) < 2000  # same expiry, modulo the two calls


def test_malformed_header_gets_err_and_session_survives(server):
    host, port = server.addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(b"BOGUS verb\n")
        assert sock.recv(4096).startswith(b"ERR MalformedFrame")
        sock.sendall(b"STATS\n")
        assert sock.recv(4096).startswith(b"OK 0 0 0 0")


def test_overlong_header_with_lf_ends_the_session(server):
    """A terminated line over the header limit gets one ERR and ends the
    session, however its bytes arrive: in one write, or cut before its LF."""
    line = b"ALLOCATE " + b"9" * 5000 + b" 60 soft\n"
    host, port = server.addr.rsplit(":", 1)
    for sent in (len(line), 4500):
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(line[:sent])
            assert sock.recv(4096) == b"ERR MalformedFrame header too long\n"
            try:
                assert sock.recv(4096) == b""
            except ConnectionResetError:  # closed with some of the line unread
                pass


def test_oversized_declared_payload_closes_stream(server):
    reply = raw_exchange(
        server.addr,
        f"STORE ebp://{server.addr}/1/{'a' * 40}/write 0 {64 * 1024 * 1024 + 1}\n".encode(),
    )
    assert reply.startswith(b"ERR MalformedFrame")


def test_interrupted_store_payload_poisons_target(server):
    cli = DepotClient(server.addr)
    caps = cli.allocate(100, 60, Hardness.SOFT)
    cli.store(caps.write, 0, b"k" * 100)
    host, port = server.addr.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=5)
    sock.sendall(f"STORE {caps.write.text()} 0 100\n".encode() + b"only-ten!")
    sock.close()  # vanish mid-payload
    deadline = time.time() + 5
    while time.time() < deadline:
        if cli.load(caps.read, 0, 1).unknown_state:
            break
        time.sleep(0.1)
    result = cli.load(caps.read, 0, 100)
    assert result.unknown_state is True
    cli.close()


# ------------------------------------------------------------- concurrency


def test_32_concurrent_sessions_deterministic_count(server):
    errors = []

    def session_worker(seed):
        rng = random.Random(seed)
        try:
            with DepotClient(server.addr, timeout_ms=10_000) as cli:
                for _ in range(100):
                    caps = cli.allocate(16, 300, Hardness.SOFT)
                    blob = rng.randbytes(16)
                    cli.store(caps.write, 0, blob)
                    assert cli.load(caps.read, 0, 16).data == blob
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=session_worker, args=(i,)) for i in range(32)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    with DepotClient(server.addr) as cli:
        assert cli.stats().live_allocations == 3200


def test_no_hidden_retry_on_store_timeout(server, monkeypatch):
    real_dispatch = server_mod.dispatch_request

    def slow_dispatch(req, srv):
        if req.verb == "STORE":
            time.sleep(1.0)
        return real_dispatch(req, srv)

    monkeypatch.setattr(server_mod, "dispatch_request", slow_dispatch)
    with DepotClient(server.addr, timeout_ms=5000) as cli:
        caps = cli.allocate(8, 60, Hardness.SOFT)
    before = server.verb_counts["STORE"]
    cli2 = DepotClient(server.addr, timeout_ms=200)
    with pytest.raises(Timeout):
        cli2.store(caps.write, 0, b"q")
    cli2.close()
    deadline = time.time() + 10
    while server.verb_counts["STORE"] == before and time.time() < deadline:
        time.sleep(0.05)  # let the slow handler finish
    time.sleep(0.5)  # window for any (forbidden) second attempt to appear
    assert server.verb_counts["STORE"] == before + 1  # exactly one execution


# ---------------------------------------------------------------- transfer


def test_same_depot_transfer(client):
    src = client.allocate(1000, 60, Hardness.SOFT)
    dst = client.allocate(1000, 60, Hardness.SOFT)
    payload = random.Random(3).randbytes(1000)
    client.store(src.write, 0, payload)
    moved = client.transfer(src.read, 0, dst.write, 0, 1000)
    assert moved == 1000
    assert client.load(dst.read, 0, 1000).data == payload


def test_cross_depot_transfer_is_source_pushed():
    src_srv = start_server()
    dst_srv = start_server()
    try:
        payload = random.Random(4).randbytes(5 * 1024 * 1024)
        with DepotClient(src_srv.addr) as src_cli, DepotClient(dst_srv.addr) as dst_cli:
            src_caps = src_cli.allocate(len(payload), 120, Hardness.SOFT)
            src_cli.store(src_caps.write, 0, payload)
            dst_caps = dst_cli.allocate(len(payload), 120, Hardness.SOFT)
            loads_on_src_before = src_srv.verb_counts["LOAD"]
            moved = src_cli.transfer(src_caps.read, 0, dst_caps.write, 0, len(payload))
            assert moved == len(payload)
            assert dst_cli.load(dst_caps.read, 0, len(payload)).data == payload
        # Source bytes were read locally by the source depot, not via LOAD
        # requests from anyone, and the destination saw piecewise STOREs.
        assert src_srv.verb_counts["LOAD"] == loads_on_src_before
        assert dst_srv.verb_counts["STORE"] == 5
    finally:
        src_srv.stop()
        dst_srv.stop()


def test_transfer_with_remote_source_rejected(client, server):
    caps = client.allocate(10, 60, Hardness.SOFT)
    from ebp.capability import Capability, Kind

    foreign_src = Capability("127.0.0.1:1", 5, Kind.READ, "b" * 40)
    with pytest.raises(NotLocal):
        client.transfer(foreign_src, 0, caps.write, 0, 1)


def test_transfer_to_dead_remote_is_remote_unreachable(client):
    src = client.allocate(10, 60, Hardness.SOFT)
    client.store(src.write, 0, b"0123456789")
    from ebp.capability import Capability, Kind

    dead_dst = Capability("127.0.0.1:9", 5, Kind.WRITE, "c" * 40)
    with pytest.raises(RemoteUnreachable):
        client.transfer(src.read, 0, dead_dst, 0, 10)


# --------------------------------------------------------------- transform


def test_transform_over_the_wire(client):
    src = client.allocate(9, 60, Hardness.SOFT)
    dst = client.allocate(4, 60, Hardness.SOFT)
    client.store(src.write, 0, b"123456789")
    result = client.transform(
        "checksum-crc32",
        [src.read],
        [dst.write],
        ResourceBudget(max_wall_ms=1000, max_scratch_bytes=1 << 20, max_io_bytes=1 << 20),
    )
    assert result.status is TransformStatus.OK
    assert client.load(dst.read, 0, 4).data == (0xCBF43926).to_bytes(4, "big")


def test_transform_int_params_travel_as_decimal_text():
    budget = ResourceBudget(max_wall_ms=1000, max_scratch_bytes=1 << 20, max_io_bytes=1 << 20)
    with SimCluster(1) as cluster, DepotClient(cluster.addrs()[0]) as cli:
        out = cli.allocate(16, 60, Hardness.SOFT)
        for value in (0, 7):
            result = cli.transform("fill", [], [out.write], budget, {"value": value, "length": 16})
            assert result.status is TransformStatus.OK
            assert cli.load(out.read, 0, 16).data == bytes([value]) * 16


@pytest.mark.parametrize("shape", ["random", "run-heavy"])
def test_rle_of_4_mib_round_trips_within_default_timeout(server, shape):
    size = 4 * 1024 * 1024
    rng = random.Random(43)
    if shape == "random":
        payload = rng.randbytes(size)
    else:
        runs = (bytes([rng.randrange(256)]) * rng.randint(1, 700) for _ in range(size // 300))
        payload = b"".join(runs)[:size]
        assert len(payload) == size
    # On a 2-core VM byte-at-a-time kernels need 1.6-2.3 s for each transform
    # of the random input, the run-at-a-time ones under 0.12 s.
    budget = ResourceBudget(max_wall_ms=1000, max_scratch_bytes=1 << 24, max_io_bytes=1 << 26)
    with DepotClient(server.addr) as cli:  # the default timeout
        src = cli.allocate(size, 60, Hardness.SOFT)
        packed = cli.allocate(2 * size, 60, Hardness.SOFT)
        restored = cli.allocate(size, 60, Hardness.SOFT)
        cli.store(src.write, 0, payload)
        result = cli.transform("rle-compress", [src.read], [packed.write], budget)
        assert result.status is TransformStatus.OK
        result = cli.transform("rle-decompress", [packed.read], [restored.write], budget)
        assert result.status is TransformStatus.OK
        assert cli.load(restored.read, 0, size).data == payload


def test_transform_with_zero_budget_is_malformed(client):
    src = client.allocate(4, 60, Hardness.SOFT)
    raw = raw_exchange(
        client.addr,
        f"TRANSFORM fill 1 {src.read.text()} 1 {src.write.text()} 0 1 1 0\n".encode(),
    )
    assert raw.startswith(b"ERR MalformedFrame")


# ------------------------------------------------------------------- misc


def test_connect_to_closed_port_is_connection_lost():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nobody listens here now
    t0 = time.monotonic()
    with pytest.raises((ConnectionLost, Timeout)):
        DepotClient(f"127.0.0.1:{port}", timeout_ms=1000)
    assert time.monotonic() - t0 < 2.0


def test_bind_failure_on_taken_port(server):
    cfg = DepotConfig(total_capacity=1024, listen_addr=server.addr)
    clash = DepotServer(cfg)
    with pytest.raises(BindFailure):
        clash.start()


def test_shutdown_closes_sessions_cleanly(server):
    cli = DepotClient(server.addr)
    caps = cli.allocate(8, 60, Hardness.SOFT)  # in-flight request completed
    server.stop()
    with pytest.raises((ConnectionLost, Timeout)):
        for _ in range(5):
            cli.probe(caps.manage)
            time.sleep(0.1)
    cli.close()


def test_request_logging_one_line_per_request(server, caplog):
    with caplog.at_level(logging.DEBUG, logger="ebp.depot"):
        with DepotClient(server.addr) as cli:
            caps = cli.allocate(8, 60, Hardness.SOFT)
            cli.store(caps.write, 0, b"zz")
    lines = [r.message for r in caplog.records if r.name == "ebp.depot"]
    assert any(m.startswith("ALLOCATE alloc=- OK") for m in lines)
    assert any(m.startswith("STORE alloc=") and m.endswith("OK") for m in lines)


def test_fuzz_smoke_over_sockets(server):
    rng = random.Random(1234)
    verbs = [b"ALLOCATE", b"STORE", b"LOAD", b"PROBE", b"RENEW", b"RELEASE", b"STATS", b"XX"]
    for _ in range(300):
        kind = rng.randrange(3)
        if kind == 0:
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 80))) + b"\n"
        elif kind == 1:
            blob = (
                rng.choice(verbs)
                + b" "
                + b" ".join(
                    str(rng.randrange(10**6)).encode() for _ in range(rng.randrange(0, 5))
                )
                + b"\n"
            )
        else:
            blob = b"ALLOCATE 10 60 soft\n"
        reply = raw_exchange(server.addr, blob)
        assert reply == b"" or reply.startswith(b"OK") or reply.startswith(b"ERR")
    with DepotClient(server.addr) as cli:
        cli.stats()  # server still alive


# ------------------------------------------------------------ blocking sessions

EIGHT_MIB = 8 * 1024 * 1024


def stored_8mib(server) -> str:
    """Read capability text of a fresh 8 MiB allocation on ``server``."""
    with DepotClient(server.addr) as cli:
        caps = cli.allocate(EIGHT_MIB, 60, Hardness.SOFT)
        cli.store(caps.write, 0, random.Random(8).randbytes(EIGHT_MIB))
    return caps.read.text()


def raw_connect(addr: str) -> socket.socket:
    host, port = addr.rsplit(":", 1)
    return socket.create_connection((host, int(port)), timeout=5)


def read_until_eof(sock: socket.socket) -> bytes:
    out = bytearray()
    while True:
        chunk = sock.recv(1 << 20)
        if not chunk:
            return bytes(out)
        out += chunk


def test_load_waits_for_a_paused_reader(server):
    read_cap = stored_8mib(server)
    with raw_connect(server.addr) as sock:
        sock.sendall(f"LOAD {read_cap} 0 {EIGHT_MIB}\n".encode())
        time.sleep(0.6)  # the depot's send blocks meanwhile
        sock.shutdown(socket.SHUT_WR)  # the depot ends the session after this reply
        reply = read_until_eof(sock)
    header, payload = reply.split(b"\n", 1)
    assert header == f"OK {EIGHT_MIB} 0".encode()
    assert len(payload) == EIGHT_MIB


def test_stop_wakes_idle_reading_and_sending_sessions():
    server = start_server()
    read_cap = stored_8mib(server)
    idle, mid_header, stuck = (raw_connect(server.addr) for _ in range(3))
    for sock in (idle, mid_header, stuck):
        sock.sendall(b"STATS\n")
        assert sock.recv(4096).startswith(b"OK ")  # the depot has this session
    mid_header.sendall(b"PROBE ebp://")
    stuck.sendall(f"LOAD {read_cap} 0 {EIGHT_MIB}\n".encode())  # and never read
    time.sleep(0.3)
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 1.0
    for sock in (idle, mid_header, stuck):
        with sock:
            received = read_until_eof(sock)  # EOF, not the 5 s timeout
        assert len(received) < EIGHT_MIB


# --------------------------------------------------------- pipelined sessions


def read_replies(framer: Framer, n: int) -> list:
    return [framer.readline() for _ in range(n)]


def test_64_pipelined_probes_are_answered_at_once(server, client, monkeypatch):
    caps = [client.allocate(8, 60, Hardness.SOFT).manage for _ in range(64)]
    flushed = []  # replies per write
    real_flush = server_mod._flush

    def counting_flush(conn, held, resp=None):
        flushed.append(len(held) + (resp is not None))
        return real_flush(conn, held, resp)

    monkeypatch.setattr(server_mod, "_flush", counting_flush)
    with raw_connect(server.addr) as sock:
        started = time.monotonic()
        sock.sendall(b"".join(encode_request(ProbeRequest(cap)) for cap in caps))
        replies = read_replies(Framer(sock), 64)
        elapsed = time.monotonic() - started
    assert all(reply.startswith(b"OK 8 0 ") for reply in replies)
    assert elapsed < 0.5  # with Nagle's algorithm on, delayed ACKs stretch this to seconds
    writes = [n for n in flushed if n]
    assert sum(writes) == 64
    assert len(writes) <= 4  # replies held back while more requests were buffered


def test_a_reply_right_after_another_does_not_wait_for_an_ack(server, client):
    # A LOAD reply goes out at once, and so does the PROBE reply after it,
    # since no further request is buffered: two writes per exchange. With
    # Nagle's algorithm on, the second would wait for the client's delayed
    # ACK of the first, about 40 ms per exchange.
    caps = client.allocate(8, 60, Hardness.SOFT)
    client.store(caps.write, 0, b"8 bytes!")
    pair = encode_request(LoadRequest(caps.read, 0, 8)) + encode_request(ProbeRequest(caps.manage))
    payload = memoryview(bytearray(8))
    with raw_connect(server.addr) as sock:
        framer = Framer(sock)
        started = time.monotonic()
        for _ in range(25):
            sock.sendall(pair)
            assert framer.readline() == b"OK 8 0\n"
            framer.read_into(payload)
            assert framer.readline().startswith(b"OK 8 8 ")
        elapsed = time.monotonic() - started
    assert payload == b"8 bytes!"
    assert elapsed < 0.5


def test_held_replies_are_flushed_before_a_store_payload_is_read():
    server = start_server(transfer_timeout_ms=3000)
    try:
        with DepotClient(server.addr) as cli:
            caps = cli.allocate(16, 60, Hardness.SOFT)
        store = StoreRequest(caps.write, 0, b"p" * 16)
        with raw_connect(server.addr) as sock:
            sock.settimeout(1.0)  # well within the depot's wait for the payload
            started = time.monotonic()
            sock.sendall(encode_request(ProbeRequest(caps.manage)) + encode_header(store))
            framer = Framer(sock)
            assert framer.readline().startswith(b"OK 16 0 ")  # before the payload is sent
            sock.sendall(store.payload)
            assert framer.readline() == b"OK 16\n"
            assert time.monotonic() - started < 1.0
        with DepotClient(server.addr) as cli:
            assert cli.load(caps.read, 0, 16).data == store.payload
    finally:
        server.stop()


def test_held_replies_never_outnumber_the_requests_received(server, client, monkeypatch):
    caps = [client.allocate(8, 60, Hardness.SOFT).manage for _ in range(64)]
    received = [0]
    seen = []  # (replies held, requests received) after each reply
    real_parse, real_reply = server_mod.parse_request_header, server_mod._reply

    def counting_parse(line):
        received[0] += 1
        return real_parse(line)

    def watching_reply(conn, framer, held, resp):
        ok = real_reply(conn, framer, held, resp)
        seen.append((len(held), received[0]))
        return ok

    monkeypatch.setattr(server_mod, "parse_request_header", counting_parse)
    monkeypatch.setattr(server_mod, "_reply", watching_reply)
    with raw_connect(server.addr) as sock:
        batch = b"".join(encode_request(ProbeRequest(cap)) for cap in caps)
        sock.sendall(batch + b"PROBE not-a-capability\n" + batch)
        replies = read_replies(Framer(sock), 129)
    assert replies[64].startswith(b"ERR MalformedFrame ")
    deadline = time.monotonic() + 2
    while len(seen) < 129 and time.monotonic() < deadline:
        time.sleep(0.01)  # the depot notes the last reply just after sending it
    assert len(seen) == 129
    assert all(held <= got for held, got in seen)
    assert max(held for held, _ in seen) > 1
    assert seen[-1][0] == 0  # nothing is left held once the buffer is empty
