"""STORE payloads received straight into the allocation: refusals keep the
session in sync, and a payload cut off, stalled or faulted mid-receive
leaves its target poisoned, never showing anybody else's bytes."""

from __future__ import annotations

import socket
import threading
import time
from contextlib import suppress

import pytest

from ebp.capability import Hardness
from ebp.client import DepotClient
from ebp.depot import _STORE_SLICE, DepotConfig
from ebp.errors import (
    BadCapability,
    Expired,
    NoSuchAllocation,
    OutOfRange,
    ResourceExhausted,
)
from ebp.server import DepotServer

MIB = 1024 * 1024
TRANSFER_TIMEOUT_MS = 1000


class FakeClock:
    def __init__(self):
        self.t = 1000.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def server(clock):
    # Room for one filled MiB and half of another; sweeps only when asked.
    config = DepotConfig(total_capacity=3 * MIB // 2)
    srv = DepotServer(
        config, clock=clock, sweep_period_s=3600, transfer_timeout_ms=TRANSFER_TIMEOUT_MS
    )
    srv.start()
    yield srv
    srv.stop()


def raw_store(addr: str, cap_text: str, length: int, sent: bytes) -> socket.socket:
    """A session that declares a STORE of ``length`` bytes and sends only ``sent``."""
    host, port = addr.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=10)
    sock.sendall(f"STORE {cap_text} 0 {length}\n".encode() + sent)
    return sock


def refusal_bad_capability(cli, clock):
    caps = cli.allocate(MIB, 60, Hardness.SOFT)
    return caps.read, 0  # a read capability cannot write


def refusal_out_of_range(cli, clock):
    return cli.allocate(MIB, 60, Hardness.SOFT).write, 1


def refusal_expired(cli, clock):
    caps = cli.allocate(MIB, 1, Hardness.SOFT)
    clock.t += 10
    return caps.write, 0


def refusal_resource_exhausted(cli, clock):
    filled = cli.allocate(MIB, 60, Hardness.SOFT)
    cli.store(filled.write, 0, bytes(MIB))
    return cli.allocate(MIB, 60, Hardness.SOFT).write, 0


def refusal_no_such_allocation(cli, clock):
    caps = cli.allocate(MIB, 60, Hardness.SOFT)
    cli.release(caps.manage)
    return caps.write, 0


@pytest.mark.parametrize(
    "setup, error",
    [
        (refusal_bad_capability, BadCapability),
        (refusal_out_of_range, OutOfRange),
        (refusal_expired, Expired),
        (refusal_resource_exhausted, ResourceExhausted),
        (refusal_no_such_allocation, NoSuchAllocation),
    ],
)
def test_refused_store_of_a_mebibyte_leaves_the_session_in_sync(server, clock, setup, error):
    with DepotClient(server.addr) as cli:
        good = cli.allocate(100, 3600, Hardness.SOFT)
        cap, offset = setup(cli, clock)
        sock = cli._sock
        with pytest.raises(error):
            cli.store(cap, offset, b"\xee" * MIB)
        cli.store(good.write, 0, b"g" * 100)
        assert cli.load(good.read, 0, 100).data == b"g" * 100
        assert cli._sock is sock  # the same session throughout
    assert server.verb_counts["STORE"] >= 2


@pytest.mark.parametrize("trickle_s", [None, 0.2], ids=["stalls", "trickles"])
def test_slow_store_is_cut_off_after_the_transfer_timeout(server, trickle_s):
    with DepotClient(server.addr) as cli:
        caps = cli.allocate(MIB, 60, Hardness.SOFT)
        stop = threading.Event()
        with raw_store(server.addr, caps.write.text(), MIB, b"s" * (MIB // 2)) as slow:

            def trickle():
                # One byte at a time, each well inside the transfer timeout.
                with suppress(OSError):
                    while not stop.wait(trickle_s):
                        slow.send(b"t")

            sender = threading.Thread(target=trickle, daemon=True)
            if trickle_s is not None:
                sender.start()
            try:
                deadline = time.monotonic() + 5
                while cli.probe(caps.manage).used != MIB:  # the store holds the lock
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                started = time.monotonic()
                result = cli.load(caps.read, 0, MIB)
                assert time.monotonic() - started < TRANSFER_TIMEOUT_MS / 1000 + 1
                assert result.unknown_state is True
            finally:
                stop.set()
                if sender.is_alive():
                    sender.join(timeout=5)
                    assert not sender.is_alive()
            slow.settimeout(5)
            with suppress(ConnectionResetError):
                assert slow.recv(1) == b""  # the depot closed the slow session


def test_interrupted_store_into_a_recycled_buffer_shows_zeros_not_the_old_tenant(server):
    with DepotClient(server.addr) as cli:
        old = cli.allocate(MIB, 60, Hardness.SOFT)
        cli.store(old.write, 0, b"\xff" * MIB)
        old_buf = server.depot._table[old.write.alloc_id].buf
        cli.release(old.manage)
        new = cli.allocate(MIB, 60, Hardness.SOFT)
        sent = _STORE_SLICE + _STORE_SLICE // 4
        raw_store(server.addr, new.write.text(), MIB, b"a" * sent).close()
        deadline = time.monotonic() + 5
        # A LOAD that gets ahead of the raw session's STORE finds used 0.
        while cli.probe(new.manage).used != MIB:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        while not cli.load(new.read, 0, 1).unknown_state:
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert server.depot._table[new.write.alloc_id].buf is old_buf
        result = cli.load(new.read, 0, MIB)
    assert result.unknown_state is True
    kept = len(result.data.rstrip(b"\0"))
    assert _STORE_SLICE <= kept <= sent
    assert result.data == b"a" * kept + bytes(MIB - kept)


def test_fault_between_received_slices_poisons_the_allocation(server):
    def fault(alloc_id, written):
        if written == _STORE_SLICE:
            raise ResourceExhausted("injected between slices")

    with DepotClient(server.addr) as cli:
        caps = cli.allocate(MIB, 60, Hardness.SOFT)
        server.depot.store_fault_hook = fault
        with pytest.raises(ResourceExhausted):
            cli.store(caps.write, 0, b"f" * MIB)
        server.depot.store_fault_hook = None
        result = cli.load(caps.read, 0, MIB)  # same session: the rest was drained
        assert result.unknown_state is True
        assert result.data == b"f" * _STORE_SLICE + bytes(MIB - _STORE_SLICE)
        cli.store(caps.write, 0, b"h" * MIB)  # a whole overwrite clears the flag
        assert cli.load(caps.read, 0, MIB) == (b"h" * MIB, False)
