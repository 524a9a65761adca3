"""One depot service, three planes: in process (``dispatch_request`` on a
``DepotServer`` that is never started), stream (a started ``DepotServer``,
spoken to over a socket) and datagram (``DatagramDepot`` over a loss-free
fabric). The same request must get the same reply code on each of them.

Every plane has two depots, ``home`` and ``other``, and they are all that
differs between planes. Requests under test go to ``home``; ``other`` mints
foreign capabilities and takes the push of a TRANSFER to a remote
destination, so it listens on every plane, while ``home`` listens only on
the stream plane.
"""

from __future__ import annotations

import socket
from collections import Counter

import pytest

import ebp.wire
from ebp.capability import Capability, CapabilitySet, Hardness, new_key, parse_capability
from ebp.depot import DepotConfig
from ebp.errors import EbpError, error_for_code
from ebp.server import DepotServer, dispatch_request
from ebp.simnet import DatagramClient, DatagramDepot, EventLoop, Fabric
from ebp.wire import (
    AllocateRequest,
    Framer,
    LoadRequest,
    ProbeRequest,
    ReleaseRequest,
    RenewRequest,
    StoreRequest,
    TransferRequest,
    TransformRequest,
    encode_request,
    encode_response,
    parse_response_header,
)

UNSTARTED_ADDR = "127.0.0.1:9"  # never bound: an unstarted server's depot address


class Plane:
    """Typed calls over ``send(addr, request)``, which returns the encoded
    reply and is the one thing each plane does its own way."""

    def __init__(self, home: DepotServer, other: DepotServer):
        self.home, self.other = home.depot.addr, other.depot.addr
        self.servers = {self.home: home, self.other: other}

    def call(self, addr: str, request) -> tuple:
        """(tokens, payload) of the reply; an ERR line raises its error."""
        header, _, payload = self.send(addr, request).partition(b"\n")
        kind, tokens = parse_response_header(header + b"\n")
        if kind == "ERR":
            raise error_for_code(*tokens)
        return tokens, payload

    def allocate(self, addr: str, capacity: int) -> CapabilitySet:
        tokens, _ = self.call(addr, AllocateRequest(capacity, 600, Hardness.SOFT))
        return CapabilitySet(*map(parse_capability, tokens))

    def store(self, cap: Capability, offset: int, data: bytes) -> None:
        self.call(cap.depot_addr, StoreRequest(cap, offset, data))

    def load(self, cap: Capability, offset: int, length: int) -> bytes:
        return self.call(cap.depot_addr, LoadRequest(cap, offset, length))[1]

    def unknown(self, cap: Capability) -> bool:
        """The unknown-state flag of an empty LOAD at offset 0."""
        return self.call(cap.depot_addr, LoadRequest(cap, 0, 0))[0][1] == "1"

    def probe(self, cap: Capability) -> tuple:
        return self.call(cap.depot_addr, ProbeRequest(cap))[0]

    def used(self, cap: Capability) -> int:
        return int(self.probe(cap)[1])

    def renew(self, cap: Capability, extension: int) -> None:
        self.call(cap.depot_addr, RenewRequest(cap, extension))

    def release(self, cap: Capability) -> None:
        self.call(cap.depot_addr, ReleaseRequest(cap))

    def poison(self, cap: Capability) -> None:
        """Leave ``cap``'s allocation unknown-state: a fill of an out-of-range
        byte value faults, and a faulted transform poisons its output."""
        params = (("value", "256"), ("length", "1"))
        fill = TransformRequest("fill", (), (cap,), 1000, 1 << 20, 1 << 20, params)
        assert self.call(cap.depot_addr, fill)[0][0] == "op_fault"

    def transfer(self, *args) -> int:
        return int(self.call(self.home, TransferRequest(*args))[0][0])


class InProcessPlane(Plane):
    def send(self, addr: str, request) -> bytes:
        return encode_response(dispatch_request(request, self.servers[addr]))


class StreamPlane(Plane):
    def send(self, addr: str, request) -> bytes:
        host, port = addr.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(encode_request(request))
            framer = Framer(sock)
            header = framer.readline()
            kind, tokens = parse_response_header(header)
            payload = bytearray(int(tokens[0]) if kind == "OK" and request.verb == "LOAD" else 0)
            framer.read_into(memoryview(payload))
            return header + payload


class DatagramPlane(Plane):
    def __init__(self, home: DepotServer, other: DepotServer):
        super().__init__(home, other)
        self.loop = EventLoop()
        fabric = Fabric(self.loop, seed=0)
        self.names = {}
        for name, addr in (("home", self.home), ("other", self.other)):
            DatagramDepot(name, self.servers[addr], fabric)
            self.names[addr] = name
        self.client = DatagramClient("client", fabric)

    def send(self, addr: str, request) -> bytes:
        op_id = self.client.submit(self.names[addr], request)
        self.loop.run_until_idle()
        return self.client.ops[op_id].response


PLANES = {"in-process": InProcessPlane, "stream": StreamPlane, "datagram": DatagramPlane}


@pytest.fixture(scope="module", params=list(PLANES))
def plane(request):
    other = DepotServer(DepotConfig(total_capacity=1 << 20))
    other.start()
    if request.param == "stream":
        home = DepotServer(DepotConfig(total_capacity=1 << 20))
        home.start()
    else:
        home = DepotServer(DepotConfig(total_capacity=1 << 20, listen_addr=UNSTARTED_ADDR))
    try:
        yield PLANES[request.param](home, other)
    finally:
        home.stop()
        other.stop()


SOURCE = bytes(range(100))


def source(plane, addr=None) -> CapabilitySet:
    caps = plane.allocate(addr or plane.home, 128)
    plane.store(caps.write, 0, SOURCE)
    return caps


def forged(cap: Capability) -> Capability:
    return Capability(cap.depot_addr, cap.alloc_id, cap.kind, new_key())


def outcome(plane, *args) -> str:
    """``OK n`` for a TRANSFER that moved ``n`` bytes, else its error code."""
    try:
        return f"OK {plane.transfer(*args)}"
    except EbpError as exc:
        return exc.code


def refusal(call, *args) -> str:
    """The error code that ``call(*args)`` fails with."""
    with pytest.raises(EbpError) as info:
        call(*args)
    return info.value.code


# ------------------------------------------------------------------ TRANSFER


def test_transfer_copies_the_range_piece_by_piece(plane, monkeypatch):
    monkeypatch.setattr(ebp.wire, "PIECE", 16)
    src, dst = source(plane), plane.allocate(plane.home, 128)
    assert outcome(plane, src.read, 10, dst.write, 5, 50) == "OK 50"
    assert plane.used(dst.manage) == 55
    assert plane.load(dst.read, 5, 50) == SOURCE[10:60]
    assert plane.load(dst.read, 0, 5) == bytes(5)


def test_zero_length_transfer_checks_the_source_key(plane):
    src, dst = source(plane), plane.allocate(plane.home, 128)
    assert outcome(plane, forged(src.read), 0, dst.write, 8, 0) == "BadCapability"
    assert plane.used(dst.manage) == 0


def test_zero_length_transfer_checks_the_destination_key(plane):
    src, dst = source(plane), plane.allocate(plane.home, 128)
    assert outcome(plane, src.read, 0, forged(dst.write), 8, 0) == "BadCapability"
    assert plane.used(dst.manage) == 0


def test_zero_length_transfer_moves_used_as_a_zero_length_store_does(plane):
    src, dst, twin = source(plane), plane.allocate(plane.home, 128), plane.allocate(plane.home, 128)
    assert outcome(plane, src.read, 100, dst.write, 8, 0) == "OK 0"
    plane.store(twin.write, 8, b"")
    assert plane.used(dst.manage) == plane.used(twin.manage) == 8


def test_a_source_on_another_depot_is_not_local(plane):
    src, dst = source(plane, plane.other), plane.allocate(plane.home, 128)
    assert outcome(plane, src.read, 0, dst.write, 0, 10) == "NotLocal"
    assert outcome(plane, src.read, 0, dst.write, 0, 0) == "NotLocal"


def test_a_source_range_past_used_is_out_of_range(plane):
    src, dst = source(plane), plane.allocate(plane.home, 128)
    assert outcome(plane, src.read, 90, dst.write, 0, 20) == "OutOfRange"
    assert outcome(plane, src.read, 101, dst.write, 0, 0) == "OutOfRange"
    assert plane.used(dst.manage) == 0


def test_a_destination_past_capacity_is_out_of_range(plane):
    src, dst = source(plane), plane.allocate(plane.home, 64)
    assert outcome(plane, src.read, 0, dst.write, 60, 10) == "OutOfRange"
    assert outcome(plane, src.read, 0, dst.write, 65, 0) == "OutOfRange"
    assert plane.used(dst.manage) == 0


def test_a_remote_destination_is_pushed_on_every_plane(plane):
    src, dst = source(plane), plane.allocate(plane.other, 128)
    assert outcome(plane, src.read, 0, dst.write, 0, 100) == "OK 100"
    assert plane.load(dst.read, 0, 100) == SOURCE


def test_a_local_destination_of_an_unknown_state_source_is_unknown_state(plane):
    src, clean, dst = source(plane), plane.allocate(plane.home, 100), plane.allocate(plane.home, 100)
    assert outcome(plane, src.read, 0, clean.write, 0, 100) == "OK 100"
    plane.poison(src.write)
    assert outcome(plane, src.read, 0, dst.write, 0, 100) == "OK 100"
    assert plane.load(dst.read, 0, 100) == SOURCE
    # The copy stores dst's whole capacity, which clears the flag, and is marked after it.
    assert (plane.unknown(clean.read), plane.unknown(dst.read)) == (False, True)


# ---------------------------------------------------------- the other verbs


def test_a_wrong_kind_capability_is_refused(plane):
    caps = source(plane)
    assert refusal(plane.load, caps.write, 0, 1) == "BadCapability"
    assert refusal(plane.store, caps.read, 0, b"x") == "BadCapability"
    assert refusal(plane.probe, caps.read) == "BadCapability"
    assert plane.load(caps.read, 0, 1) == SOURCE[:1]


def test_a_load_past_used_is_out_of_range(plane):
    caps = source(plane)
    assert refusal(plane.load, caps.read, 90, 11) == "OutOfRange"
    assert plane.load(caps.read, 90, 10) == SOURCE[90:]


def test_a_store_past_capacity_is_out_of_range(plane):
    caps = plane.allocate(plane.home, 64)
    assert refusal(plane.store, caps.write, 60, b"12345") == "OutOfRange"
    assert plane.used(caps.manage) == 0


def test_a_forged_key_is_refused_by_probe_and_renew(plane):
    caps = source(plane)
    assert refusal(plane.probe, forged(caps.manage)) == "BadCapability"
    assert refusal(plane.renew, forged(caps.manage), 60) == "BadCapability"


def test_a_released_allocation_is_gone(plane):
    caps = source(plane)
    plane.release(caps.manage)
    assert refusal(plane.probe, caps.manage) == "NoSuchAllocation"


# ------------------------------------------------------------------ counting


def test_each_request_counts_once_on_home(plane):
    counts = plane.servers[plane.home].verb_counts
    before = Counter(counts)
    caps = source(plane)  # ALLOCATE, STORE
    dst = plane.allocate(plane.home, 128)
    plane.load(caps.read, 0, 10)
    assert refusal(plane.load, caps.write, 0, 1) == "BadCapability"  # refused, still run
    plane.probe(caps.manage)
    plane.renew(caps.manage, 60)
    plane.transfer(caps.read, 0, dst.write, 0, 10)
    plane.release(dst.manage)
    expected = {"ALLOCATE": 2, "STORE": 1, "LOAD": 2, "PROBE": 1, "RENEW": 1, "TRANSFER": 1, "RELEASE": 1}
    assert Counter(counts) - before == expected
