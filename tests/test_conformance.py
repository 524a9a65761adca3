"""One depot service, three planes: in process (``dispatch_request`` on a bare
``Depot``), stream (``DepotServer`` and ``DepotClient`` in a ``SimCluster``)
and datagram (``DatagramDepot`` over a loss-free fabric). The same request
must get the same reply code on each of them.

Every plane has two depots, ``home`` and ``other``; requests under test go
to ``home``, and ``other`` mints foreign capabilities. The one deliberate
difference: a TRANSFER to a destination on ``other`` pushes on the stream
plane, while the in-process and datagram planes are depot-local.
"""

from __future__ import annotations

import types

import pytest

import ebp.server
from ebp.capability import Capability, CapabilitySet, Hardness, new_key, parse_capability
from ebp.client import session
from ebp.depot import Depot, DepotConfig
from ebp.errors import EbpError, error_for_code
from ebp.nfu import NfuEngine
from ebp.server import dispatch_request, transfer
from ebp.simnet import DatagramClient, DatagramDepot, EventLoop, Fabric, SimCluster
from ebp.wire import (
    AllocateRequest,
    LoadRequest,
    ProbeRequest,
    StoreRequest,
    TransferRequest,
    encode_response,
    parse_response_header,
)

ADDRS = ("127.0.0.1:9", "127.0.0.1:10")


def _reply(encoded: bytes) -> tuple:
    """(tokens, payload) of an encoded reply; an ERR line raises its error."""
    header, _, payload = encoded.partition(b"\n")
    kind, tokens = parse_response_header(header + b"\n")
    if kind == "ERR":
        raise error_for_code(*tokens)
    return tokens, payload


class _WirePlane:
    """A plane that takes wire requests through ``call(addr, request)``."""

    def allocate(self, addr: str, capacity: int) -> CapabilitySet:
        tokens, _ = self.call(addr, AllocateRequest(capacity, 600, Hardness.SOFT))
        return CapabilitySet(*map(parse_capability, tokens))

    def store(self, cap: Capability, offset: int, data: bytes) -> None:
        self.call(cap.depot_addr, StoreRequest(cap, offset, data))

    def load(self, cap: Capability, offset: int, length: int) -> bytes:
        return self.call(cap.depot_addr, LoadRequest(cap, offset, length))[1]

    def used(self, cap: Capability) -> int:
        return int(self.call(cap.depot_addr, ProbeRequest(cap))[0][1])

    def transfer(self, *args) -> int:
        return int(self.call(self.home, TransferRequest(*args))[0][0])


class InProcessPlane(_WirePlane):
    name = "in-process"

    def __init__(self):
        self.home, self.other = ADDRS
        self.hosts = {}
        for addr in ADDRS:
            depot = Depot(DepotConfig(total_capacity=1 << 20), addr=addr)
            self.hosts[addr] = types.SimpleNamespace(
                depot=depot,
                engine=NfuEngine(depot),
                handle_transfer=lambda req, depot=depot: transfer(depot, req),
            )

    def call(self, addr: str, request) -> tuple:
        return _reply(encode_response(dispatch_request(request, self.hosts[addr])))


class DatagramPlane(_WirePlane):
    name = "datagram"

    def __init__(self):
        self.home, self.other = ADDRS
        self.loop = EventLoop()
        fabric = Fabric(self.loop, seed=0)
        self.names = {}
        for i, addr in enumerate(ADDRS):
            depot = Depot(DepotConfig(total_capacity=1 << 20), addr=addr)
            self.names[addr] = f"d{i}"
            DatagramDepot(f"d{i}", depot, NfuEngine(depot), fabric)
        self.client = DatagramClient("client", fabric)

    def call(self, addr: str, request) -> tuple:
        op_id = self.client.submit(self.names[addr], request)
        self.loop.run_until_idle()
        return _reply(self.client.ops[op_id].response)


class StreamPlane:
    name = "stream"

    def __init__(self, cluster: SimCluster):
        self.home, self.other = cluster.addrs()

    def allocate(self, addr: str, capacity: int) -> CapabilitySet:
        with session(addr) as cli:
            return cli.allocate(capacity, 600, Hardness.SOFT)

    def store(self, cap: Capability, offset: int, data: bytes) -> None:
        with session(cap.depot_addr) as cli:
            cli.store(cap, offset, data)

    def load(self, cap: Capability, offset: int, length: int) -> bytes:
        with session(cap.depot_addr) as cli:
            return cli.load(cap, offset, length).data

    def used(self, cap: Capability) -> int:
        with session(cap.depot_addr) as cli:
            return cli.probe(cap).used

    def transfer(self, *args) -> int:
        with session(self.home) as cli:
            return cli.transfer(*args)


@pytest.fixture(scope="module", params=["in-process", "stream", "datagram"])
def plane(request):
    if request.param == "stream":
        with SimCluster(2) as cluster:
            yield StreamPlane(cluster)
    else:
        yield {"in-process": InProcessPlane, "datagram": DatagramPlane}[request.param]()


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


# ------------------------------------------------------------------ TRANSFER


def test_transfer_copies_the_range_piece_by_piece(plane, monkeypatch):
    monkeypatch.setattr(ebp.server, "TRANSFER_PIECE", 16)
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


def test_a_remote_destination_is_pushed_only_on_the_stream_plane(plane):
    src, dst = source(plane), plane.allocate(plane.other, 128)
    if plane.name == "stream":
        assert outcome(plane, src.read, 0, dst.write, 0, 100) == "OK 100"
        assert plane.load(dst.read, 0, 100) == SOURCE
    else:
        assert outcome(plane, src.read, 0, dst.write, 0, 100) == "RemoteUnreachable"
        assert plane.used(dst.manage) == 0
