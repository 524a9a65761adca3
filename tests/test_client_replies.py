"""The client checks every depot reply against its verb's shape."""

from __future__ import annotations

import socket
import threading
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import pytest

import ebp.client as client_mod
from ebp.capability import Capability, Hardness, Kind
from ebp.client import DepotClient, session
from ebp.errors import MalformedFrame
from ebp.exnode import Extent, Replica, make_exnode
from ebp.lors import download
from ebp.nfu import ResourceBudget
from ebp.simnet import SimCluster


@contextmanager
def lying_depot(reply: bytes):
    """A depot that meets its first request line with ``reply`` and then
    waits for the client to hang up."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        with conn:
            seen = b""
            while b"\n" not in seen:
                chunk = conn.recv(4096)
                if not chunk:
                    return
                seen += chunk
            conn.sendall(reply)
            conn.recv(1)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}"
    finally:
        listener.close()
        thread.join(timeout=5)
        assert not thread.is_alive()  # the client hung up


def cap(addr: str, kind: Kind) -> Capability:
    return Capability(addr, 1, kind, "a" * 40)


LIES = [
    ("load", b"OK x 0\n"),
    ("load", b"OK -1 0\n"),
    ("load", b"OK 3 0\nabc"),  # 10 bytes asked for
    ("load", b"OK 10 2\n" + b"z" * 10),
    ("load", b"OK 10\n"),
    ("probe", b"OK 1 2 3 bogus\n"),
    ("probe", b"OK 1 2 3\n"),
    ("allocate", b"OK notacap notacap notacap\n"),
    ("renew", b"OK 1.5\n"),
    ("transform", b"OK ok 1 2 weird\n"),
    ("stats", b"OK 1 2 3 4 5 6 7 8\n"),
    ("release", b"OK 0\n"),
    ("store", b"OK 0\n"),  # 3 bytes sent
    ("transfer", b"OK 1 2\n"),
]

CALLS = {
    "load": lambda cli, addr: cli.load(cap(addr, Kind.READ), 0, 10),
    "probe": lambda cli, addr: cli.probe(cap(addr, Kind.MANAGE)),
    "allocate": lambda cli, addr: cli.allocate(8, 60, Hardness.SOFT),
    "renew": lambda cli, addr: cli.renew(cap(addr, Kind.MANAGE), 60),
    "transform": lambda cli, addr: cli.transform(
        "fill", (), (cap(addr, Kind.WRITE),), ResourceBudget(10, 10, 10)
    ),
    "stats": lambda cli, addr: cli.stats(),
    "release": lambda cli, addr: cli.release(cap(addr, Kind.MANAGE)),
    "store": lambda cli, addr: cli.store(cap(addr, Kind.WRITE), 0, b"abc"),
    "transfer": lambda cli, addr: cli.transfer(cap(addr, Kind.READ), 0, cap(addr, Kind.WRITE), 0, 5),
}


@pytest.mark.parametrize("verb, reply", LIES, ids=[f"{v}-{r!r}" for v, r in LIES])
def test_reply_of_wrong_shape_is_malformed_and_closes_the_session(verb, reply):
    with lying_depot(reply) as addr:
        with pytest.raises(MalformedFrame):
            with session(addr, 2000) as cli:
                CALLS[verb](cli, addr)
        assert cli._sock.fileno() == -1  # closed, not pooled
        assert addr not in client_mod._pool.idle_counts()


UNREADABLE = {
    "load-short-payload": ("load", b"OK 3 0\nabc"),
    "probe-neither-ok-nor-err": ("probe", b"FOO 1\n"),
    "probe-header-too-long": ("probe", b"x" * 5000),  # no LF
}


@pytest.mark.parametrize("verb, reply", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_direct_client_closes_on_a_lying_reply(verb, reply):
    with lying_depot(reply) as addr:
        cli = DepotClient(addr, 2000)
        with pytest.raises(MalformedFrame):
            CALLS[verb](cli, addr)
        assert cli._sock.fileno() == -1


class Interrupted(BaseException):
    """Stands in for an interrupt that arrives while a reply is awaited."""


def interrupt_reads(cli: DepotClient) -> None:
    def recv(_size):
        raise Interrupted

    cli._framer.sock = SimpleNamespace(recv=recv)


@pytest.mark.parametrize("pooled", [False, True], ids=["direct", "pooled"])
def test_an_exception_mid_read_closes_the_session(pooled):
    with lying_depot(b"") as addr:
        opened = session(addr, 2000) if pooled else nullcontext(DepotClient(addr, 2000))
        with pytest.raises(Interrupted), opened as cli:
            interrupt_reads(cli)
            cli.probe(cap(addr, Kind.MANAGE))
        assert cli._sock.fileno() == -1
        assert addr not in client_mod._pool.idle_counts()


def test_download_fails_over_from_a_lying_replica():
    data = bytes(range(256)) * 40
    with SimCluster(1) as cluster, lying_depot(b"OK 3 0\nabc") as liar:
        honest = cluster.addrs()[0]
        with DepotClient(honest) as cli:
            caps = cli.allocate(len(data), 60, Hardness.SOFT)
            cli.store(caps.write, 0, data)
        replicas = (
            Replica(depot_addr=liar, read=cap(liar, Kind.READ)),
            Replica(depot_addr=honest, read=caps.read),
        )
        x = make_exnode(len(data), [Extent(offset=0, length=len(data), replicas=replicas)])
        assert download(x, parallelism=1) == data
