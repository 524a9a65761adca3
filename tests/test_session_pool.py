"""Pooled client sessions: reuse, when a session is dropped, bounds."""

from __future__ import annotations

import gc
import json
import os
import socket
import sys
import threading
import time
import weakref
from collections import Counter
from contextlib import ExitStack

import pytest
from click.testing import CliRunner

import ebp.client as client_mod
from ebp.capability import Capability, Hardness, Kind
from ebp.cli import main
from ebp.client import DepotClient, ProbeInfo, session
from ebp.errors import (
    BadCapability,
    ConnectionLost,
    EbpError,
    MalformedFrame,
    NoSuchAllocation,
    Timeout,
)
from ebp.exnode import Extent, Replica, make_exnode, write_exnode
from ebp.lodn import LodnScheduler, Policy
from ebp.lors import download, upload
from ebp.simnet import SimCluster
from ebp.wire import PIECE

pool = client_mod._pool


class FakeDepot:
    """A listener that answers the first ``answers`` requests of a session
    as a PROBE would, and meets the next one with ``behaviour``.

    ``"silent"`` never answers, ``"hangup"`` ends the connection and
    ``"short"`` answers ``OK 1``, a response with too few tokens for any verb
    that expects some.
    """

    PROBE_REPLY = b"OK 8 0 60000 soft\n"

    def __init__(self, behaviour: str, answers: int = 0):
        self.behaviour = behaviour
        self.answers = answers
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.addr = f"127.0.0.1:{self.listener.getsockname()[1]}"
        self.conns: list = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.conns.append(conn)
            threading.Thread(target=self._answer, args=(conn,), daemon=True).start()

    def _answer(self, conn: socket.socket) -> None:
        seen = b""
        with conn:
            try:
                while seen.count(b"\n") <= self.answers:
                    chunk = conn.recv(4096)
                    if not chunk:
                        return
                    seen += chunk
                conn.sendall(self.PROBE_REPLY * self.answers)
                if self.behaviour == "short":
                    conn.sendall(b"OK 1\n")
                if self.behaviour == "hangup":
                    conn.shutdown(socket.SHUT_WR)
                conn.recv(1)  # hold the connection until the client drops it
            except OSError:
                pass

    def close(self) -> None:
        self.listener.close()
        for conn in self.conns:
            conn.close()


# ------------------------------------------------------------------- reuse


def test_tick_opens_at_most_one_connection_per_depot(tmp_path, connections):
    with SimCluster(3) as cluster:
        scheduler = LodnScheduler(lease_duration_s=600, timeout_ms=2000)
        policy = Policy(replicas=2, renew_before=3600, check_period=1)  # renew every tick
        for i in range(3):
            x = upload(os.urandom(4096), cluster.addrs(), chunk_size=1024, k=2, lease_s=300)
            path = str(tmp_path / f"f{i}.xnd.json")
            write_exnode(path, x)
            scheduler.adopt(path, policy)
        client_mod.drain_pool()
        connections.clear()
        report = scheduler.tick()
        assert not report.failures
        assert report.renewals == 3 * 4 * 2  # every replica, eight or so per depot
        assert set(connections) <= set(cluster.addrs())
        assert max(connections.values()) == 1
        connections.clear()
        assert scheduler.tick().renewals == 24
        assert not connections  # the second tick reuses the first one's sessions


def test_renew_command_opens_at_most_one_connection_per_depot(tmp_path, connections):
    with SimCluster(3) as cluster:
        x = upload(os.urandom(4096), cluster.addrs(), chunk_size=1024, k=2, lease_s=300)
        path = str(tmp_path / "f.xnd.json")
        write_exnode(path, x)
        client_mod.drain_pool()
        connections.clear()
        result = CliRunner().invoke(main, ["renew", path, "--extend", "900", "--json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout) == {"renewed": 8, "failures": []}
        assert set(connections) <= set(cluster.addrs())
        assert max(connections.values()) == 1
        with DepotClient(x.extents[0].replicas[0].depot_addr) as cli:
            assert cli.probe(x.extents[0].replicas[0].manage).expires_in_ms > 300_000


def test_renew_command_reports_a_dead_depot_per_replica_after_one_attempt(tmp_path, connections):
    with SimCluster(3) as cluster:
        x = upload(os.urandom(4096), cluster.addrs(), chunk_size=1024, k=2, lease_s=300)
        path = str(tmp_path / "f.xnd.json")
        write_exnode(path, x)
        dead = cluster.handle("d1").addr
        cluster.kill("d1")
        client_mod.drain_pool()
        connections.clear()
        result = CliRunner().invoke(main, ["renew", path])
        replicas = [r for extent in x.extents for r in extent.replicas]
        lost = [f"{dead}: ConnectionLost" for r in replicas if r.depot_addr == dead]
        assert result.exit_code == 1
        assert result.stdout == f"renewed {len(replicas) - len(lost)} lease(s)\n"
        assert result.stderr.splitlines() == lost
        assert connections[dead] == 1


def test_session_survives_clean_and_err_responses():
    with SimCluster(1) as cluster:
        addr = cluster.addrs()[0]
        with session(addr) as first:
            caps = first.allocate(8, 60, Hardness.SOFT)
            first.release(caps.manage)
        with pytest.raises((NoSuchAllocation, BadCapability)):
            with session(addr) as again:
                assert again is first
                again.probe(caps.manage)  # ERR line: the stream is still in sync
        with session(addr) as third:
            assert third is first
            assert third.stats().live_allocations == 0


def test_err_response_leaves_no_reference_cycle():
    # A cycle through the raised error would keep the caller's frames, and
    # whatever large buffers they hold, alive until the cyclic collector ran.
    class Payload:
        pass

    with SimCluster(1) as cluster:
        addr = cluster.addrs()[0]
        with session(addr) as cli:
            caps = cli.allocate(8, 60, Hardness.SOFT)
            cli.release(caps.manage)

        def caller():
            held = Payload()
            try:
                with session(addr) as cli:
                    cli.probe(caps.manage)
            except EbpError:
                pass
            return weakref.ref(held)

        gc.disable()
        try:
            assert caller()() is None
        finally:
            gc.enable()


@pytest.mark.parametrize(
    "behaviour, error",
    [("silent", Timeout), ("hangup", ConnectionLost), ("short", MalformedFrame)],
)
def test_session_that_failed_is_never_lent_again(behaviour, error):
    fake = FakeDepot(behaviour)
    try:
        with pytest.raises(error):
            with session(fake.addr, 300) as failed:
                failed.stats()
        assert failed._sock.fileno() == -1  # closed, not pooled
        assert fake.addr not in pool.idle_counts()
        with session(fake.addr, 300) as fresh:
            assert fresh is not failed
    finally:
        fake.close()


def test_session_interrupted_mid_request_is_closed(monkeypatch):
    with SimCluster(1) as cluster:
        addr = cluster.addrs()[0]

        def interrupted(line):
            raise KeyboardInterrupt

        monkeypatch.setattr(client_mod, "parse_response_header", interrupted)
        with pytest.raises(KeyboardInterrupt):
            with session(addr) as cli:
                cli.stats()  # the response line is left unread
        monkeypatch.undo()
        assert addr not in pool.idle_counts()
        with session(addr) as fresh:
            assert fresh is not cli
            assert fresh.stats().live_allocations == 0


def test_restarted_depot_gets_a_fresh_session_and_no_request_twice(connections):
    data = os.urandom(50_000)
    with SimCluster(1) as cluster:
        addr = cluster.addrs()[0]
        assert download(upload(data, [addr], chunk_size=50_000, k=1), parallelism=1) == data
        assert pool.idle_counts()[addr] >= 1  # a session to the old depot is pooled
        old = cluster.handle("d0").server
        old_counts = Counter(old.verb_counts)
        cluster.kill("d0")
        assert pool.take(addr) is None  # the depot's close shows on the idle session
        cluster.restart("d0")
        new = cluster.handle("d0").server
        with DepotClient(addr) as direct:  # outside the pool
            caps = direct.allocate(len(data), 60, Hardness.SOFT)
            direct.store(caps.write, 0, data)
        replica = Replica(depot_addr=addr, read=caps.read, write=caps.write, manage=caps.manage)
        x = make_exnode(len(data), [Extent(offset=0, length=len(data), replicas=(replica,))])
        connections.clear()
        assert download(x, parallelism=1) == data
        assert connections == {addr: 1}  # the stale session was dropped unsent
        assert old.verb_counts == old_counts
        assert settled(new.verb_counts, {"ALLOCATE": 1, "STORE": 1, "LOAD": 1})


def settled(counts, want: dict) -> bool:
    """Whether a depot's ``verb_counts`` come to equal ``want`` within 5 s: a
    stream LOAD is counted only once its reply is out, so a client can read
    the reply first."""
    deadline = time.monotonic() + 5
    while counts != want and time.monotonic() < deadline:
        time.sleep(0.001)
    return counts == want


# ----------------------------------------------------------------- batches


def test_batch_of_ok_and_err_replies_gives_a_result_each_and_stays_pooled():
    with SimCluster(1) as cluster:
        addr = cluster.addrs()[0]
        with session(addr) as cli:
            kept, gone, other = (cli.allocate(8, 60, Hardness.SOFT) for _ in range(3))
            cli.release(gone.manage)
            probed = cli.probe_many([kept.manage, gone.manage, other.manage])
            renewed = cli.renew_many([gone.manage, kept.manage], 120)
        assert [type(r) for r in probed] == [ProbeInfo, type(probed[1]), ProbeInfo]
        assert isinstance(probed[1], (NoSuchAllocation, BadCapability))
        assert probed[0].capacity == probed[2].capacity == 8
        assert isinstance(renewed[0], (NoSuchAllocation, BadCapability))
        assert 60_000 < renewed[1] <= 120_000
        assert cli.probe_many([]) == []
        with session(addr) as again:
            assert again is cli  # every reply was read: the stream is in sync


@pytest.mark.parametrize("behaviour, error", [("hangup", ConnectionLost), ("silent", Timeout)])
@pytest.mark.parametrize("answered", [0, 2])
def test_batch_cut_off_fails_only_the_unanswered_requests(behaviour, error, answered):
    fake = FakeDepot(behaviour, answers=answered)
    caps = [Capability(fake.addr, n, Kind.MANAGE, "0" * 40) for n in range(5)]
    try:
        with session(fake.addr, 300) as cli:
            results = cli.probe_many(caps)
        assert results[:answered] == [ProbeInfo(8, 0, 60000, Hardness.SOFT)] * answered
        assert all(isinstance(r, error) for r in results[answered:])
        assert len(results) == 5
        assert cli._sock.fileno() == -1  # closed, not pooled
        assert fake.addr not in pool.idle_counts()
    finally:
        fake.close()


def test_malformed_reply_in_a_batch_raises_and_closes_the_session():
    fake = FakeDepot("short", answers=1)
    caps = [Capability(fake.addr, n, Kind.MANAGE, "0" * 40) for n in range(3)]
    try:
        with pytest.raises(MalformedFrame):
            with session(fake.addr, 300) as cli:
                cli.probe_many(caps)
        assert cli._sock.fileno() == -1
        assert fake.addr not in pool.idle_counts()
    finally:
        fake.close()


class Interrupted(BaseException):
    """Stands in for an interrupt that arrives between two replies."""


def test_batch_interrupted_between_replies_closes_the_session():
    with SimCluster(1) as cluster:
        addr = cluster.addrs()[0]
        with session(addr) as cli:
            caps = [cli.allocate(8, 60, Hardness.SOFT).manage for _ in range(3)]
        answered = []

        def probe_once(cap):
            if answered:
                raise Interrupted
            answered.append(DepotClient.probe(cli, cap))

        with pytest.raises(Interrupted):
            with session(addr) as cli:
                cli.probe = probe_once  # the batch reads each reply through it
                cli.probe_many(caps)
        assert len(answered) == 1  # two replies were never read
        assert cli._sock.fileno() == -1
        assert addr not in pool.idle_counts()


def test_a_batch_error_leaves_no_reference_cycle():
    # An error a batch returns with its traceback would keep the frames of
    # the batch's caller, and whatever large buffers they hold, alive until
    # the cyclic collector ran, though the caller and its results are gone.
    class Buffer(bytearray):
        pass

    with SimCluster(1) as cluster:
        addr = cluster.addrs()[0]
        with session(addr) as cli:
            live, gone = (cli.allocate(8, 60, Hardness.SOFT).manage for _ in range(2))
            cli.release(gone)

        def caller():
            held = Buffer(8 * 1024 * 1024)
            with session(addr) as cli:
                results = cli.renew_many([live, gone], 60)
            assert isinstance(results[1], (NoSuchAllocation, BadCapability))
            return weakref.ref(held)

        gc.disable()
        try:
            assert caller()() is None
        finally:
            gc.enable()


def test_load_many_reads_each_range_in_one_batch():
    with SimCluster(1) as cluster:
        addr = cluster.addrs()[0]
        with session(addr) as cli:
            caps = cli.allocate(10, 60, Hardness.SOFT)
            cli.store(caps.write, 0, b"0123456789")
            gone = cli.allocate(8, 60, Hardness.SOFT)
            cli.release(gone.manage)
            results = cli.load_many([(caps.read, 9, 1), (gone.read, 0, 1), (caps.read, 2, 3)])
            with pytest.raises(ValueError):
                cli.load_many([(caps.read, 0, 1), (caps.read, 0, PIECE + 1)])
        assert [bytes(results[0].data), bytes(results[2].data)] == [b"9", b"234"]
        assert not results[0].unknown_state
        assert isinstance(results[1], (NoSuchAllocation, BadCapability))
        assert results[1].__traceback__ is None
        counts = cluster.handle("d0").server.verb_counts
        assert settled(counts, {"ALLOCATE": 2, "STORE": 1, "RELEASE": 1, "LOAD": 3})
        with session(addr) as again:
            assert again is cli  # every reply was read: the stream is in sync


# ------------------------------------------------------------------ bounds


def test_idle_pool_stays_within_its_bounds(monkeypatch):
    now = [1000.0]
    monkeypatch.setattr(pool, "per_addr", 2)
    monkeypatch.setattr(pool, "total", 3)
    monkeypatch.setattr(pool, "clock", lambda: now[0])
    # Listeners that never accept: connections complete in the backlog.
    listeners = [socket.create_server(("127.0.0.1", 0), backlog=8) for _ in range(3)]
    a, b, c = (f"127.0.0.1:{s.getsockname()[1]}" for s in listeners)
    try:
        with ExitStack() as stack:
            four = [stack.enter_context(session(a)) for _ in range(4)]
        assert pool.idle_counts() == {a: 2}
        assert sum(cli._sock.fileno() == -1 for cli in four) == 2
        now[0] += 1
        with session(b):
            pass
        now[0] += 1
        with session(c):
            pass
        assert pool.idle_counts() == {a: 1, b: 1, c: 1}  # the oldest went
        now[0] += pool.max_age_s + 1
        with session(a) as late:
            assert late not in four  # everything idle had aged out
        assert pool.idle_counts() == {a: 1}
        assert all(cli._sock.fileno() == -1 for cli in four)
    finally:
        for listener in listeners:
            listener.close()


def test_threads_never_share_a_session(monkeypatch):
    monkeypatch.setattr(pool, "per_addr", 2)
    lent, lock, problems = set(), threading.Lock(), []
    with SimCluster(2) as cluster:
        addrs = cluster.addrs()

        def worker(seed: int) -> None:
            for i in range(40):
                with session(addrs[(seed + i) % 2], 2000) as cli:
                    with lock:
                        if cli in lent:
                            problems.append("session lent twice")
                        lent.add(cli)
                    cli.stats()
                    with lock:
                        lent.discard(cli)

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
        assert not problems
        assert all(n <= 2 for n in pool.idle_counts().values())
