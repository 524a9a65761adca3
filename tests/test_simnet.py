"""Simnet substrate: determinism, fault injection, datagram exactly-once."""

from __future__ import annotations

import pytest

from ebp.capability import Hardness
from ebp.client import DepotClient
from ebp.errors import ConnectionLost, NoSuchAllocation, Timeout, UnknownDepot
from ebp.simnet import DatagramClient, SimCluster, run_script
from ebp.wire import AllocateRequest, StatsRequest, StoreRequest, parse_response_header


def drive(cluster: SimCluster, client: DatagramClient, request, dst="d0", deps=()):
    op_id = client.submit(dst, request, deps)
    cluster.loop.run_until_idle()
    return op_id


# ------------------------------------------------------------ stream plane


def test_cluster_spawns_real_depots():
    with SimCluster(2) as cluster:
        assert len(cluster.addrs()) == 2
        with DepotClient(cluster.addrs()[0]) as cli:
            caps = cli.allocate(16, 60, Hardness.SOFT)
            cli.store(caps.write, 0, b"simnet!")
            assert cli.load(caps.read, 0, 7).data == b"simnet!"


def test_kill_makes_capabilities_unreachable_and_restart_is_empty():
    with SimCluster(2) as cluster:
        addr = cluster.addrs()[0]
        with DepotClient(addr) as cli:
            caps = cli.allocate(16, 600, Hardness.SOFT)
            cli.store(caps.write, 0, b"gone soon")
        cluster.kill("d0")
        with pytest.raises((ConnectionLost, Timeout)):
            DepotClient(addr, timeout_ms=500).load(caps.read, 0, 1)
        cluster.restart("d0")
        assert cluster.addrs()[0] == addr  # same address after restart
        with DepotClient(addr) as cli:
            with pytest.raises(NoSuchAllocation):
                cli.load(caps.read, 0, 1)  # no persistence
            assert cli.stats().live_allocations == 0


def test_unknown_depot_rejected():
    with SimCluster(1) as cluster:
        with pytest.raises(UnknownDepot):
            cluster.kill("d9")
        with pytest.raises(UnknownDepot):
            cluster.set_link("d0", "nope")


def test_virtual_time_lease_expiry():
    with SimCluster(1, virtual_time=True) as cluster:
        with DepotClient(cluster.addrs()[0]) as cli:
            caps = cli.allocate(8, 2, Hardness.SOFT)
            cli.store(caps.write, 0, b"x")
            cluster.advance(3)  # past the 2 s lease, sweep included
            with pytest.raises(NoSuchAllocation):
                cli.load(caps.read, 0, 1)


# ---------------------------------------------------------- datagram plane


def test_datagram_allocate_and_store():
    with SimCluster(1) as cluster:
        client = cluster.datagram_client()
        op = drive(cluster, client, AllocateRequest(64, 60, Hardness.SOFT))
        kind, tokens = parse_response_header(client.ops[op].response)
        assert kind == "OK"
        from ebp.capability import parse_capability

        write_cap = parse_capability(tokens[1])
        read_cap = parse_capability(tokens[0])
        drive(cluster, client, StoreRequest(write_cap, 0, b"via-frames"))
        with DepotClient(cluster.addrs()[0]) as cli:
            assert cli.load(read_cap, 0, 10).data == b"via-frames"


def test_total_loss_gives_up_after_eight_attempts():
    with SimCluster(1) as cluster:
        client = cluster.datagram_client()
        cluster.set_link("client", "d0", loss_rate=1.0)
        op = client.submit("d0", StatsRequest())
        cluster.loop.run_until_idle()
        assert client.ops[op].status == "gave_up"
        assert client.ops[op].attempts == 8
        drops = [e for e in cluster.fabric.log if e[1] == "drop-loss" and e[2] == "client"]
        assert len(drops) == 8
        assert cluster.loop.now_ms >= 400


def test_zero_loss_sends_exactly_once():
    with SimCluster(1) as cluster:
        client = cluster.datagram_client()
        op = drive(cluster, client, StatsRequest())
        sends = [e for e in cluster.fabric.log if e[1] == "send" and e[2] == "client"]
        assert len(sends) == 1
        assert client.ops[op].status == "acked"


def test_duplication_executes_once_and_answers_from_cache():
    with SimCluster(1, seed=5) as cluster:
        client = cluster.datagram_client()
        cluster.set_link("client", "d0", dup_rate=0.5)
        cluster.set_link("d0", "client", dup_rate=0.5)
        ops = []
        for i in range(1000):
            ops.append(client.submit("d0", AllocateRequest(1, 600, Hardness.BEST_EFFORT)))
        cluster.loop.run_until_idle()
        endpoint = cluster.handle("d0").endpoint
        assert all(client.ops[op].status == "acked" for op in ops)
        assert sorted(endpoint.exec_counts) == sorted(ops)
        assert all(count == 1 for count in endpoint.exec_counts.values())
        with DepotClient(cluster.addrs()[0]) as cli:
            assert cli.stats().live_allocations == 1000


def test_deferred_frame_waits_for_dependency():
    with SimCluster(1) as cluster:
        client = cluster.datagram_client()
        alloc_op = drive(cluster, client, AllocateRequest(16, 60, Hardness.SOFT))
        _, tokens = parse_response_header(client.ops[alloc_op].response)
        from ebp.capability import parse_capability

        write_cap = parse_capability(tokens[1])
        read_cap = parse_capability(tokens[0])
        # Delay delivery heavily so the dependent frame lands first.
        cluster.set_link("client", "d0", latency_ms=0.0)
        second = client.submit("d0", StoreRequest(write_cap, 0, b"AA"), deps=())
        third = client.submit("d0", StoreRequest(write_cap, 0, b"BB"), deps=(second,))
        # Swap arrival order by sending third first through a slow link is
        # fiddly; instead deliver both and rely on admit-order checks.
        cluster.loop.run_until_idle()
        assert client.ops[third].status == "acked"
        with DepotClient(cluster.addrs()[0]) as cli:
            assert cli.load(read_cap, 0, 2).data == b"BB"


def test_out_of_order_dependent_frames_defer_then_execute():
    with SimCluster(1) as cluster:
        client = cluster.datagram_client()
        alloc_op = drive(cluster, client, AllocateRequest(16, 60, Hardness.SOFT))
        _, tokens = parse_response_header(client.ops[alloc_op].response)
        from ebp.capability import parse_capability

        write_cap = parse_capability(tokens[1])
        endpoint = cluster.handle("d0").endpoint
        # Hand-deliver frames to the endpoint in the wrong order.
        from ebp.wire import OpFrame, VERB_CODES, encode_frame, encode_request

        dep_id = 101
        child = OpFrame(
            op_id=102,
            deps=(dep_id,),
            verb_code=VERB_CODES["STORE"],
            body=encode_request(StoreRequest(write_cap, 0, b"22")),
        )
        parent = OpFrame(
            op_id=dep_id,
            deps=(),
            verb_code=VERB_CODES["STORE"],
            body=encode_request(StoreRequest(write_cap, 0, b"11")),
        )
        endpoint.on_datagram(encode_frame(child), "client")
        assert endpoint.exec_counts.get(102) is None  # deferred
        endpoint.on_datagram(encode_frame(parent), "client")
        assert endpoint.exec_counts[dep_id] == 1
        assert endpoint.exec_counts[102] == 1  # drained after the dep


def test_independent_frames_legal_in_both_delivery_orders():
    """Necessary order only: frames with no dependency path between them may
    execute in either order, and both orders yield a legal final state."""
    from ebp.capability import parse_capability
    from ebp.wire import OpFrame, VERB_CODES, encode_frame, encode_request

    def run_order(first_id, second_id):
        with SimCluster(1) as cluster:
            client = cluster.datagram_client()
            alloc_op = drive(cluster, client, AllocateRequest(8, 60, Hardness.SOFT))
            _, tokens = parse_response_header(client.ops[alloc_op].response)
            write_cap = parse_capability(tokens[1])
            read_cap = parse_capability(tokens[0])
            frames = {
                10: OpFrame(10, (), VERB_CODES["STORE"],
                            encode_request(StoreRequest(write_cap, 0, b"LLLL"))),
                11: OpFrame(11, (), VERB_CODES["STORE"],
                            encode_request(StoreRequest(write_cap, 4, b"RRRR"))),
            }
            endpoint = cluster.handle("d0").endpoint
            endpoint.on_datagram(encode_frame(frames[first_id]), "client")
            endpoint.on_datagram(encode_frame(frames[second_id]), "client")
            assert endpoint.exec_counts[10] == endpoint.exec_counts[11] == 1
            with DepotClient(cluster.addrs()[0]) as cli:
                return cli.load(read_cap, 0, 8).data

    assert run_order(10, 11) == run_order(11, 10) == b"LLLLRRRR"


def test_seeded_runs_produce_identical_event_logs():
    def run(seed):
        with SimCluster(1, seed=seed) as cluster:
            client = cluster.datagram_client()
            cluster.set_link("client", "d0", loss_rate=0.3, dup_rate=0.3, latency_ms=2.0,
                             reorder_rate=0.5)
            cluster.set_link("d0", "client", loss_rate=0.3, dup_rate=0.3, latency_ms=2.0)
            for _ in range(50):
                client.submit("d0", StatsRequest())
            cluster.loop.run_until_idle()
            return list(cluster.fabric.log)

    log_a = run(seed=42)
    log_b = run(seed=42)
    log_c = run(seed=43)
    assert log_a == log_b
    assert log_a != log_c


def test_script_runner_timed_actions():
    with SimCluster(2, virtual_time=True) as cluster:
        client = cluster.datagram_client()
        log = run_script(
            cluster,
            [
                {"at_ms": 0, "op": "set_link", "src": "client", "dst": "d0", "loss_rate": 1.0},
                {"at_ms": 10, "op": "kill", "depot": "d1"},
                {"at_ms": 20, "op": "advance_clock", "seconds": 5},
                {"at_ms": 30, "op": "restart", "depot": "d1"},
            ],
        )
        assert cluster.handle("d1").alive
        assert cluster.clock.now() >= 1005.0
        op = client.submit("d0", StatsRequest())
        cluster.loop.run_until_idle()
        assert client.ops[op].status == "gave_up"  # loss link persisted


def test_delayed_response_bounds_resends_to_three():
    # 60 ms each way = 120 ms of silence: sends due at 0, 50, 100; the
    # depot still executes exactly once thanks to duplicate suppression.
    with SimCluster(1) as cluster:
        client = cluster.datagram_client()
        cluster.set_link("client", "d0", latency_ms=60.0)
        cluster.set_link("d0", "client", latency_ms=60.0)
        op = client.submit("d0", AllocateRequest(4, 60, Hardness.SOFT))
        cluster.loop.run_until_idle()
        assert client.ops[op].status == "acked"
        sends = [e for e in cluster.fabric.log if e[1] == "send" and e[2] == "client"]
        assert len(sends) <= 3
        assert cluster.handle("d0").endpoint.exec_counts[op] == 1


def test_rearm_after_giveup_reaches_depot_exactly_once():
    with SimCluster(1, seed=9) as cluster:
        client = cluster.datagram_client()
        cluster.set_link("client", "d0", loss_rate=1.0)
        op = client.submit("d0", AllocateRequest(4, 60, Hardness.SOFT))
        cluster.loop.run_until_idle()
        assert client.ops[op].status == "gave_up"
        cluster.set_link("client", "d0", loss_rate=0.0)
        client.rearm(op)
        cluster.loop.run_until_idle()
        assert client.ops[op].status == "acked"
        assert cluster.handle("d0").endpoint.exec_counts[op] == 1


def test_frame_whose_code_is_not_its_body_verb_is_refused():
    from ebp.wire import OpFrame, VERB_CODES, decode_frame, encode_frame, encode_request

    with SimCluster(1) as cluster:
        endpoint = cluster.handle("d0").endpoint
        replies = []
        cluster.fabric.register("client", lambda data, src: replies.append(data))
        forged = OpFrame(
            op_id=0,
            deps=(),
            verb_code=VERB_CODES["STATS"],
            body=encode_request(AllocateRequest(8, 60, Hardness.SOFT)),
        )
        for _ in range(2):
            endpoint.on_datagram(encode_frame(forged), "client")
            cluster.loop.run_until_idle()
        assert len(replies) == 2 and replies[0] == replies[1]  # the second from the cache
        kind, (code, _message) = parse_response_header(decode_frame(replies[0]).body)
        assert (kind, code) == ("ERR", "MalformedFrame")
        assert endpoint.exec_counts == {0: 1}
        with DepotClient(cluster.addrs()[0]) as cli:
            assert cli.stats().live_allocations == 0
