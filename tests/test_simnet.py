"""Simnet substrate: determinism, fault injection, datagram exactly-once."""

from __future__ import annotations

import random

import pytest

from ebp import simnet
from ebp.capability import Hardness, parse_capability
from ebp.client import DepotClient
from ebp.depot import Depot, DepotConfig
from ebp.errors import ConnectionLost, NoSuchAllocation, Timeout, UnknownDepot
from ebp.nfu import NfuEngine
from ebp.simnet import (
    DatagramClient,
    DatagramDepot,
    EventLoop,
    Fabric,
    LinkParams,
    SimCluster,
    run_script,
)
from ebp.wire import (
    VERB_CODES,
    AllocateRequest,
    OpFrame,
    StatsRequest,
    StoreRequest,
    decode_frame,
    encode_frame,
    encode_request,
    parse_response_header,
)


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
        # Eight sends 50 ms apart, then the give-up at 400 ms.
        drops = [e[0] for e in cluster.fabric.log if e[1] == "drop-loss" and e[2] == "client"]
        assert drops == [50.0 * i for i in range(8)]
        assert cluster.loop.now_ms == 400.0


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
        sends = [e[0] for e in cluster.fabric.log if e[1] == "send" and e[2] == "client"]
        assert sends == [0.0, 50.0, 100.0]
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


# ------------------------------------------------------- per-sender receive


def deliver(cluster: SimCluster, frames, src="client") -> list:
    """Hand ``frames`` to d0 as if ``src`` sent them; returns d0's replies
    as (op_id, response) pairs in the order d0 sent them."""
    replies = []

    def collect(data, _src):
        reply = decode_frame(data)
        replies.append((reply.op_id, reply.body))

    cluster.fabric.register(src, collect)
    for frame in frames:
        cluster.handle("d0").endpoint.on_datagram(encode_frame(frame), src)
    cluster.loop.run_until_idle()
    return replies


def stats_frame(op_id, deps=()):
    return OpFrame(op_id, tuple(deps), VERB_CODES["STATS"], encode_request(StatsRequest()))


def test_duplicate_returns_cached_response_without_reexecution():
    alloc = OpFrame(0, (), VERB_CODES["ALLOCATE"],
                    encode_request(AllocateRequest(8, 60, Hardness.SOFT)))
    with SimCluster(1) as cluster:
        replies = deliver(cluster, [alloc] * 4)
        assert [op_id for op_id, _ in replies] == [0] * 4
        assert len({response for _, response in replies}) == 1  # replayed byte for byte
        assert parse_response_header(replies[0][1])[0] == "OK"
        assert cluster.handle("d0").endpoint.exec_counts == {0: 1}
        with DepotClient(cluster.addrs()[0]) as cli:
            assert cli.stats().live_allocations == 1


def test_defer_until_deps_complete():
    with SimCluster(1) as cluster:
        endpoint = cluster.handle("d0").endpoint
        child = stats_frame(1, deps=(2, 0))
        assert deliver(cluster, [child, child]) == []
        sender = endpoint.senders["client"]
        assert sender.parked == {1: child}
        assert sender.waiters == {2: {1}}  # parked under its first missing dep
        assert [op_id for op_id, _ in deliver(cluster, [stats_frame(2)])] == [2]
        assert sender.waiters == {0: {1}}  # woken, then parked under the next one
        assert [op_id for op_id, _ in deliver(cluster, [stats_frame(0)])] == [0, 1]
        assert endpoint.exec_counts == {0: 1, 1: 1, 2: 1}
        assert sender.parked == sender.waiters == {}


def test_out_of_order_execution_allowed_without_deps():
    with SimCluster(1) as cluster:
        replies = deliver(cluster, [stats_frame(5), stats_frame(2)])
        assert [op_id for op_id, _ in replies] == [5, 2]  # op 2 runs after 5, unparked
        endpoint = cluster.handle("d0").endpoint
        assert endpoint.exec_counts == {5: 1, 2: 1}
        assert endpoint.senders["client"].parked == {}


def test_watermark_compaction_and_stale_reject(monkeypatch):
    monkeypatch.setattr(simnet, "WINDOW", 4)
    with SimCluster(1) as cluster:
        deliver(cluster, [stats_frame(i, () if i == 0 else (i - 1,)) for i in range(6)])
        endpoint = cluster.handle("d0").endpoint
        sender = endpoint.senders["client"]
        assert sender.watermark > 0
        assert len(sender.responses) <= 4
        # A straggler from below the watermark has no cached response left.
        [(op_id, response)] = deliver(cluster, [stats_frame(0)])
        kind, (code, _message) = parse_response_header(response)
        assert (op_id, kind, code) == (0, "ERR", "StaleOp")
        assert endpoint.exec_counts[0] == 1


def test_adversarial_delivery_matches_topological_oracle():
    """Random DAG, duplicated and shuffled delivery; executed set and order
    must respect deps and each op must execute exactly once."""
    rng = random.Random(7)
    n = 100
    deps = {
        i: tuple(sorted(rng.sample(range(i), min(rng.randrange(0, 4), i)))) for i in range(n)
    }
    schedule = [stats_frame(i, deps[i]) for i in range(n) for _ in range(rng.randrange(1, 6))]
    rng.shuffle(schedule)
    with SimCluster(1) as cluster:
        replies = deliver(cluster, schedule)
        assert cluster.handle("d0").endpoint.exec_counts == {i: 1 for i in range(n)}
    # An op's first reply leaves when it executes; later ones come from the cache.
    executed = list(dict.fromkeys(op_id for op_id, _ in replies))
    assert sorted(executed) == list(range(n))
    seen = set()
    for op_id in executed:
        assert set(deps[op_id]) <= seen  # necessary order respected
        seen.add(op_id)


def test_rearm_of_a_pending_op_sends_nothing_extra():
    with SimCluster(1) as cluster:
        client = cluster.datagram_client()
        cluster.set_link("client", "d0", loss_rate=1.0)
        op = client.submit("d0", StatsRequest())
        client.rearm(op)  # still pending: one chain of sends, not two
        cluster.loop.run_until_idle()
        client.rearm(op)  # gave up: a fresh chain
        cluster.loop.run_until_idle()
        sent = [e[0] for e in cluster.fabric.log if e[1] == "drop-loss" and e[2] == "client"]
        assert sent == [50.0 * i for i in range(8)] + [400.0 + 50.0 * i for i in range(8)]
        assert client.ops[op].attempts == 8


def test_retransmit_schedule_arithmetic():
    def client_sends(latency_ms=0.0, loss_rate=0.0):
        with SimCluster(1) as cluster:
            client = cluster.datagram_client()
            cluster.set_link("client", "d0", latency_ms=latency_ms, loss_rate=loss_rate)
            cluster.set_link("d0", "client", latency_ms=latency_ms)
            op = client.submit("d0", StatsRequest())
            cluster.loop.run_until_idle()
            sent = [e[0] for e in cluster.fabric.log
                    if e[1] in ("send", "drop-loss") and e[2] == "client"]
            return client.ops[op], sent, cluster.loop.now_ms

    # First send at once; a response before the next interval stops the chain.
    op, sent, _ = client_sends(latency_ms=10.0)
    assert (op.status, op.attempts, sent) == ("acked", 1, [0.0])
    # 120 ms of silence: sends at 0, 50 and 100 ms.
    op, sent, _ = client_sends(latency_ms=60.0)
    assert (op.status, op.attempts, sent) == ("acked", 3, [0.0, 50.0, 100.0])
    # Total loss: eight sends 50 ms apart, then the give-up at 400 ms.
    op, sent, now_ms = client_sends(loss_rate=1.0)
    assert (op.status, op.attempts, sent) == ("gave_up", 8, [50.0 * i for i in range(8)])
    assert now_ms == 400.0


def test_two_senders_reusing_an_op_id_each_get_their_own_response():
    with SimCluster(1) as cluster:
        alice, bob = cluster.datagram_client("alice"), cluster.datagram_client("bob")
        ops = [drive(cluster, c, AllocateRequest(8, 60, Hardness.SOFT)) for c in (alice, bob)]
        assert ops == [0, 0]
        (kind_a, caps_a), (kind_b, caps_b) = (
            parse_response_header(c.ops[0].response) for c in (alice, bob)
        )
        assert kind_a == kind_b == "OK"
        assert not set(caps_a) & set(caps_b)
        assert cluster.handle("d0").endpoint.exec_counts == {0: 2}
        with DepotClient(cluster.addrs()[0]) as cli:
            assert cli.stats().live_allocations == 2
            for caps in (caps_a, caps_b):
                assert cli.probe(parse_capability(caps[2])).capacity == 8


@pytest.mark.parametrize("seed", range(3))
def test_senders_reusing_op_ids_over_a_lossy_link_each_run_exactly_once(seed):
    """Three senders submit the same op ids, mixing ALLOCATEs of a capacity
    unique to (sender, op) with dependent STOREs into the sender's own
    buffer, over links that lose, duplicate and reorder. Oracle: every op of
    every sender runs once, in its sender's dependency order, and answers
    with that sender's own result."""
    rng = random.Random(seed)
    loop = EventLoop()
    fabric = Fabric(loop, seed=seed)
    depot = Depot(DepotConfig(total_capacity=1 << 20), addr="127.0.0.1:9")
    endpoint = DatagramDepot("d0", depot, NfuEngine(depot), fabric)
    slots, slot_bytes, n_ops = 8, 4, 60
    senders = {}
    for i in range(3):
        client = DatagramClient(f"s{i}", fabric)
        for src, dst in ((client.name, "d0"), ("d0", client.name)):
            fabric.set_link(src, dst, LinkParams(latency_ms=1.0, loss_rate=0.2, dup_rate=0.3,
                                                 reorder_rate=0.5, reorder_spread_ms=25.0))
        caps = depot.allocate(slots * slot_bytes, 3600, Hardness.SOFT)
        senders[client.name] = (client, caps, bytearray(slots * slot_bytes), {}, {})
    for k in range(n_ops):
        for client, caps, oracle, last_writer, capacities in senders.values():
            deps = {rng.randrange(k)} if k and rng.random() < 0.5 else set()
            if rng.random() < 0.3:
                capacities[k] = 1000 * int(client.name[1:]) + k + 1
                request = AllocateRequest(capacities[k], 3600, Hardness.SOFT)
            else:
                slot = rng.randrange(slots)
                payload = rng.randbytes(slot_bytes)
                if slot in last_writer:
                    deps.add(last_writer[slot])
                last_writer[slot] = k
                oracle[slot * slot_bytes : (slot + 1) * slot_bytes] = payload
                request = StoreRequest(caps.write, slot * slot_bytes, payload)
            assert client.submit("d0", request, tuple(sorted(deps))) == k
    loop.run_until_idle()
    for _ in range(60):
        stuck = [(client, op) for client, *_ in senders.values() for op in client.gave_up()]
        if not stuck:
            break
        for client, op in stuck:
            client.rearm(op)
        loop.run_until_idle()
    assert endpoint.exec_counts == {k: len(senders) for k in range(n_ops)}
    granted = set()
    for client, caps, oracle, _last_writer, capacities in senders.values():
        assert depot.load(caps.read, 0, len(oracle)).data == bytes(oracle)
        for k, op in client.ops.items():
            kind, tokens = parse_response_header(op.response)
            assert kind == "OK", (client.name, k, tokens)
            if k in capacities:
                assert depot.probe(parse_capability(tokens[2])).capacity == capacities[k]
                granted.update(tokens)
    allocates = sum(len(capacities) for *_, capacities in senders.values())
    assert len(granted) == 3 * allocates
    assert depot.stats().live_allocations == len(senders) + allocates
