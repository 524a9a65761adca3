"""Policy daemon: adoption, renewal timing, repair triggering, idempotence."""

from __future__ import annotations

import json
import logging
import os
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import ebp.client as client_mod
import ebp.lors as lors_mod
from ebp.client import DepotClient, session
from ebp.errors import EbpError, NotManaged, ValidationFailed
from ebp.exnode import read_exnode, to_json, write_exnode
from ebp.lodn import LodnScheduler, Policy, TickReport, policy_path_for, run_dir
from ebp.lors import download, upload
from ebp.simnet import SimCluster


MISSING = object()  # a policy field left out of the file


@pytest.fixture
def cluster():
    with SimCluster(3, virtual_time=True) as c:
        yield c


def managed_file(cluster, tmp_path, data=b"managed-bytes" * 1000, k=2, lease_s=10):
    x = upload(data, cluster.addrs(), chunk_size=4096, k=k, lease_s=lease_s)
    path = tmp_path / "file.xnd.json"
    write_exnode(str(path), x)
    return str(path), x, data


def new_scheduler(lease_s=10) -> LodnScheduler:
    return LodnScheduler(lease_duration_s=lease_s, timeout_ms=1000)


def policy(cluster, k=2, renew_before=5, check_period=1) -> Policy:
    return Policy(
        replicas=k,
        renew_before=renew_before,
        check_period=check_period,
        preferred_depots=tuple(cluster.addrs()),
    )


def served(cluster, verb: str) -> int:
    """The ``verb`` requests every depot of ``cluster`` has served so far."""
    return sum(cluster.handle(name).server.verb_counts.get(verb, 0) for name in cluster.names())


def managed_replicas(sched) -> list:
    return [r for e in sched.entries() for x in e.exnode.extents for r in x.replicas]


def managed_caps(sched) -> set:
    return {r.manage for r in managed_replicas(sched)}


# -------------------------------------------------------------- membership


def test_adopt_then_list(cluster, tmp_path):
    path, x, _ = managed_file(cluster, tmp_path)
    sched = new_scheduler()
    entry = sched.adopt(path, policy(cluster))
    assert [e.path for e in sched.entries()] == [path]
    assert entry.policy.replicas == 2


def test_drop_unknown_is_not_managed(cluster, tmp_path):
    sched = new_scheduler()
    with pytest.raises(NotManaged):
        sched.drop(str(tmp_path / "nope.xnd.json"))


def test_adopt_invalid_exnode_fails_validation(cluster, tmp_path):
    bad = tmp_path / "bad.xnd.json"
    bad.write_text('{"version": 1, "total_length": 5, "extents": [], "metadata": {}}')
    sched = new_scheduler()
    with pytest.raises(ValidationFailed):
        sched.adopt(str(bad), policy(cluster))


def test_adopt_without_manage_caps_rejected(cluster, tmp_path):
    path, x, _ = managed_file(cluster, tmp_path)
    doc = json.loads(to_json(x))
    for extent in doc["extents"]:
        for rep in extent["replicas"]:
            rep.pop("manage", None)
    readonly = tmp_path / "ro.xnd.json"
    readonly.write_text(json.dumps(doc))
    sched = new_scheduler()
    with pytest.raises(ValidationFailed):
        sched.adopt(str(readonly), policy(cluster))


def test_policy_invariants():
    with pytest.raises(ValueError):
        Policy(replicas=2, renew_before=1, check_period=1)
    with pytest.raises(ValueError):
        Policy(replicas=2, renew_before=5, check_period=0.5)
    with pytest.raises(ValueError):
        Policy(replicas=0, renew_before=5, check_period=1)


def test_policy_json_file_strict(tmp_path):
    ppath = tmp_path / "p.policy.json"
    ppath.write_text(
        '{"replicas": 2, "renew_before": 5, "check_period": 1, "preferred_depots": ["a:1"]}'
    )
    p = Policy.from_json_file(str(ppath))
    assert p.replicas == 2 and p.preferred_depots == ("a:1",)
    ppath.write_text('{"replicas": 2, "renew_before": 5, "check_period": 1, "extra": 1}')
    with pytest.raises(ValueError, match="unknown"):
        Policy.from_json_file(str(ppath))


@pytest.mark.parametrize(
    "field, value",
    [
        ("replicas", "2"),
        ("replicas", True),
        ("replicas", 2.5),
        ("renew_before", "5"),
        ("check_period", False),
        ("preferred_depots", "127.0.0.1:1"),
        ("preferred_depots", ["a:1", 2]),
        pytest.param("replicas", MISSING, id="replicas-missing"),
        pytest.param("renew_before", MISSING, id="renew_before-missing"),
        pytest.param("check_period", MISSING, id="check_period-missing"),
    ],
)
def test_policy_json_file_rejects_a_wrong_typed_field(tmp_path, field, value):
    doc = {"replicas": 2, "renew_before": 5, "check_period": 1, field: value}
    if value is MISSING:
        del doc[field]
    ppath = tmp_path / "p.policy.json"
    ppath.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=field):
        Policy.from_json_file(str(ppath))


def test_policy_path_naming():
    assert policy_path_for("/x/file.xnd.json") == "/x/file.policy.json"
    assert policy_path_for("/x/other") == "/x/other.policy.json"


# ------------------------------------------------------------------- ticks


def test_fresh_leases_mean_zero_actions(cluster, tmp_path):
    path, *_ = managed_file(cluster, tmp_path, lease_s=100)
    sched = new_scheduler(lease_s=100)
    sched.adopt(path, policy(cluster))
    report = sched.tick()
    assert report.actions == 0
    assert report.failures == []


def test_lease_near_expiry_renewed_exactly_once_per_replica(cluster, tmp_path):
    path, x, _ = managed_file(cluster, tmp_path, lease_s=10)
    sched = new_scheduler(lease_s=10)
    sched.adopt(path, policy(cluster, renew_before=5))
    cluster.advance(4)  # 6 s remain: above the renew threshold
    assert sched.tick().renewals == 0
    cluster.advance(1.5)  # 4.5 s remain: below it
    report = sched.tick()
    replicas = sum(len(e.replicas) for e in x.extents)
    assert report.renewals == replicas
    assert report.failures == []
    # Renewed to the full lease: a second tick at the same instant is a no-op.
    assert sched.tick().actions == 0


def test_tick_is_idempotent_at_same_now(cluster, tmp_path):
    path, *_ = managed_file(cluster, tmp_path, lease_s=10)
    sched = new_scheduler(lease_s=10)
    sched.adopt(path, policy(cluster))
    cluster.advance(5.5)
    first = sched.tick()
    second = sched.tick()
    assert first.renewals > 0
    assert second.actions == 0


def test_killed_depot_triggers_exact_repairs_and_atomic_rewrite(cluster, tmp_path):
    data = random.Random(11).randbytes(40_000)
    path, x, _ = managed_file(cluster, tmp_path, data=data)
    sched = new_scheduler()
    sched.adopt(path, policy(cluster))
    dead_addr = cluster.handle("d1").addr
    cluster.kill("d1")
    lost = sum(1 for e in x.extents if any(r.depot_addr == dead_addr for r in e.replicas))
    assert lost > 0
    report = sched.tick()
    assert report.repairs == lost
    on_disk = read_exnode(path)
    assert on_disk == sched.entries()[0].exnode  # atomically rewritten
    for extent in on_disk.extents:
        live = [r for r in extent.replicas if r.depot_addr != dead_addr]
        assert len(live) >= 2
    assert download(on_disk, timeout_ms=500) == data
    # Nothing left to do.
    follow_up = sched.tick()
    assert follow_up.repairs == 0


def test_tick_reports_its_duration(cluster, tmp_path):
    path, *_ = managed_file(cluster, tmp_path)
    sched = new_scheduler()
    sched.adopt(path, policy(cluster))
    start = time.monotonic()
    report = sched.tick()
    wall_ms = (time.monotonic() - start) * 1000
    assert 0 < report.elapsed_ms <= wall_ms


def test_tick_records_failures_instead_of_raising(cluster, tmp_path):
    path, *_ = managed_file(cluster, tmp_path)
    sched = new_scheduler()
    sched.adopt(path, policy(cluster))
    for name in cluster.names():
        cluster.kill(name)
    sched.timeout_ms = 200
    report = sched.tick()  # must not raise
    assert report.failures
    assert report.renewals == 0


def test_tick_never_releases_or_shrinks(cluster, tmp_path):
    path, x, _ = managed_file(cluster, tmp_path, lease_s=10)
    sched = new_scheduler(lease_s=10)
    sched.adopt(path, policy(cluster))
    counts_before = {}
    for addr in cluster.addrs():
        with DepotClient(addr) as cli:
            counts_before[addr] = cli.stats().live_allocations
    for _ in range(12):
        cluster.advance(1)
        sched.tick()
    for addr in cluster.addrs():
        with DepotClient(addr) as cli:
            assert cli.stats().live_allocations >= counts_before[addr]
    assert download(read_exnode(path)) == b"managed-bytes" * 1000


def test_managed_file_survives_many_lease_lifetimes(cluster, tmp_path):
    data = random.Random(12).randbytes(30_000)
    path, *_ = managed_file(cluster, tmp_path, data=data, lease_s=10)
    sched = new_scheduler(lease_s=10)
    sched.adopt(path, policy(cluster, renew_before=5, check_period=1))
    for _ in range(30):  # three lease lifetimes at 1 s cadence
        cluster.advance(1)
        report = sched.tick()
        assert report.failures == []
        assert download(read_exnode(path)) == data


# ------------------------------------------------------------ lease memory


def test_a_lease_due_by_memory_gets_one_request(cluster, tmp_path):
    """With ``renew_before`` above the renewal lease, every renewed lease is
    due again at the next tick whatever the clocks say: the first tick PROBEs
    and RENEWs each replica, the second only RENEWs it."""
    path, x, _ = managed_file(cluster, tmp_path, lease_s=10)
    sched = new_scheduler(lease_s=10)
    sched.adopt(path, policy(cluster, renew_before=20))
    n = sum(len(e.replicas) for e in x.extents)
    for probes in (n, 0):
        before = {verb: served(cluster, verb) for verb in ("PROBE", "RENEW")}
        report = sched.tick()
        assert (report.renewals, report.failures) == (n, [])
        assert {verb: served(cluster, verb) - before[verb] for verb in before} == {
            "PROBE": probes,
            "RENEW": n,
        }


def test_a_replica_released_behind_the_schedulers_back_fails_as_a_probe_would(
    cluster, tmp_path
):
    """The RENEW that memory sends in place of a PROBE fails NoSuchAllocation,
    with the failure line and the repair of a PROBE-first tick."""
    data = random.Random(13).randbytes(9000)
    twins = (tmp_path / "oracle", tmp_path / "batched")
    schedulers = (PerReplicaScheduler(lease_duration_s=10, timeout_ms=1000), new_scheduler())
    for directory, sched in zip(twins, schedulers):
        directory.mkdir()
        path = str(directory / "file.xnd.json")
        write_exnode(path, upload(data, cluster.addrs(), chunk_size=4096, k=2, lease_s=10))
        sched.adopt(path, policy(cluster, renew_before=20))
        assert sched.tick().failures == []
        victim = sched.entries()[0].exnode.extents[1].replicas[0]
        with DepotClient(victim.depot_addr) as cli:
            cli.release(victim.manage)
    probes = served(cluster, "PROBE")
    got = schedulers[1].tick()
    assert served(cluster, "PROBE") == probes  # RENEW only
    expected = schedulers[0].tick()
    assert got.failures == [line.replace(*map(str, twins)) for line in expected.failures]
    assert len(got.failures) == 1 and got.failures[0].endswith(": NoSuchAllocation")
    assert (got.renewals, got.repairs) == (expected.renewals, expected.repairs)
    assert got.repairs == 1
    assert download(read_exnode(schedulers[1].entries()[0].path)) == data


def test_memory_holds_only_managed_replicas(cluster, tmp_path):
    """After a drop and after a repair, memory names no replica the scheduler
    no longer manages, and at most one entry per managed replica."""
    sched = new_scheduler()
    paths = []
    for name in ("kept", "dropped"):
        directory = tmp_path / name
        directory.mkdir()
        paths.append(managed_file(cluster, directory, k=3)[0])
        sched.adopt(paths[-1], policy(cluster, k=3))
    sched.tick()
    gone = managed_caps(sched)
    assert set(sched._leases) == gone
    sched.drop(paths[1])
    sched.tick()
    gone -= managed_caps(sched)
    assert gone and not gone & set(sched._leases)
    assert set(sched._leases) <= managed_caps(sched)

    # A poisoned replica PROBEs live, so this tick remembers it before the
    # repair that its neighbour's release sets off drops it.
    extent = sched.entries()[0].exnode.extents[0]
    poisoned, released, _ = extent.replicas
    cluster.handle(f"d{cluster.addrs().index(poisoned.depot_addr)}").server.depot.mark_unknown(
        poisoned.manage
    )
    with DepotClient(released.depot_addr) as cli:
        cli.release(released.manage)
    report = sched.tick()
    assert report.repairs == 1
    replaced = {poisoned.manage, released.manage}
    assert not replaced & managed_caps(sched)
    assert not replaced & set(sched._leases)
    assert set(sched._leases) <= managed_caps(sched)


# ------------------------------------------------------------ batched tick


class PerReplicaScheduler(LodnScheduler):
    """The oracle: a tick that makes one PROBE and, when due, one RENEW round
    trip per replica, an exNode at a time, then repairs that exNode if thin."""

    def tick(self) -> TickReport:
        report = TickReport()
        for entry in self.entries():
            try:
                thin = False
                for extent in entry.exnode.extents:
                    live = 0
                    for pos, replica in enumerate(extent.replicas):
                        try:
                            with session(replica.depot_addr, self.timeout_ms) as cli:
                                info = cli.probe(replica.manage)
                                if info.expires_in_ms <= entry.policy.renew_before * 1000:
                                    cli.renew(replica.manage, int(self.lease_duration_s))
                                    report.renewals += 1
                            live += 1
                        except EbpError as exc:
                            report.failures.append(
                                f"{entry.path}: extent@{extent.offset} replica {pos}"
                                f" ({replica.depot_addr}): {exc.code}"
                            )
                    thin = thin or live < entry.policy.replicas
                if thin:
                    self._repair(entry, report)
            except EbpError as exc:
                report.failures.append(f"{entry.path}: {exc.code}: {exc.message}")
        return report


@settings(max_examples=25, deadline=None)
@given(
    files=st.lists(
        st.tuples(st.integers(0, 12), st.sampled_from([1, 2]), st.sampled_from([5, 15, 25, 40])),
        min_size=2,
        max_size=4,
    ),
    dead=st.one_of(st.none(), st.integers(0, 2)),
    gaps=st.lists(st.integers(0, 12), min_size=2, max_size=2),
)
def test_batched_tick_matches_the_per_replica_oracle(tmp_path_factory, files, dead, gaps):
    """Each file is uploaded twice at once, one copy for each scheduler, and
    ages for its own number of seconds before the next file's upload. Then
    both schedulers tick three times, ``gaps`` seconds apart. A
    ``renew_before`` of 40, above the lease of 30, makes the batched
    scheduler RENEW by memory with no PROBE from its second tick on. Under
    virtual time the depots' clock jumps and the scheduler's does not, so a
    lower ``renew_before`` keeps to the PROBE path."""
    base = tmp_path_factory.mktemp("tick")
    twins = (base / "oracle", base / "batched")
    for directory in twins:
        directory.mkdir()
    schedulers = []
    with SimCluster(3, virtual_time=True) as cluster:
        for cls in (PerReplicaScheduler, LodnScheduler):
            schedulers.append(cls(lease_duration_s=30, timeout_ms=1000))
        for i, (age, replicas, renew_before) in enumerate(files):
            data = random.Random(i).randbytes(3000)
            for directory, scheduler in zip(twins, schedulers):
                path = str(directory / f"f{i}.xnd.json")
                write_exnode(path, upload(data, cluster.addrs(), chunk_size=1024, k=2, lease_s=30))
                scheduler.adopt(path, Policy(replicas, renew_before, 1))
            cluster.advance(age)
        dead_addr = None if dead is None else cluster.handle(f"d{dead}").addr
        if dead is not None:
            cluster.kill(f"d{dead}")

        repairing = [False]
        real_repair = lors_mod.repair

        def flagged_repair(*args, **kwargs):
            repairing[0] = True
            try:
                return real_repair(*args, **kwargs)
            finally:
                repairing[0] = False

        attempts = [0]  # connections to the dead depot outside repair
        real_connect = client_mod.socket.create_connection

        def counting_connect(address, *args, **kwargs):
            if f"{address[0]}:{address[1]}" == dead_addr and not repairing[0]:
                attempts[0] += 1
            return real_connect(address, *args, **kwargs)

        oracle_dir, batched_dir = (str(directory) for directory in twins)
        for gap in (0, *gaps):
            cluster.advance(gap)
            expected = schedulers[0].tick()
            on_dead = any(r.depot_addr == dead_addr for r in managed_replicas(schedulers[1]))
            attempts[0] = 0
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lors_mod, "repair", flagged_repair)
                patch.setattr(client_mod.socket, "create_connection", counting_connect)
                got = schedulers[1].tick()
            assert got.renewals == expected.renewals
            assert got.repairs == expected.repairs
            assert got.failures == [line.replace(oracle_dir, batched_dir) for line in expected.failures]
            assert attempts[0] == int(on_dead)


# ------------------------------------------------------------------ daemon


def test_run_dir_adopts_and_ticks(cluster, tmp_path):
    path, *_ = managed_file(cluster, tmp_path, lease_s=100)
    ppath = policy_path_for(path)
    with open(ppath, "w") as fh:
        json.dump(
            {
                "replicas": 2,
                "renew_before": 5,
                "check_period": 1,
                "preferred_depots": list(cluster.addrs()),
            },
            fh,
        )
    orphan = tmp_path / "orphan.xnd.json"  # no policy: skipped
    orphan.write_text('{"version":1,"total_length":0,"extents":[],"metadata":{}}')
    sched = new_scheduler(lease_s=100)
    run_dir(str(tmp_path), scheduler=sched, max_ticks=2)
    assert [e.path for e in sched.entries()] == [path]


def test_run_dir_skips_an_exnode_whose_policy_is_wrong_typed(cluster, tmp_path, caplog):
    """A wrong-typed field, or a required one left out."""
    path, *_ = managed_file(cluster, tmp_path, lease_s=100)
    for doc in (
        {"replicas": "2", "renew_before": 5, "check_period": 1},
        {"renew_before": 5, "check_period": 1},
    ):
        with open(policy_path_for(path), "w") as fh:
            json.dump(doc, fh)
        sched = new_scheduler(lease_s=100)
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="ebp.lodn"):
            run_dir(str(tmp_path), scheduler=sched, max_ticks=1)
        assert sched.entries() == []
        assert f"cannot adopt {path}" in caplog.text


def test_run_dir_skips_an_exnode_whose_policy_cannot_be_read(cluster, tmp_path, caplog):
    path, *_ = managed_file(cluster, tmp_path, lease_s=100)
    os.mkdir(policy_path_for(path))  # open() raises IsADirectoryError
    sched = new_scheduler(lease_s=100)
    with caplog.at_level(logging.ERROR, logger="ebp.lodn"):
        run_dir(str(tmp_path), scheduler=sched, max_ticks=1)
    assert sched.entries() == []
    assert f"cannot adopt {path}" in caplog.text
