"""Policy daemon: holds exNodes, renews leases early, repairs thin extents.

Each managed exNode carries a policy document stored beside it as
``<name>.policy.json`` with exactly these fields::

    {"replicas": 2, "renew_before": 5, "check_period": 1, "preferred_depots": [...]}

A tick covers all managed exNodes in three steps. First a probe pass: the
replicas of every exNode are grouped by depot, and each depot gets one batch,
over one pooled session, of PROBEs for its replicas that are not due by
memory (below). Then a renew pass over the same session: one batch of RENEWs
for the replicas due by memory, which had no PROBE, and for those whose PROBE
showed a lease expiring within ``renew_before`` seconds. A replica is live
when its PROBE, and its RENEW if it was due, succeeded; a replica due by
memory is live when its RENEW succeeded, since RENEW authorizes the same
manage capability as PROBE and fails with the same codes. Last, extents below
the replica target are repaired through the file runtime. A depot that cannot
be reached costs one connection attempt in the probe pass and at most one in
each exNode's repair, and each of its replicas a failure line. Per-action
failures are recorded in the tick report and never abort the loop. Ticks are
idempotent in state: right after a tick there is nothing left to renew or
repair, so a second tick at the same instant takes no actions.

Memory is the milliseconds left in each replica's last successful PROBE or
RENEW reply, stamped with the local monotonic clock read after that batch's
replies; it is rebuilt from each tick's replies, so it holds only the
replicas that tick checked and found live. A replica is due by memory when
its remembered milliseconds, less the local milliseconds from the stamp to
the tick's start, are at or below ``renew_before``. The error goes one way:
the stamp is read after the depot read its own clock, so memory can only
overstate the time left. A replica due by memory is truly due, and one that
memory wrongly calls not due is PROBEd. Only a lease renewed by someone else
between two ticks gets a RENEW it did not need, which is harmless: RENEW
never shortens a lease.

Only a repair releases allocations: those of the replicas it drops. The
exNode file is atomically rewritten only when repair changed its capabilities.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import lors
from .capability import Capability
from .client import session
from .depot import from_json_fields
from .errors import EbpError, NotManaged, ValidationFailed
from .exnode import FILE_SUFFIX, ExNode, read_exnode, validate, write_exnode

logger = logging.getLogger("ebp.lodn")

POLICY_SUFFIX = ".policy.json"


@dataclass(frozen=True)
class Policy:
    replicas: int
    renew_before: float
    check_period: float
    preferred_depots: tuple = ()

    def __post_init__(self):
        for name, kind in (("replicas", int), ("renew_before", float), ("check_period", float)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, kind)):
                raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}")
        depots = self.preferred_depots
        if not isinstance(depots, (list, tuple)) or not all(isinstance(d, str) for d in depots):
            raise ValueError("preferred_depots must be a list of strings")
        object.__setattr__(self, "preferred_depots", tuple(depots))
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.check_period < 1:
            raise ValueError("check_period must be >= 1")
        if self.renew_before <= self.check_period:
            raise ValueError("renew_before must exceed check_period")

    @classmethod
    def from_json_file(cls, path: str) -> "Policy":
        return from_json_fields(cls, path, "policy")


@dataclass
class ManagedEntry:
    path: str
    exnode: ExNode
    policy: Policy


@dataclass
class TickReport:
    renewals: int = 0
    repairs: int = 0
    failures: list = field(default_factory=list)
    elapsed_ms: float = 0.0  # the tick's duration on the monotonic clock

    @property
    def actions(self) -> int:
        return self.renewals + self.repairs


class _Check(NamedTuple):
    """One replica in a tick's probe and renew passes."""

    key: tuple  # (exNode path, extent index, replica position)
    cap: Capability  # the manage capability
    renew_before_ms: float
    due: bool  # due by memory: RENEWed with no PROBE first


class LodnScheduler:
    """One scheduler loop over a set of adopted exNode files."""

    def __init__(
        self,
        *,
        lease_duration_s: float = lors.DEFAULT_LEASE_S,
        timeout_ms: int = 3000,
    ):
        # Renewals extend to lease_duration_s, which must exceed renew_before
        # or every tick would renew again. A lease's time left is a duration
        # the depot reported less the local time elapsed since, never one
        # node's clock compared with another's.
        self.lease_duration_s = lease_duration_s
        self.timeout_ms = timeout_ms
        self._entries: dict = {}
        # manage capability -> (ms left in its last reply, monotonic s after it)
        self._leases: dict = {}
        self._tick_lock = threading.Lock()

    # ------------------------------------------------------------ membership

    def adopt(self, exnode_path: str, policy: Policy) -> ManagedEntry:
        try:
            exnode = read_exnode(exnode_path)
        except (EbpError, OSError) as exc:
            raise ValidationFailed(f"{exnode_path}: {exc}") from exc
        problems = validate(exnode)
        if problems:
            raise ValidationFailed(f"{exnode_path}: {'; '.join(problems)}")
        for i, extent in enumerate(exnode.extents):
            for j, replica in enumerate(extent.replicas):
                if replica.manage is None:
                    raise ValidationFailed(
                        f"{exnode_path}: extent {i} replica {j} has no manage"
                        " capability; leases cannot be renewed"
                    )
        entry = ManagedEntry(path=exnode_path, exnode=exnode, policy=policy)
        self._entries[exnode_path] = entry
        return entry

    def drop(self, exnode_path: str) -> None:
        if exnode_path not in self._entries:
            raise NotManaged(f"{exnode_path} is not managed")
        del self._entries[exnode_path]

    def entries(self) -> list:
        return list(self._entries.values())

    # ------------------------------------------------------------------ tick

    def tick(self) -> TickReport:
        """One maintenance pass over every managed exNode."""
        with self._tick_lock:  # ticks never overlap
            start = time.monotonic()
            report = TickReport()
            entries = list(self._entries.values())
            remembered, self._leases = self._leases, {}
            by_depot: dict = {}  # depot address -> [_Check] in exNode order
            for entry in entries:
                before_ms = entry.policy.renew_before * 1000
                for i, extent in enumerate(entry.exnode.extents):
                    for pos, replica in enumerate(extent.replicas):
                        cap = replica.manage
                        lease = remembered.get(cap)
                        due = lease is not None and (
                            lease[0] - (start - lease[1]) * 1000 <= before_ms
                        )
                        check = _Check((entry.path, i, pos), cap, before_ms, due)
                        by_depot.setdefault(replica.depot_addr, []).append(check)
            failed: dict = {}  # (path, extent index, position) -> error code
            for addr, checks in by_depot.items():
                self._check_depot(addr, checks, failed, report)
            for entry in entries:
                try:
                    self._settle_entry(entry, failed, report)
                except EbpError as exc:
                    report.failures.append(f"{entry.path}: {exc.code}: {exc.message}")
            report.elapsed_ms = (time.monotonic() - start) * 1000
            return report

    def _check_depot(self, addr: str, checks: list, failed: dict, report: TickReport) -> None:
        """The probe pass, then the renew pass, over one session to ``addr``;
        records in ``failed`` the code of each replica that is not live, and
        remembers the time left of each that is."""
        pending = checks  # the checks the next pass settles
        try:
            with session(addr, self.timeout_ms) as cli:
                # Liveness is PROBE or RENEW success. ROADMAP item 2's
                # replica_health check plugs in here, over this one session.
                due = [c for c in checks if c.due]
                probed = [c for c in checks if not c.due]
                infos = cli.probe_many([c.cap for c in probed])
                read_at = time.monotonic()
                for check, info in zip(probed, infos):
                    if isinstance(info, EbpError):
                        failed[check.key] = info.code
                    elif info.expires_in_ms <= check.renew_before_ms:
                        due.append(check)
                    else:
                        self._leases[check.cap] = (info.expires_in_ms, read_at)
                pending = due
                renewed = cli.renew_many([c.cap for c in due], int(self.lease_duration_s))
                read_at = time.monotonic()
                for check, result in zip(due, renewed):
                    if isinstance(result, EbpError):
                        failed[check.key] = result.code
                    else:
                        self._leases[check.cap] = (result, read_at)
                        report.renewals += 1
        except EbpError as exc:  # no session, or a malformed reply
            for check in pending:
                failed.setdefault(check.key, exc.code)

    def _settle_entry(self, entry: ManagedEntry, failed: dict, report: TickReport) -> None:
        """Report the replicas of ``entry`` that are not live; repair it if thin."""
        thin = False
        for i, extent in enumerate(entry.exnode.extents):
            live = 0
            for pos, replica in enumerate(extent.replicas):
                code = failed.get((entry.path, i, pos))
                if code is None:
                    live += 1
                else:
                    report.failures.append(
                        f"{entry.path}: extent@{extent.offset} replica {pos}"
                        f" ({replica.depot_addr}): {code}"
                    )
            thin = thin or live < entry.policy.replicas
        if thin:
            self._repair(entry, report)

    def _repair(self, entry: ManagedEntry, report: TickReport) -> None:
        """Bring every extent of ``entry`` back to its replica target."""
        policy = entry.policy
        depots = list(policy.preferred_depots) or sorted(
            {r.depot_addr for e in entry.exnode.extents for r in e.replicas}
        )
        repaired = lors.repair(
            entry.exnode,
            policy.replicas,
            depots,
            lease_s=int(self.lease_duration_s),
            timeout_ms=self.timeout_ms,
        )
        changed = sum(
            1
            for old, new in zip(entry.exnode.extents, repaired.extents)
            if old.replicas != new.replicas
        )
        if changed:
            dropped = {r.manage for e in entry.exnode.extents for r in e.replicas}
            dropped -= {r.manage for e in repaired.extents for r in e.replicas}
            for cap in dropped:  # memory holds only managed replicas
                self._leases.pop(cap, None)
            write_exnode(entry.path, repaired)
            entry.exnode = repaired
            report.repairs += changed
            logger.info("repaired %d extent(s) of %s", changed, entry.path)


# ------------------------------------------------------------------- daemon


def policy_path_for(exnode_path: str) -> str:
    base = exnode_path
    if base.endswith(FILE_SUFFIX):
        base = base[: -len(FILE_SUFFIX)]
    return base + POLICY_SUFFIX


def run_dir(
    directory: str,
    *,
    scheduler: Optional[LodnScheduler] = None,
    stop: Optional[threading.Event] = None,
    max_ticks: Optional[int] = None,
) -> LodnScheduler:
    """Adopt every ``*.xnd.json`` with a sibling policy file, then loop."""
    import glob
    import os.path

    sched = scheduler or LodnScheduler()
    stop = stop or threading.Event()
    for exnode_path in sorted(glob.glob(os.path.join(directory, "*" + FILE_SUFFIX))):
        ppath = policy_path_for(exnode_path)
        if not os.path.exists(ppath):
            logger.warning("%s has no policy file; skipping", exnode_path)
            continue
        try:
            sched.adopt(exnode_path, Policy.from_json_file(ppath))
            logger.info("adopted %s", exnode_path)
        except (ValidationFailed, ValueError, OSError) as exc:
            logger.error("cannot adopt %s: %s", exnode_path, exc)
    period = min((e.policy.check_period for e in sched.entries()), default=1.0)
    ticks = 0
    while not stop.is_set():
        report = sched.tick()
        if report.actions or report.failures:
            logger.info(
                "tick: %d renewals, %d repairs, %d failures",
                report.renewals,
                report.repairs,
                len(report.failures),
            )
        ticks += 1
        if max_ticks is not None and ticks >= max_ticks:
            break
        stop.wait(period)
    return sched
