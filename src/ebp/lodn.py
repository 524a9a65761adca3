"""Policy daemon: holds exNodes, renews leases early, repairs thin extents.

Each managed exNode carries a policy document stored beside it as
``<name>.policy.json`` with exactly these fields::

    {"replicas": 2, "renew_before": 5, "check_period": 1, "preferred_depots": [...]}

A tick covers all managed exNodes in three steps. First a probe pass: the
replicas of every exNode are grouped by depot, and each depot gets all of its
PROBEs in one batch over one pooled session. Then a renew pass over the same
session: one batch of RENEWs for the replicas whose lease expires within
``renew_before`` seconds. A replica is live when its PROBE, and its RENEW if
it was due, succeeded. Last, extents below the replica target are repaired
through the file runtime. A depot that cannot be reached costs one connection
attempt in the probe pass and at most one in each exNode's repair, and each
of its replicas a failure line. Per-action failures are recorded in the tick
report and never abort the loop. Ticks are idempotent in state: right after a
tick there is nothing left to renew or repair, so a second tick at the same
instant takes no actions.

Only a repair releases allocations: those of the replicas it drops. The
exNode file is atomically rewritten only when repair changed its capabilities.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import lors
from .capability import Capability
from .client import session
from .errors import EbpError, NotManaged, ValidationFailed
from .exnode import FILE_SUFFIX, ExNode, read_exnode, validate, write_exnode

logger = logging.getLogger("ebp.lodn")

POLICY_SUFFIX = ".policy.json"
_POLICY_FIELDS = {"replicas", "renew_before", "check_period", "preferred_depots"}


@dataclass(frozen=True)
class Policy:
    replicas: int
    renew_before: float
    check_period: float
    preferred_depots: tuple = ()

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.check_period < 1:
            raise ValueError("check_period must be >= 1")
        if self.renew_before <= self.check_period:
            raise ValueError("renew_before must exceed check_period")

    @classmethod
    def from_json_file(cls, path: str) -> "Policy":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("policy must be a JSON object")
        unknown = set(doc) - _POLICY_FIELDS
        if unknown:
            raise ValueError(f"unknown policy fields: {sorted(unknown)}")
        doc = dict(doc)
        doc["preferred_depots"] = tuple(doc.get("preferred_depots", ()))
        return cls(**doc)


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

    @property
    def actions(self) -> int:
        return self.renewals + self.repairs


class _Check(NamedTuple):
    """One replica in a tick's probe and renew passes."""

    key: tuple  # (exNode path, extent index, replica position)
    cap: Capability  # the manage capability
    renew_before_ms: float


class LodnScheduler:
    """One scheduler loop over a set of adopted exNode files."""

    def __init__(
        self,
        *,
        lease_duration_s: float = lors.DEFAULT_LEASE_S,
        timeout_ms: int = 3000,
    ):
        # Renewals extend to lease_duration_s, which must exceed renew_before
        # or every tick would renew again. A tick reads each lease's time
        # left from the depot's PROBE reply, never a clock of its own.
        self.lease_duration_s = lease_duration_s
        self.timeout_ms = timeout_ms
        self._entries: dict = {}
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
            report = TickReport()
            entries = list(self._entries.values())
            by_depot: dict = {}  # depot address -> [_Check] in exNode order
            for entry in entries:
                before_ms = entry.policy.renew_before * 1000
                for i, extent in enumerate(entry.exnode.extents):
                    for pos, replica in enumerate(extent.replicas):
                        check = _Check((entry.path, i, pos), replica.manage, before_ms)
                        by_depot.setdefault(replica.depot_addr, []).append(check)
            failed: dict = {}  # (path, extent index, position) -> error code
            for addr, checks in by_depot.items():
                self._check_depot(addr, checks, failed, report)
            for entry in entries:
                try:
                    self._settle_entry(entry, failed, report)
                except EbpError as exc:
                    report.failures.append(f"{entry.path}: {exc.code}: {exc.message}")
            return report

    def _check_depot(self, addr: str, checks: list, failed: dict, report: TickReport) -> None:
        """The probe pass, then the renew pass, over one session to ``addr``;
        records in ``failed`` the code of each replica that is not live."""
        pending = checks  # the checks the next pass settles
        try:
            with session(addr, self.timeout_ms) as cli:
                # Liveness is PROBE success. ROADMAP item 2's replica_health
                # check plugs in here, still over this one session per depot.
                due = []
                for check, info in zip(pending, cli.probe_many([c.cap for c in pending])):
                    if isinstance(info, EbpError):
                        failed[check.key] = info.code
                    elif info.expires_in_ms <= check.renew_before_ms:
                        due.append(check)
                pending = due
                renewed = cli.renew_many([c.cap for c in due], int(self.lease_duration_s))
                for check, result in zip(due, renewed):
                    if isinstance(result, EbpError):
                        failed[check.key] = result.code
                    else:
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
        except (ValidationFailed, ValueError) as exc:
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
