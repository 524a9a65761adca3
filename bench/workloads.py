"""The three workloads: bulk, maintain and insitu.

Each workload makes its inputs from the seed alone, builds its starting
state on a fresh set of depots (``setup``), then runs whole rounds of the
same operations (``run_round``), checking every output against values it
computes apart from ebp or against properties the method must have. A
round returns the time of each of its timed steps; the runner reports the
median of their sum as ``round_ms`` and each step's median rate for people.

The client keeps at most two requests in flight, one per core: ``lors``
runs with ``parallelism=2`` and lodn ticks and transforms run one at a time.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import zlib
from time import perf_counter

from ebp import exnode, lors
from ebp.capability import Hardness
from ebp.client import DepotClient
from ebp.lodn import LodnScheduler, Policy
from ebp.nfu import OutputsState, ResourceBudget, TransformStatus

KiB = 1 << 10
MiB = 1 << 20
PARALLELISM = 2
K = 2


class Mismatch(Exception):
    """An output of the program differs from what the benchmark expected."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


def expect_empty(addrs: list) -> None:
    """Check that every depot holds no allocation and no bytes."""
    for addr in addrs:
        with DepotClient(addr) as cli:
            stats = cli.stats()
        expect(
            stats.live_allocations == 0 and stats.bytes_in_use == 0,
            f"{addr} still holds {stats.live_allocations} allocations, {stats.bytes_in_use} bytes",
        )


class Workload:
    """What the runner drives: set up, rounds, final checks, close.

    ``period`` is the time between round starts (0: back to back);
    ``ops_per_round`` the operations a round attempts.
    """

    name = ""
    steps: dict = {}  # timed step -> (work it does per round, unit of that work)
    period = 0.0
    ops_per_round = 1

    def setup(self, addrs: list, workdir: str) -> None:
        """Build the starting state on freshly started depots."""

    def run_round(self, index: int) -> dict:
        """Run one round; return {step: seconds} for every step in ``steps``."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks after the last round."""

    def close(self) -> None:
        """Drop what ``setup`` opened; the depots are stopped separately."""


# ---------------------------------------------------------------------- bulk


class Bulk(Workload):
    """Upload, download, repair and release files of several MiB.

    Rounds start on a fixed period so that the sockets each round leaves in
    TIME_WAIT stay far below the loopback port range; otherwise connect()
    slows and a run's figures depend on the run before it.
    """

    name = "bulk"
    # upload, download, release one replica per extent, repair, download, release all
    ops_per_round = 6

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.chunk = 4 * MiB
        size = 300 * KiB if smoke else 14 * MiB + 512 * KiB
        self.period = 0.1 if smoke else 0.4
        self.files = [rng.randbytes(size) for _ in range(3)]
        self.steps = {step: (size / MiB, "MiB") for step in ("put", "get", "repair")}
        self.digests = [hashlib.sha256(f).digest() for f in self.files]
        self.addrs: list = []

    def setup(self, addrs: list, workdir: str) -> None:
        self.addrs = addrs

    def run_round(self, index: int) -> dict:
        data, digest = self.files[index % len(self.files)], self.digests[index % len(self.files)]
        t0 = perf_counter()
        uploaded = lors.upload(data, self.addrs, self.chunk, K, parallelism=PARALLELISM)
        t1 = perf_counter()
        got = lors.download(uploaded, parallelism=PARALLELISM)
        t2 = perf_counter()
        expect(hashlib.sha256(got).digest() == digest, "download differs from the upload")
        for extent in uploaded.extents:
            replica = extent.replicas[0]  # the same one every round, so rounds cost alike
            with DepotClient(replica.depot_addr) as cli:
                cli.release(replica.manage)
        t3 = perf_counter()
        repaired = lors.repair(uploaded, K, self.addrs)
        t4 = perf_counter()
        for extent in repaired.extents:
            hosts = {r.depot_addr for r in extent.replicas}
            expect(len(extent.replicas) == K and len(hosts) == K,
                   f"extent at {extent.offset} has replicas on {sorted(hosts)} after repair")
        expect(hashlib.sha256(lors.download(repaired, parallelism=PARALLELISM)).digest() == digest,
               "download after repair differs from the upload")
        released = lors.release_all(repaired)
        expect(released == K * len(repaired.extents), f"released {released} replicas")
        expect_empty(self.addrs)
        return {"put": t1 - t0, "get": t2 - t1, "repair": t4 - t3}


# ------------------------------------------------------------------ maintain


class Maintain(Workload):
    """Many small-extent exNodes under one LodnScheduler, ticked on a period.

    ``renew_before`` exceeds the renewal lease, so every tick PROBEs and
    RENEWs every replica: one fresh connection per replica check.
    """

    name = "maintain"
    UPLOAD_LEASE_S = 300
    RENEW_LEASE_S = 600
    RENEW_BEFORE_S = 3600

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.count = 4 if smoke else 16
        self.chunk = 1 * KiB
        self.period = 0.1 if smoke else 0.5
        # 3.5 KiB: four extents, the last one partial.
        self.files = [rng.randbytes(3 * KiB + 512) for _ in range(self.count)]
        extents = -(-len(self.files[0]) // self.chunk)
        self.replicas = self.count * extents * K
        self.ops_per_round = self.replicas  # one op per replica check
        self.steps = {"tick": (self.replicas, "checks")}
        self.policy = Policy(replicas=K, renew_before=self.RENEW_BEFORE_S, check_period=1)
        self.scheduler: LodnScheduler | None = None

    def setup(self, addrs: list, workdir: str) -> None:
        self.scheduler = LodnScheduler(lease_duration_s=self.RENEW_LEASE_S)
        for i, data in enumerate(self.files):
            uploaded = lors.upload(data, addrs, self.chunk, K, lease_s=self.UPLOAD_LEASE_S,
                                   parallelism=PARALLELISM)
            path = os.path.join(workdir, f"file-{i}.xnd.json")
            exnode.write_exnode(path, uploaded)
            self.scheduler.adopt(path, self.policy)

    def run_round(self, index: int) -> dict:
        t0 = perf_counter()
        report = self.scheduler.tick()
        elapsed = perf_counter() - t0
        expect(not report.failures, f"tick failures: {report.failures[:3]}")
        expect(report.renewals == self.replicas and report.repairs == 0,
               f"tick renewed {report.renewals} of {self.replicas}, repaired {report.repairs}")
        return {"tick": elapsed}

    def finish(self) -> None:
        """Every replica's remaining lease now exceeds the one it was uploaded with."""
        for entry in self.scheduler.entries():
            for extent in entry.exnode.extents:
                for replica in extent.replicas:
                    with DepotClient(replica.depot_addr) as cli:
                        left = cli.probe(replica.manage).expires_in_ms
                    expect(left > self.UPLOAD_LEASE_S * 1000,
                           f"replica on {replica.depot_addr} has {left} ms left")


# -------------------------------------------------------------------- insitu


def rle_encode(data: bytes) -> bytes:
    """(count 1-255, value) pairs, runs longer than 255 split."""
    out = bytearray()
    for value, group in itertools.groupby(data):
        n = sum(1 for _ in group)
        while n:
            step = min(n, 255)
            out += bytes((step, value))
            n -= step
    return bytes(out)


def run_heavy(rng: random.Random, size: int) -> bytes:
    out = bytearray()
    while len(out) < size:
        out += bytes([rng.randrange(256)]) * rng.randint(1, 700)
    return bytes(out[:size])


class Insitu(Workload):
    """A fixed mix of all seven built-in transforms over one session."""

    name = "insitu"
    ops_per_round = 8
    period = 0.0  # back to back: one session, so no sockets pile up
    BUDGET = ResourceBudget(max_wall_ms=60_000, max_scratch_bytes=1 << 30, max_io_bytes=1 << 32)
    TIMEOUT_MS = 60_000

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        scale = 64 if smoke else 1
        self.big = rng.randbytes(8 * MiB // scale)
        self.xa = rng.randbytes(2 * MiB // scale)
        self.xb = rng.randbytes(2 * MiB // scale)
        self.runs = run_heavy(rng, 384 * KiB // scale)
        self.noise = rng.randbytes(96 * KiB // scale)
        self.copy_len = 4 * MiB // scale
        self.copy_off = rng.randrange(len(self.big) - self.copy_len)
        self.fill_len = 4 * MiB // scale
        self.fill_value = rng.randrange(256)
        self.expected = {
            "crc": zlib.crc32(self.big).to_bytes(4, "big"),
            "sha": hashlib.sha256(self.big).digest(),
            "xor": (int.from_bytes(self.xa, "big") ^ int.from_bytes(self.xb, "big"))
            .to_bytes(len(self.xa), "big"),
            "copy": self.big[self.copy_off : self.copy_off + self.copy_len],
            "fill": bytes([self.fill_value]) * self.fill_len,
            "rle_runs": rle_encode(self.runs),
            "rle_noise": rle_encode(self.noise),
            "unrle": self.runs,
        }
        big, xor, encoded = len(self.big), len(self.xa), len(self.expected["rle_runs"])
        copy = {"src_offset": str(self.copy_off), "length": str(self.copy_len)}
        fill = {"value": str(self.fill_value), "length": str(self.fill_len)}
        # step, op, input buffers, output buffer, params, bytes read
        self.ops = (
            ("crc32", "checksum-crc32", ("big",), "crc", {}, big),
            ("sha256", "checksum-sha256", ("big",), "sha", {}, big),
            ("xor", "xor", ("xa", "xb"), "xor", {}, 2 * xor),
            ("copy-range", "copy-range", ("big",), "copy", copy, self.copy_len),
            ("fill", "fill", (), "fill", fill, 0),
            ("rle-runs", "rle-compress", ("runs",), "rle_runs", {}, len(self.runs)),
            ("rle-noise", "rle-compress", ("noise",), "rle_noise", {}, len(self.noise)),
            ("rle-decompress", "rle-decompress", ("rle_runs",), "unrle", {}, encoded),
        )
        # An op's work is the bytes it reads plus the bytes it writes.
        self.steps = {
            step: ((read + len(self.expected[out])) / MiB, "MiB")
            for step, _op, _ins, out, _params, read in self.ops
        }
        self.cli: DepotClient | None = None
        self.bufs: dict = {}

    def setup(self, addrs: list, workdir: str) -> None:
        self.cli = DepotClient(addrs[0], timeout_ms=self.TIMEOUT_MS)
        inputs = {"big": self.big, "xa": self.xa, "xb": self.xb, "runs": self.runs, "noise": self.noise}
        for key, data in inputs.items():
            caps = self.cli.allocate(len(data), 3600, Hardness.SOFT)
            self.cli.store(caps.write, 0, data)
            self.bufs[key] = caps
        for key, expected in self.expected.items():
            self.bufs[key] = self.cli.allocate(max(1, 2 * len(expected)), 3600, Hardness.SOFT)

    def close(self) -> None:
        if self.cli is not None:
            self.cli.close()
            self.cli = None

    def _transform(self, op: str, ins: tuple, out: str, params: dict, read: int) -> float:
        """Run one transform; check its result and output; return its time."""
        b = self.bufs
        t0 = perf_counter()
        result = self.cli.transform(op, [b[k].read for k in ins], [b[out].write], self.BUDGET, params)
        elapsed = perf_counter() - t0
        expected = self.expected[out]
        expect(result.status is TransformStatus.OK and result.outputs_state is OutputsState.DEFINED,
               f"{op}: {result.status.value}, outputs {result.outputs_state.value}")
        expect(result.io_bytes_used == read + len(expected),
               f"{op}: io_bytes_used {result.io_bytes_used} != {read} read + {len(expected)} written")
        expect(self.cli.probe(b[out].manage).used == len(expected), f"{op}: output length differs")
        loaded = self.cli.load(b[out].read, 0, len(expected))
        expect(loaded.data == expected and not loaded.unknown_state, f"{op}: output differs")
        return elapsed

    def run_round(self, index: int) -> dict:
        return {step: self._transform(*rest) for step, *rest in self.ops}


WORKLOADS = {w.name: w for w in (Bulk, Maintain, Insitu)}
