"""In-process multi-depot test substrate.

Two planes, one depot state:

* Stream plane: every simulated depot is a real ``DepotServer`` listening on
  a loopback port, so the SDK, the file runtime and the CLI run unchanged.
  ``kill`` stops the listener; ``restart`` rebinds the same address with a
  fresh, empty depot (no persistence, deliberately).

* Datagram plane: a virtual fabric carrying op frames between named nodes
  with injectable latency, loss, duplication and reordering per directed
  link. Delivery is driven by a single event loop under a seeded RNG: the
  same seed and script produce the same event log, byte for byte.

  A depot keeps one ``SenderState`` per sending node, since op ids are per
  sender session, strictly increasing from zero. A frame runs once all its
  dependencies (that sender's op ids) have completed, and parks until then.
  A completed op's response is cached and replayed on any later copy of the
  frame, so retransmissions are harmless even for side-effecting verbs. The
  sender may therefore retransmit aggressively: every 50 ms, eight attempts,
  then give up.

Lease clocks can be virtualized: with ``virtual_time=True`` every depot reads
a shared clock that only moves when the test calls ``advance``, which also
runs one sweep on every live depot, so lease expiry is deterministic and
fast.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .depot import DepotConfig
from .errors import EbpError, MalformedFrame, RemoteUnreachable, UnknownDepot
from .server import DepotServer, dispatch_request
from .wire import (
    ErrResponse,
    OpFrame,
    Request,
    VERB_CODES,
    decode_frame,
    decode_request,
    encode_frame,
    encode_request,
    encode_response,
)

DEFAULT_TOTAL_CAPACITY = 256 * 1024 * 1024
RETRANSMIT_INTERVAL_MS = 50
MAX_SEND_ATTEMPTS = 8
WINDOW = 4096  # cached responses a sender state holds before it compacts


class VirtualClock:
    """Monotonic test clock; time moves only when advanced."""

    def __init__(self, start: float = 1000.0):
        self._now = start
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, dt: float) -> float:
        with self._lock:
            self._now += dt
            return self._now

    def __call__(self) -> float:
        return self.now()


class EventLoop:
    """Deterministic discrete-event loop; time is in virtual milliseconds."""

    def __init__(self):
        self.now_ms = 0.0
        self._heap: list = []
        self._seq = itertools.count()

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (self.now_ms + delay_ms, next(self._seq), fn))

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        processed = 0
        while self._heap and processed < max_events:
            when, _seq, fn = heapq.heappop(self._heap)
            self.now_ms = max(self.now_ms, when)
            fn()
            processed += 1
        return processed


@dataclass
class LinkParams:
    latency_ms: float = 0.0
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_spread_ms: float = 20.0


class Fabric:
    """Directed links between named nodes, with seeded fault injection."""

    def __init__(self, loop: EventLoop, seed: int = 0):
        self.loop = loop
        self.rng = random.Random(seed)
        self.nodes: dict = {}
        self.links: dict = {}
        self.dead: set = set()
        self.log: list = []

    def register(self, name: str, handler: Callable[[bytes, str], None]) -> None:
        self.nodes[name] = handler

    def set_link(self, src: str, dst: str, params: LinkParams) -> None:
        for name in (src, dst):
            if name not in self.nodes:
                raise UnknownDepot(f"no node named {name!r}")
        self.links[(src, dst)] = params

    def params(self, src: str, dst: str) -> LinkParams:
        return self.links.get((src, dst), LinkParams())

    def send(self, src: str, dst: str, data: bytes) -> None:
        if dst not in self.nodes:
            raise UnknownDepot(f"no node named {dst!r}")
        t = self.loop.now_ms
        if src in self.dead or dst in self.dead:
            self.log.append((t, "drop-dead", src, dst, len(data)))
            return
        link = self.params(src, dst)
        if link.loss_rate and self.rng.random() < link.loss_rate:
            self.log.append((t, "drop-loss", src, dst, len(data)))
            return
        copies = 1
        while link.dup_rate and copies < 5 and self.rng.random() < link.dup_rate:
            copies += 1
        for copy in range(copies):
            delay = link.latency_ms
            if link.reorder_rate and self.rng.random() < link.reorder_rate:
                delay += self.rng.uniform(0.0, link.reorder_spread_ms)
            if copy:
                self.log.append((t, "dup", src, dst, len(data)))
            self.log.append((t, "send", src, dst, len(data)))
            self.loop.schedule(delay, lambda d=data: self._deliver(src, dst, d))

    def _deliver(self, src: str, dst: str, data: bytes) -> None:
        if dst in self.dead:
            self.log.append((self.loop.now_ms, "drop-dead", src, dst, len(data)))
            return
        self.log.append((self.loop.now_ms, "deliver", src, dst, len(data)))
        self.nodes[dst](data, src)


class SenderState:
    """A depot's receive state for one sender: the watermark, the cached
    responses, the parked frames and the waiters.

    Completed ops keep their response bytes; once more than ``WINDOW`` are
    held the watermark advances over the contiguous completed prefix and
    those entries are dropped (everything below the watermark is known
    complete, but its response is gone, so a straggler copy from below is
    answered StaleOp rather than re-executed).
    """

    def __init__(self):
        self.watermark = 0
        self.responses: dict = {}  # op_id -> response bytes
        self.parked: dict = {}  # op_id -> frame waiting on a dependency
        self.waiters: dict = {}  # missing dep op_id -> set of parked op_ids

    def completed(self, op_id: int) -> bool:
        return op_id < self.watermark or op_id in self.responses

    def complete(self, op_id: int, response: bytes) -> None:
        self.responses[op_id] = response
        if len(self.responses) > WINDOW:
            while self.watermark in self.responses:
                del self.responses[self.watermark]
                self.watermark += 1

    def park(self, frame: OpFrame) -> bool:
        """Park ``frame`` under its first missing dependency; False when it
        has none and may run. When that dependency completes the frame is
        woken and either runs or parks under its next missing one."""
        for dep in frame.deps:
            if not self.completed(dep):
                self.parked[frame.op_id] = frame
                self.waiters.setdefault(dep, set()).add(frame.op_id)
                return True
        return False


class DatagramDepot:
    """Datagram-mode face of one depot: per-sender dedup, DAG deferral,
    dispatch.

    Operates on the same depot/engine pair as the stream server (when there
    is one), so both transports see one allocation table.
    """

    def __init__(self, name: str, depot, engine, fabric: Fabric):
        self.name = name
        self.depot = depot
        self.engine = engine
        self.fabric = fabric
        self.senders: dict = {}  # fabric node name -> SenderState
        self.exec_counts: dict = {}  # op_id -> runs, summed over senders
        fabric.register(name, self.on_datagram)

    # dispatch_request duck-types against DepotServer: it needs .depot,
    # .engine and handle_transfer; datagram transfers stay depot-local.
    def handle_transfer(self, req) -> int:
        if req.src.depot_addr != self.depot.addr or req.dst.depot_addr != self.depot.addr:
            raise RemoteUnreachable("datagram transfers are depot-local")
        return self.depot.transfer_local(
            req.src, req.src_offset, req.dst, req.dst_offset, req.length
        )

    def on_datagram(self, data: bytes, src: str) -> None:
        try:
            frame = decode_frame(data)
        except EbpError:
            return  # undecodable datagram: drop, best effort
        if frame.verb_code == VERB_CODES["RESPONSE"]:
            return
        sender = self.senders.setdefault(src, SenderState())
        if frame.op_id in sender.responses:
            self._reply(src, frame.op_id, sender.responses[frame.op_id])
        elif frame.op_id < sender.watermark:
            self._reply(src, frame.op_id, encode_response(ErrResponse("StaleOp", "below window")))
        elif frame.op_id not in sender.parked:
            self._run(sender, src, frame)

    def _run(self, sender: SenderState, src: str, frame: OpFrame) -> None:
        """Execute ``frame`` unless it parks, then every frame it wakes."""
        ready = [frame]
        while ready:
            current = ready.pop()
            if sender.park(current):
                continue
            try:
                request, _ = decode_request(current.body)
                if VERB_CODES[request.verb] != current.verb_code:
                    raise MalformedFrame(f"verb code {current.verb_code} is not {request.verb}")
                response = encode_response(dispatch_request(request, self))
            except EbpError as exc:
                response = encode_response(ErrResponse(exc.code, exc.message))
            self.exec_counts[current.op_id] = self.exec_counts.get(current.op_id, 0) + 1
            sender.complete(current.op_id, response)
            self._reply(src, current.op_id, response)
            for waiter_id in sorted(sender.waiters.pop(current.op_id, ())):
                ready.append(sender.parked.pop(waiter_id))

    def _reply(self, dst: str, op_id: int, response: bytes) -> None:
        frame = OpFrame(op_id=op_id, deps=(), verb_code=VERB_CODES["RESPONSE"], body=response)
        self.fabric.send(self.name, dst, encode_frame(frame))


@dataclass
class _PendingOp:
    frame_bytes: bytes
    dst: str
    attempts: int = 0
    status: str = "pending"  # pending | acked | gave_up
    response: Optional[bytes] = None


class DatagramClient:
    """Datagram-mode sender with per-session op ids starting at zero."""

    def __init__(self, name: str, fabric: Fabric):
        self.name = name
        self.fabric = fabric
        self.loop = fabric.loop
        self.ops: dict = {}
        self._next_op = itertools.count()
        fabric.register(name, self.on_datagram)

    def submit(self, dst: str, request: Request, deps: tuple = ()) -> int:
        op_id = next(self._next_op)
        frame = OpFrame(
            op_id=op_id,
            deps=tuple(deps),
            verb_code=VERB_CODES[request.verb],
            body=encode_request(request),
        )
        op = _PendingOp(frame_bytes=encode_frame(frame), dst=dst)
        self.ops[op_id] = op
        self._pump(op_id)
        return op_id

    def rearm(self, op_id: int) -> None:
        """Retry an op that gave up; the receiver's dedup keeps this safe."""
        op = self.ops[op_id]
        if op.status == "gave_up":
            op.status = "pending"
            op.attempts = 0
            self._pump(op_id)

    def on_datagram(self, data: bytes, src: str) -> None:
        try:
            frame = decode_frame(data)
        except EbpError:
            return
        if frame.verb_code != VERB_CODES["RESPONSE"]:
            return
        op = self.ops.get(frame.op_id)
        if op is not None and op.status != "acked":
            op.status = "acked"
            op.response = frame.body

    def _pump(self, op_id: int) -> None:
        # Fixed-interval retransmission, no backoff: the event loop fires
        # exactly on schedule, so each call is one due send, or the give-up.
        op = self.ops[op_id]
        if op.status != "pending":
            return
        if op.attempts == MAX_SEND_ATTEMPTS:
            op.status = "gave_up"
            return
        op.attempts += 1
        self.fabric.send(self.name, op.dst, op.frame_bytes)
        self.loop.schedule(RETRANSMIT_INTERVAL_MS, lambda: self._pump(op_id))

    # ---- bookkeeping views

    def acked(self) -> list:
        return [op_id for op_id, op in self.ops.items() if op.status == "acked"]

    def gave_up(self) -> list:
        return [op_id for op_id, op in self.ops.items() if op.status == "gave_up"]


@dataclass
class DepotHandle:
    name: str
    server: DepotServer
    endpoint: DatagramDepot
    alive: bool = True

    @property
    def addr(self) -> str:
        return self.server.addr


class SimCluster:
    """N real depot servers on loopback plus one shared datagram fabric."""

    def __init__(
        self,
        n: int,
        *,
        seed: int = 0,
        virtual_time: bool = False,
        total_capacity: int = DEFAULT_TOTAL_CAPACITY,
        config_overrides: Optional[dict] = None,
        per_depot_overrides: Optional[list] = None,
        sweep_period_s: float = 1.0,
    ):
        self.loop = EventLoop()
        self.fabric = Fabric(self.loop, seed=seed)
        self.clock = VirtualClock() if virtual_time else None
        self._sweep_period_s = sweep_period_s
        self.handles: dict = {}
        for i in range(n):
            overrides = dict(config_overrides or {})
            if per_depot_overrides and i < len(per_depot_overrides):
                overrides.update(per_depot_overrides[i])
            overrides.setdefault("total_capacity", total_capacity)
            overrides.setdefault("listen_addr", "127.0.0.1:0")
            config = DepotConfig(**overrides)
            self._spawn(f"d{i}", config)

    def _spawn(self, name: str, config: DepotConfig) -> "DepotHandle":
        server = DepotServer(
            config,
            clock=self.clock if self.clock is not None else time.monotonic,
            sweep_period_s=self._sweep_period_s,
        )
        server.start()
        endpoint = DatagramDepot(name, server.depot, server.engine, self.fabric)
        handle = DepotHandle(name=name, server=server, endpoint=endpoint)
        self.handles[name] = handle
        self.fabric.dead.discard(name)
        return handle

    # ------------------------------------------------------------- topology

    def names(self) -> list:
        return sorted(self.handles, key=lambda n: int(n[1:]))

    def addrs(self) -> list:
        return [self.handles[name].addr for name in self.names()]

    def handle(self, name: str) -> DepotHandle:
        try:
            return self.handles[name]
        except KeyError:
            raise UnknownDepot(f"no depot named {name!r}") from None

    def set_link(self, src: str, dst: str, **params) -> None:
        self.fabric.set_link(src, dst, LinkParams(**params))

    def datagram_client(self, name: str = "client") -> DatagramClient:
        return DatagramClient(name, self.fabric)

    # ------------------------------------------------------------ lifecycle

    def kill(self, name: str) -> None:
        handle = self.handle(name)
        if handle.alive:
            handle.server.stop()
            handle.alive = False
        self.fabric.dead.add(name)

    def restart(self, name: str) -> DepotHandle:
        """Bring a depot back on its old address, empty (no persistence)."""
        old = self.handle(name)
        if old.alive:
            old.server.stop()
        config = replace(old.server.config, listen_addr=old.server.addr)
        return self._spawn(name, config)

    def advance(self, seconds: float) -> None:
        """Move the virtual lease clock and run one sweep on live depots."""
        if self.clock is None:
            raise RuntimeError("cluster was not built with virtual_time=True")
        self.clock.advance(seconds)
        for name in self.names():
            handle = self.handles[name]
            if handle.alive:
                handle.server.depot.sweep_leases()

    def stop_all(self) -> None:
        for handle in self.handles.values():
            if handle.alive:
                handle.server.stop()
                handle.alive = False

    def __enter__(self) -> "SimCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.stop_all()


# ------------------------------------------------------------------ scripts


def run_script(cluster: SimCluster, actions: list) -> list:
    """Execute a JSON-style list of timed actions on the cluster.

    Each action is a dict with ``at_ms`` plus one of::

        {"op": "kill", "depot": "d1"}
        {"op": "restart", "depot": "d1"}
        {"op": "set_link", "src": "client", "dst": "d0", "loss_rate": 0.5, ...}
        {"op": "advance_clock", "seconds": 2}

    Actions run inside the datagram event loop at their virtual times;
    returns the fabric's event log.
    """
    def runner(action):
        def apply():
            op = action["op"]
            if op == "kill":
                cluster.kill(action["depot"])
            elif op == "restart":
                cluster.restart(action["depot"])
            elif op == "set_link":
                params = {
                    k: v for k, v in action.items() if k not in ("op", "at_ms", "src", "dst")
                }
                cluster.set_link(action["src"], action["dst"], **params)
            elif op == "advance_clock":
                cluster.advance(action["seconds"])
            else:
                raise ValueError(f"unknown script op {op!r}")

        return apply

    for action in sorted(actions, key=lambda a: a.get("at_ms", 0)):
        cluster.loop.schedule(action.get("at_ms", 0) - cluster.loop.now_ms, runner(action))
    cluster.loop.run_until_idle()
    return list(cluster.fabric.log)
