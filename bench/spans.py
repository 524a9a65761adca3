"""Spans around the public functions of each layer, and their reduction.

The benchmark wraps functions in place from its own code; nothing inside
``ebp`` knows it is traced. A wrapper replaces a name where the caller looks
it up: ``ebp.server`` imported ``parse_request_header`` by value, so the
depot's wrapper replaces ``ebp.server.parse_request_header``, not the one in
``ebp.wire``. A name that no longer exists is skipped, and the metrics that
need it are then left out of the report.

A span is (id, name, start, end, parent, request id, attrs). Spans stay in
memory and are written out when the process ends. ``time.perf_counter`` is
``CLOCK_MONOTONIC`` on Linux, so the client's and the depots' spans share a
clock. A span opened on a thread with no open span of its own (a ``lors``
pool worker) takes the main thread's innermost open span as its parent.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

MiB = 1 << 20

CLIENT_VERBS = (
    "allocate", "store", "load", "probe", "renew", "release", "transfer", "transform", "stats",
)
DEPOT_METHODS = ("allocate", "store", "load", "probe", "renew", "release", "transform_write", "stats")
NFU_OPS = (
    "checksum-crc32",
    "checksum-sha256",
    "xor",
    "copy-range",
    "fill",
    "rle-compress",
    "rle-decompress",
)

# Every per-layer metric: name -> unit. BENCHMARK.json lists the same. They
# cover the layers that every workload crosses: the client session, the wire
# codec on both sides, the server session, the depot and the capability
# parser. The layers only some workloads use (lors, lodn, exnode, nfu) and the
# per-verb and per-op figures are printed as "layer detail" lines instead.
PER_LAYER = {
    "client.requests_per_round": "count",
    "client.connects_per_request": "ratio",
    "client.connect.us": "us",
    "client.request.us": "us",
    "client.wait.us": "us",
    "wire.encode_request.us": "us",
    "wire.parse_response_header.us": "us",
    "wire.parse_request_header.us": "us",
    "wire.encode_response.us": "us",
    "server.dispatch.us": "us",
    "server.dispatch.self_us": "us",
    "depot.call.us": "us",
    "capability.parse.us": "us",
}


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int  # 0: none
    rid: int  # id of the outermost span of the same request
    attrs: dict

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if is_main else []
        return stack

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper; skip if it is gone."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            outer = stack or tracer._main_stack
            try:
                parent, rid = outer[-1], outer[0]
            except IndexError:  # no open span anywhere: a new request
                parent, rid = 0, sid
            stack.append(sid)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent, rid, {"error": type(exc).__name__}))
                raise
            end = perf_counter()
            stack.pop()
            attrs = describe(args, result) if describe else {}
            tracer.spans.append(Span(sid, name, start, end, parent, rid, attrs))
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([list(s) for s in self.spans], fh)


def load_spans(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [Span(*row) for row in json.load(fh)]


# ------------------------------------------------------------- installation


def _client_bytes(verb: str):
    if verb == "store":
        return lambda a, r: {"depot": a[0].addr, "bytes": len(a[3])}
    if verb == "load":
        return lambda a, r: {"depot": a[0].addr, "bytes": len(r.data)}
    if verb == "transfer":
        return lambda a, r: {"depot": a[0].addr, "bytes": r}
    return lambda a, r: {"depot": a[0].addr}


def install_client(tracer: Tracer) -> None:
    """Wrap the client-side layers: client sessions, wire codec, lors, lodn, exnode."""
    import ebp.client
    import ebp.exnode
    import ebp.lodn
    import ebp.lors

    cls = ebp.client.DepotClient
    tracer.wrap(cls, "__init__", "client.connect")
    for verb in CLIENT_VERBS:
        tracer.wrap(cls, verb, f"client.{verb.upper()}", _client_bytes(verb))
    tracer.wrap(ebp.client, "encode_request", "wire.encode_request")
    tracer.wrap(ebp.client, "parse_response_header", "wire.parse_response_header")
    for fn in ("upload", "download", "repair"):
        tracer.wrap(ebp.lors, fn, f"lors.{fn}")
    tracer.wrap(ebp.lodn.LodnScheduler, "tick", "lodn.tick")
    for module in (ebp.exnode, ebp.lodn):
        tracer.wrap(module, "read_exnode", "exnode.io")
        tracer.wrap(module, "write_exnode", "exnode.io")


def install_depot(tracer: Tracer) -> None:
    """Wrap the depot-side layers: server session, wire codec, depot, nfu."""
    import ebp.depot
    import ebp.nfu
    import ebp.server
    import ebp.wire

    tracer.wrap(ebp.server, "dispatch_request", "server.dispatch", lambda a, r: {"verb": a[0].verb})
    tracer.wrap(ebp.server, "parse_request_header", "wire.parse_request_header")
    tracer.wrap(
        ebp.server,
        "encode_response",
        "wire.encode_response",
        lambda a, r: {"bytes": len(r), "payload": len(getattr(a[0], "payload", b""))},
    )
    tracer.wrap(ebp.server.DepotServer, "handle_transfer", "server.transfer", lambda a, r: {"bytes": r})
    sizes = {
        "store": lambda a, r: {"bytes": len(a[3])},
        "transform_write": lambda a, r: {"bytes": len(a[2])},
        "load": lambda a, r: {"bytes": len(r.data)},
    }
    for method in DEPOT_METHODS:
        tracer.wrap(ebp.depot.Depot, method, f"depot.{method}", sizes.get(method))
    tracer.wrap(
        ebp.nfu.NfuEngine,
        "execute",
        "nfu.execute",
        lambda a, r: {"op": a[1].op_name, "bytes": r.io_bytes_used},
    )
    tracer.wrap(ebp.wire, "parse_capability", "capability.parse")


# ---------------------------------------------------------------- reduction


def _self_time(span: Span, children: dict) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered = 0.0
    reach = span.start
    for start, end in sorted((c.start, c.end) for c in children.get(span.sid, ())):
        start, end = max(start, reach), min(end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return span.dur - covered


def _mean(values) -> float | None:
    values = list(values)
    return statistics.fmean(values) if values else None


def _rate(spans) -> float | None:
    spans = [s for s in spans if "bytes" in s.attrs]  # failed calls moved nothing
    busy = sum(s.dur for s in spans)
    return sum(s.attrs["bytes"] for s in spans) / MiB / busy if spans and busy > 0 else None


def _wait(calls: list, dispatched: dict) -> float | None:
    """Mean client time per call minus the depot's dispatch time inside it."""
    waits = []
    by_depot = defaultdict(list)
    for call in calls:
        if "depot" in call.attrs:
            by_depot[call.attrs["depot"]].append(call)
    for depot, group in by_depot.items():
        inner = sorted(dispatched.get(depot, ()), key=lambda s: s.start)
        starts = [s.start for s in inner]
        taken = set()
        for call in sorted(group, key=lambda s: s.start):
            covered = 0.0
            i = bisect.bisect_left(starts, call.start)
            while i < len(inner) and inner[i].start <= call.end:
                if i not in taken and inner[i].end <= call.end:
                    covered += inner[i].dur
                    taken.add(i)
                i += 1
            waits.append(call.dur - covered)
    return _mean(waits)


def reduce(client: list, depots: dict, since: float, until: float, rounds: int):
    """Per-layer metrics from the spans of one traced phase.

    ``client`` holds the client's spans; ``depots`` maps each depot address
    to its spans. Only spans that start within [``since``, ``until``) (the
    ``rounds`` timed rounds) count, except for connections, which insitu
    opens in its set-up only: ``client.connect.us`` and
    ``client.connects_per_request`` take the whole phase, set-up included,
    as does the ``exnode.io.ms`` detail. Returns ({PER_LAYER name: value},
    {detail name: (value, unit)}); a detail without spans is left out.
    """
    named = defaultdict(list)
    for span in client:
        named[span.name].append(span)
    timed = {name: [s for s in spans if since <= s.start < until] for name, spans in named.items()}
    depot_named = defaultdict(list)
    dispatched = defaultdict(lambda: defaultdict(list))  # verb -> depot -> spans
    dispatched_any = defaultdict(list)  # depot -> spans
    self_times = defaultdict(list)  # verb -> dispatch self times
    for addr, spans in depots.items():
        children = defaultdict(list)
        for span in spans:
            children[span.parent].append(span)
        for span in spans:
            if not since <= span.start < until:
                continue
            depot_named[span.name].append(span)
            if span.name == "server.dispatch":
                dispatched[span.attrs["verb"]][addr].append(span)
                dispatched_any[addr].append(span)
                self_times[span.attrs["verb"]].append(_self_time(span, children))
    client_children = defaultdict(list)
    for span in client:
        client_children[span.parent].append(span)

    def us(spans):
        mean = _mean(s.dur for s in spans)
        return None if mean is None else mean * 1e6

    def get(name):
        return timed.get(name, [])

    verbs = [f"client.{verb.upper()}" for verb in CLIENT_VERBS]
    requests = [s for v in verbs for s in get(v)]
    all_requests = sum(len(named.get(v, [])) for v in verbs)
    connects = named.get("client.connect", [])
    dispatch = depot_named["server.dispatch"]
    layer = {
        "client.requests_per_round": len(requests) / rounds,
        "client.connects_per_request": len(connects) / all_requests,
        "client.connect.us": us(connects),
        "client.request.us": us(requests),
        "client.wait.us": _wait(requests, dispatched_any) * 1e6,
        "wire.encode_request.us": us(get("wire.encode_request")),
        "wire.parse_response_header.us": us(get("wire.parse_response_header")),
        "wire.parse_request_header.us": us(depot_named["wire.parse_request_header"]),
        "wire.encode_response.us": us(depot_named["wire.encode_response"]),
        "server.dispatch.us": us(dispatch),
        "server.dispatch.self_us": _mean(t for ts in self_times.values() for t in ts) * 1e6,
        "depot.call.us": us([s for m in DEPOT_METHODS for s in depot_named[f"depot.{m}"]]),
        "capability.parse.us": us(depot_named["capability.parse"]),
    }

    detail = {}
    for verb in ("STORE", "LOAD", "TRANSFER"):
        detail[f"client.{verb}.MiBps"] = (_rate(get(f"client.{verb}")), "MiB/s")
    for verb in ("ALLOCATE", "PROBE", "RENEW", "TRANSFORM"):
        detail[f"client.{verb}.us"] = (us(get(f"client.{verb}")), "us")
    for verb in ("STORE", "LOAD", "PROBE", "RENEW"):
        wait = _wait(get(f"client.{verb}"), dispatched[verb])
        detail[f"wait.{verb}.ms"] = (None if wait is None else wait * 1e3, "ms")
    for verb, times in sorted(self_times.items()):
        detail[f"server.{verb}.self_us"] = (_mean(times) * 1e6, "us")
    detail["server.transfer.MiBps"] = (_rate(depot_named["server.transfer"]), "MiB/s")
    stored = depot_named["depot.store"] + depot_named["depot.transform_write"]
    detail["depot.store.MiBps"] = (_rate(stored), "MiB/s")
    detail["depot.load.MiBps"] = (_rate(depot_named["depot.load"]), "MiB/s")
    executed = defaultdict(list)
    for span in depot_named["nfu.execute"]:
        executed[span.attrs["op"]].append(span)
    for op in NFU_OPS:
        detail[f"nfu.{op}.MiBps"] = (_rate(executed[op]), "MiB/s")
    for name in ("lors.upload", "lors.download", "lors.repair", "lodn.tick"):
        mean = _mean(_self_time(s, client_children) for s in get(name))
        detail[f"{name}.self_ms"] = (None if mean is None else mean * 1e3, "ms")
    exnode_io = named.get("exnode.io", [])
    if exnode_io:
        detail["exnode.io.ms"] = (sum(s.dur for s in exnode_io) * 1e3, "ms")
    return layer, {name: reading for name, reading in detail.items() if reading[0] is not None}
